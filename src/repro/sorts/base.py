"""Common scaffolding for the parallel sorts."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import VerificationError
from repro.machine.metrics import RunStats
from repro.machine.simulator import Machine
from repro.model.machines import MEIKO_CS2, MachineSpec
from repro.utils.validation import require_sizes

__all__ = ["SortResult", "ParallelSort", "reference_sort", "verify_sorted"]


@dataclass
class SortResult:
    """Output of one parallel-sort run.

    ``sorted_keys`` is the global result gathered in processor order (the
    final layout of every algorithm here is blocked, so processor order *is*
    key order); ``stats`` carries simulated time and the R/V/M communication
    metrics.  ``traces`` holds per-processor timeline events when the run
    was traced (see :mod:`repro.viz.gantt`).
    """

    algorithm: str
    sorted_keys: np.ndarray
    stats: RunStats
    traces: Optional[list] = None

    def verify(self, original: np.ndarray) -> None:
        """Raise :class:`VerificationError` unless the output is the sorted
        permutation of ``original``."""
        verify_sorted(original, self.sorted_keys, self.algorithm)


def reference_sort(original: np.ndarray) -> np.ndarray:
    """The exact reference :func:`verify_sorted` compares against.

    One ``np.sort`` with the default kind: ``array_equal`` treats keys
    that compare equal as equal, so a stable reference would add cost
    without changing the verdict.  The SPMD front doors compute it on the
    calling thread while the ranks sort."""
    return np.sort(np.asarray(original))


def verify_sorted(
    original: np.ndarray,
    result: np.ndarray,
    label: str,
    expected: Optional[np.ndarray] = None,
) -> None:
    """Check that ``result`` == sorted(``original``) (element-exact).

    ``expected`` is :func:`reference_sort` of ``original`` when the
    caller already has it.  A NaN counts as equal to a NaN: ``np.sort``
    puts them last, and so must the output."""
    expect = reference_sort(original) if expected is None else expected
    got = np.asarray(result)
    if got.shape != expect.shape:
        raise VerificationError(
            f"{label}: output has shape {got.shape}, expected {expect.shape}"
        )
    nan = np.issubdtype(expect.dtype, np.inexact)
    if not np.array_equal(got, expect, equal_nan=nan):
        bad = int(np.argmax(got != expect))
        raise VerificationError(
            f"{label}: output is not the sorted input (first mismatch at "
            f"index {bad}: got {got[bad]}, expected {expect[bad]})"
        )


class ParallelSort(ABC):
    """Base class: configure once, run on many workloads.

    Subclasses implement :meth:`_run_parts`, which receives the machine and
    the blocked initial partitions and must return the final partitions in
    blocked (globally sorted) order, and override :meth:`_check_schedule`
    when their schedule does not fit every size.
    """

    #: Short name used in tables and figures.
    name: str = "parallel-sort"

    def __init__(self, spec: MachineSpec = MEIKO_CS2):
        self.spec = spec

    def run(self, keys: np.ndarray, P: int, verify: bool = False,
            trace: bool = False, injector=None) -> SortResult:
        """Sort ``keys`` on ``P`` simulated processors.

        The initial distribution is blocked (untimed, as in the paper's
        measurements, which start from distributed data); the result is
        gathered from the final blocked partitions.  With ``trace=True``
        the result carries per-processor timelines for Gantt rendering.
        ``injector`` (a :class:`repro.faults.FaultInjector`) arms the
        machine's fault plane: injected faults are survived by simulated
        retransmission and show up in the makespan and V/M metrics.
        """
        keys = np.asarray(keys)
        require_sizes(keys.size, P)
        self._check_schedule(keys.size, P)
        machine = Machine(P, self.spec, trace=trace, injector=injector)
        parts = machine.partition(keys)
        parts = self._run_parts(machine, parts)
        out = np.concatenate(parts)
        result = SortResult(
            algorithm=self.name,
            sorted_keys=out,
            stats=machine.stats(keys.size // P),
            traces=[p.trace for p in machine.procs] if trace else None,
        )
        if verify:
            result.verify(keys)
        return result

    def _check_schedule(self, N: int, P: int) -> None:
        """Raise the algorithm's :class:`~repro.errors.ScheduleError` when
        its schedule cannot sort ``N`` keys on ``P`` processors, from the
        sizes alone: :meth:`run` asks before it builds any machine."""

    @abstractmethod
    def _run_parts(
        self, machine: Machine, parts: List[np.ndarray]
    ) -> List[np.ndarray]:
        """Sort the blocked partitions in place on ``machine``."""
