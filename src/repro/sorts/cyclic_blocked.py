"""The Cyclic-Blocked bitonic sort ([CDMS94], §2.3, §5.3).

The strongest prior baseline: the first ``lg n`` stages run locally under a
blocked layout (one radix sort per processor); each later stage
``lg n + k`` remaps to cyclic, runs its first ``k`` steps locally as bitonic
merges, remaps back to blocked and finishes the stage's last ``lg n`` steps
with a local radix sort — ``2 lg P`` remaps, each a full all-to-all in which
a processor keeps only ``n / P`` of its elements.  Requires ``N >= P**2``.

Local computation follows [CDMS94]: *bitonic merges* under the cyclic
layout and *radix sorts* under the blocked layout (the blocked phase ends
with each partition fully sorted, so a full radix sort of the local bitonic
data produces the same result as simulating the steps; it is charged at
radix-sort cost — this is exactly the computation the smart algorithm's
Chapter 4 merges improve on).  Packing is folded into the local sorts as in
[AISS95] (all three compared algorithms use long messages well — §5.3).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.layouts.schedule import cyclic_blocked_schedule
from repro.localsort.bitonic_merge_sort import batched_bitonic_merge
from repro.localsort.radix import num_passes, radix_sort
from repro.machine.simulator import Machine
from repro.remap.exchange import perform_remap
from repro.sorts.base import ParallelSort
from repro.utils.bits import bit_of, ilog2

__all__ = ["CyclicBlockedBitonicSort"]


class CyclicBlockedBitonicSort(ParallelSort):
    """Periodic cyclic↔blocked remapping ([CKP+93, CDMS94])."""

    name = "cyclic-blocked"

    def __init__(self, spec=None, *, mode: str = "long", key_bits: int = 32,
                 radix_bits: int = 8):
        if spec is None:
            from repro.model.machines import MEIKO_CS2

            spec = MEIKO_CS2
        super().__init__(spec)
        self.mode = mode
        self.key_bits = key_bits
        self.radix_bits = radix_bits
        if mode != "long":
            self.name = f"cyclic-blocked[{mode}-msg]"

    def _check_schedule(self, N: int, P: int) -> None:
        if P > 1:
            cyclic_blocked_schedule(N, P)

    def _run_parts(self, machine: Machine, parts: List[np.ndarray]) -> List[np.ndarray]:
        P = machine.P
        n = parts[0].size
        costs = machine.spec.compute
        passes = num_passes(self.key_bits, self.radix_bits)

        if P == 1:
            parts = [radix_sort(parts[0], key_bits=self.key_bits,
                                radix_bits=self.radix_bits)]
            machine.charge_compute(0, "local_sort", n, costs.radix_pass, passes=passes)
            return parts

        schedule = cyclic_blocked_schedule(P * n, P)
        lgn, lgP = ilog2(n), ilog2(P)

        # First lg n stages: alternating local radix sorts (Lemma 6).
        for r in range(P):
            parts[r] = radix_sort(parts[r], ascending=(r % 2 == 0),
                                  key_bits=self.key_bits, radix_bits=self.radix_bits)
            machine.charge_compute(r, "local_sort", n, costs.radix_pass, passes=passes)

        layout = schedule.initial_layout
        fused = self.mode == "long"
        for phase in schedule.phases:
            parts = perform_remap(machine, parts, layout, phase.layout,
                                  mode=self.mode, fused=fused)
            layout = phase.layout
            stage = phase.columns[0][0]
            k = stage - lgn
            if layout.name == "cyclic":
                self._cyclic_steps(machine, parts, layout, stage, k, lgn, lgP)
            else:
                self._blocked_sort(machine, parts, layout, stage, passes)
        return parts

    def _cyclic_steps(self, machine, parts, layout, stage, k, lgn, lgP) -> None:
        """The first ``k`` steps of stage ``lg n + k`` under the cyclic
        layout, executed as batched bitonic merges.

        The steps compare absolute bits ``lg n + k - 1 .. lg n``, i.e. local
        bits ``lg n - lg P + k - 1 .. lg n - lg P`` — a complete butterfly
        over ``k`` consecutive local bits, which bitonic-merges every group
        of ``2**k`` elements strided by ``2**(lg n - lg P)``.
        """
        costs = machine.spec.compute
        low = lgn - lgP  # lowest local bit touched
        for r in range(machine.P):
            data = parts[r]
            m = data.reshape(-1, 1 << k, 1 << low)
            lanes = np.transpose(m, (0, 2, 1)).reshape(-1, 1 << k)
            # Direction bit of stage lg n + k is absolute bit lg n + k: for
            # k < lg P this is local bit lg n - lg P + k — the low bit of
            # the leading (hi) axis; for k = lg P it is bit lg N, always 0.
            if k < lgP:
                hi = np.arange(m.shape[0])
                asc_hi = (hi & 1) == 0
                asc = np.repeat(asc_hi, 1 << low)
            else:
                asc = np.ones(lanes.shape[0], dtype=bool)
            lanes = batched_bitonic_merge(lanes, asc, axis=1)
            back = np.transpose(
                lanes.reshape(-1, 1 << low, 1 << k), (0, 2, 1)
            ).reshape(-1)
            parts[r] = back
            machine.charge_compute(r, "merge", data.size, costs.merge)

    def _blocked_sort(self, machine, parts, layout, stage, passes) -> None:
        """The last ``lg n`` steps of a stage under the blocked layout:
        each partition is one bitonic sequence that ends fully sorted; the
        baseline sorts it with a local radix sort ([CDMS94])."""
        costs = machine.spec.compute
        for r in range(machine.P):
            base_abs = int(layout.to_absolute(r, 0))
            asc = bit_of(base_abs, stage) == 0
            parts[r] = radix_sort(parts[r], ascending=bool(asc),
                                  key_bits=self.key_bits, radix_bits=self.radix_bits)
            machine.charge_compute(
                r, "local_sort", parts[r].size, costs.radix_pass, passes=passes
            )
