"""The one front door: ``sort()`` over every substrate, one report back.

The package grew three ways to run the paper's sort — the LogGP-simulated
machine (:mod:`repro.sorts`), the real SPMD runtime
(:mod:`repro.runtime`), and the chaos/fault stack (:mod:`repro.faults`) —
each with its own entry point and its own result shape.  :func:`sort`
unifies them behind a single call::

    from repro import sort

    report = sort(keys, P=8)                                # simulated
    report = sort(keys, P=8, backend="threads", trace=True) # real SPMD, traced
    report = sort(keys, P=4, backend="threads",
                  faults=FaultPlan.light(seed=7))           # under faults

and always returns one :class:`SortReport` carrying whatever the chosen
substrate produced: the sorted keys and wall time always; simulated
:class:`~repro.machine.metrics.RunStats` from the simulated backend; a
:class:`~repro.trace.report.PhaseReport` aligning measured, simulated and
predicted per-phase time when ``trace=True``; fault and recovery counters
when a :class:`~repro.faults.plan.FaultPlan` was armed.

What each substrate runs, and which requests each door accepts, is the
admission contract's one table (:mod:`repro.admit`); a request outside
it is refused with a typed error before any work starts, never run with
an argument silently ignored.  ``external`` is the out-of-core
spill-to-disk sort (:mod:`repro.extsort`): it runs in-process on the
calling host under the default backend (the report's backend reads
``"local"``); ``backend="threads"`` refuses it, as every door with a
planner does.  It is also what ``memory_budget=`` degrades to when the
estimated in-memory working set does not fit, whatever the backend.

``algorithm="auto"`` is a routing directive, not a seventh algorithm:
with a ``service=`` attached (where it is the default) the service
planner prices smart bitonic against sample sort per request and runs
the winner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.admit import SORT_ALGORITHMS, SORT_BACKENDS, admit_direct
from repro.machine.metrics import RunStats
from repro.utils.bits import is_power_of_two

__all__ = [
    "SortReport",
    "sort",
    "SORT_BACKENDS",
    "SORT_ALGORITHMS",
]


@dataclass
class SortReport:
    """Everything one :func:`sort` call produced, in one place.

    Always present: the identity of the run (``algorithm``, ``backend``,
    ``P``, ``n``), the globally sorted ``sorted_keys``, and host
    ``wall_seconds``.  The rest depends on the substrate: ``stats`` is the
    simulated machine's metrics (simulated backend only), ``phases`` the
    three-source per-phase breakdown (``trace=True``), ``fault_stats`` /
    ``retry_rounds`` / ``resent_elements`` the injected-fault ledger
    (``faults`` armed).
    """

    algorithm: str
    backend: str
    P: int
    n: int
    sorted_keys: np.ndarray
    wall_seconds: float
    verified: bool = False
    stats: Optional[RunStats] = None
    phases: Optional["PhaseReport"] = None  # noqa: F821 — forward ref
    #: Per-rank span/counter recorders of a traced SPMD run (rank order);
    #: feed to :func:`repro.trace.write_chrome_trace` for a timeline file.
    tracers: Optional[list] = None
    fault_stats: Dict[str, int] = field(default_factory=dict)
    retry_rounds: int = 0
    resent_elements: int = 0

    @property
    def N(self) -> int:
        """Total number of keys sorted."""
        return self.P * self.n

    def describe(self) -> str:
        """Human-readable run summary (plus the phase table when traced)."""
        lines = [
            f"{self.algorithm} sort: {self.N:,} keys on {self.P} "
            f"{'simulated processors' if self.backend == 'simulated' else 'ranks'}"
            f" [{self.backend}] — {self.wall_seconds:.3f}s wall"
            + (", verified" if self.verified else "")
        ]
        if self.stats is not None:
            lines.append(
                f"  simulated {self.stats.elapsed_us:,.0f} µs makespan, "
                f"{self.stats.remaps} remaps, "
                f"{self.stats.volume_per_proc:,.0f} elements/proc"
            )
        if self.fault_stats:
            s = self.fault_stats
            lines.append(
                f"  faults     drop={s.get('dropped', 0)} "
                f"dup={s.get('duplicated', 0)} corrupt={s.get('corrupted', 0)} "
                f"delay={s.get('delayed', 0)}; recovery retry rounds="
                f"{self.retry_rounds}, resent={self.resent_elements:,} elements"
            )
        if self.phases is not None:
            lines.append(self.phases.describe())
        return "\n".join(lines)


def sort(
    keys: np.ndarray,
    P: Optional[int] = None,
    *,
    algorithm: Optional[str] = None,
    backend: str = "simulated",
    trace: bool = False,
    faults: Optional["FaultPlan"] = None,  # noqa: F821 — forward ref
    timeout: float = 120.0,
    verify: bool = True,
    service: Optional["SortService"] = None,  # noqa: F821 — forward ref
    memory_budget: Optional[int] = None,
) -> SortReport:
    """Sort ``keys`` across ``P`` processors/ranks and report everything.

    Parameters
    ----------
    keys:
        The global input array: 1-D and non-empty; which sizes each
        backend and algorithm take is :mod:`repro.admit`'s table.
    P:
        Number of simulated processors or real ranks.  Optional when a
        ``service`` routes the call — its planner then chooses ``P``.
    algorithm:
        One of :data:`SORT_ALGORITHMS`, constrained per backend by the
        capability table of :mod:`repro.admit`, or ``"auto"`` on a
        service-routed call — the planner then prices smart bitonic
        against sample sort and runs the winner.  Default: ``"auto"``
        with a service, ``"smart"`` without.
    backend:
        ``"simulated"`` runs on the LogGP-costed machine;
        ``"threads"`` runs the real message-passing sort on a one-shot
        world (:func:`repro.runtime.driver.spawn_world`); any other name
        raises :class:`~repro.errors.ConfigurationError`.
    trace:
        Record per-phase time and attach a
        :class:`~repro.trace.report.PhaseReport` aligning measured (SPMD
        backends), simulated, and closed-form predicted columns.  Off by
        default: the untraced hot path allocates no trace objects.
    faults:
        A :class:`~repro.faults.plan.FaultPlan` to inject; survived by the
        simulator's fault plane (simulated) or
        :class:`~repro.faults.transport.ReliableComm` (threads).
    timeout:
        Wall-clock budget for the SPMD world (ignored when simulated).
    verify:
        Check the output element-exactly against ``np.sort`` (on by
        default — the front door favours safety over benchmark purity).
        On the SPMD paths the reference sorts on the calling thread
        while the ranks (or the service) sort the request.
    service:
        A running :class:`~repro.service.SortService`.  When given, the
        call routes through the service's warm world pool instead of
        spawning a one-shot world: the explicitly-passed ``algorithm`` /
        ``P`` / SPMD ``backend`` become forced planner overrides,
        anything left unsaid (including ``backend="simulated"``, which
        the service never runs) is the planner's choice.
    memory_budget:
        Working-set bound in bytes.  When the estimated in-memory
        working set of ``keys`` exceeds it, the call degrades to the
        out-of-core ``external`` sort (spill-to-disk, in-process)
        instead of allocating past the budget — the same degradation the
        service's admission applies.  ``None`` disables the check.
    """
    if service is not None:
        return _sort_service(
            np.asarray(keys), P, algorithm, backend, trace, faults, verify,
            service, memory_budget,
        )
    keys, algorithm = admit_direct(
        keys, P, algorithm, backend, faults, memory_budget
    )
    if algorithm == "external":
        # The out-of-core path is backend-independent: it runs
        # in-process, before any substrate dispatch.
        return _sort_external(keys, trace, verify, memory_budget)
    if backend == "simulated":
        return _sort_simulated(keys, P, algorithm, trace, faults, verify)
    return _sort_spmd(
        keys, P, algorithm, backend, trace, faults, timeout, verify
    )


def _sorter(algorithm: str):
    from repro.sorts import (
        BlockedMergeBitonicSort,
        CyclicBlockedBitonicSort,
        ParallelRadixSort,
        ParallelSampleSort,
        SmartBitonicSort,
    )

    return {
        "smart": SmartBitonicSort,
        "cyclic-blocked": CyclicBlockedBitonicSort,
        "blocked-merge": BlockedMergeBitonicSort,
        "radix": ParallelRadixSort,
        "sample": ParallelSampleSort,
    }[algorithm]()


def _columns(algorithm: str, keys: np.ndarray, P: int):
    """The simulated and predicted columns of a traced run: the LogGP
    machine's run of the same (N, P) and the closed form.  The paper's
    model covers powers of two only, and the out-of-core sort has no
    simulated twin."""
    from repro.theory.predict import predict

    if algorithm == "external":
        return None, predict("external", keys.size, 1)
    if not is_power_of_two(keys.size):
        return None, None
    return _sorter(algorithm).run(keys, P).stats, predict(
        algorithm, keys.size, P
    )


def _sort_external(keys, trace, verify, memory_budget) -> SortReport:
    """Run the out-of-core spill-to-disk sort in-process: forced with
    ``algorithm="external"``, or degraded to when the in-memory working
    set does not fit ``memory_budget``."""
    from repro.extsort import external_sort
    from repro.sorts.base import verify_sorted

    budget = memory_budget if memory_budget is not None else 64 << 20
    tracer = None
    if trace:
        from repro.trace.recorder import Tracer

        tracer = Tracer(0)
    start = time.perf_counter()
    out, _ext = external_sort(keys, budget, tracer=tracer)
    wall = time.perf_counter() - start
    if verify:
        verify_sorted(keys, out, "external[local]")
    phases = tracers = None
    if trace:
        from repro.theory.predict import predict_external
        from repro.trace.report import build_phase_report

        tracers = [tracer]
        phases = build_phase_report(
            tracers=tracers,
            predicted=predict_external(
                keys.size, 1,
                memory_budget=budget,
                dtype_size=keys.dtype.itemsize,
            ),
            P=1,
            n=int(keys.size),
        )
    return SortReport(
        algorithm="external",
        backend="local",
        P=1,
        n=int(keys.size),
        sorted_keys=out,
        wall_seconds=wall,
        verified=verify,
        phases=phases,
        tracers=tracers,
    )


def _sort_service(
    keys, P, algorithm, backend, trace, faults, verify, service,
    memory_budget=None,
) -> SortReport:
    """Bridge the front door onto a running SortService.

    Explicit arguments become forced planner overrides; defaults mean
    "planner chooses" (``backend="simulated"`` is the front door's own
    default, so it reads as unconstrained here — the service runs only
    the SPMD backend; likewise ``algorithm`` defaults to ``"auto"``, the
    planner's cross-algorithm routing).
    """
    from repro.sorts.base import reference_sort, verify_sorted

    ticket = service.submit(
        keys,
        algorithm=algorithm,
        backend=None if backend == "simulated" else backend,
        P=P,
        faults=faults,
        trace=trace,
        memory_budget=memory_budget,
    )
    # The exact reference sorts here while the service sorts the request.
    expected = reference_sort(keys) if verify else None
    outcome = ticket.result()
    d = outcome.decision
    if verify:
        verify_sorted(
            keys, outcome.sorted_keys,
            f"service[{d.algorithm}:{d.backend}x{d.P}]", expected,
        )
    phases = None
    if trace and outcome.tracers:
        from repro.trace.report import build_phase_report

        # The last tracer is the service lane (queue wait); the phase
        # table aligns the rank tracers against simulation + theory.
        sim_stats, predicted = _columns(d.algorithm, keys, d.P)
        phases = build_phase_report(
            tracers=outcome.tracers[: d.P],
            stats=sim_stats,
            predicted=predicted,
            P=d.P,
            n=keys.size // d.P,
        )
    return SortReport(
        algorithm=d.algorithm,
        backend=d.backend,
        P=d.P,
        n=keys.size // d.P,
        sorted_keys=outcome.sorted_keys,
        wall_seconds=outcome.wall_s,
        verified=verify,
        phases=phases,
        tracers=outcome.tracers,
        fault_stats=outcome.fault_stats,
    )


def _sort_simulated(keys, P, algorithm, trace, faults, verify) -> SortReport:
    from repro.faults.plan import FaultInjector
    from repro.trace.report import build_phase_report

    injector = FaultInjector(faults) if faults is not None else None
    start = time.perf_counter()
    result = _sorter(algorithm).run(keys, P, verify=verify, injector=injector)
    wall = time.perf_counter() - start
    phases = None
    if trace:
        from repro.theory.predict import predict

        phases = build_phase_report(
            stats=result.stats, predicted=predict(algorithm, keys.size, P),
        )
    return SortReport(
        algorithm=algorithm,
        backend="simulated",
        P=P,
        n=keys.size // P,
        sorted_keys=result.sorted_keys,
        wall_seconds=wall,
        verified=verify,
        stats=result.stats,
        phases=phases,
        fault_stats=injector.stats.as_dict() if injector is not None else {},
        retry_rounds=injector.stats.retries if injector is not None else 0,
        resent_elements=(
            injector.stats.resent_elements if injector is not None else 0
        ),
    )


def _sort_spmd(
    keys, P, algorithm, backend, trace, faults, timeout, verify
) -> SortReport:
    from repro.faults.plan import FaultInjector
    from repro.runtime.driver import spawn_world
    from repro.runtime.jobs import sort_shards_job
    from repro.sorts.base import reference_sort, verify_sorted
    from repro.trace.report import build_phase_report

    n = keys.size // P
    injector = None
    if faults is not None and not faults.is_null:
        injector = FaultInjector(faults)
    # The one result array: every rank writes its partition into it.
    out = np.empty(keys.size, dtype=keys.dtype)

    def prog(comm):
        # The service's rank program, on this rank's slice.
        shard = keys[comm.rank * n : (comm.rank + 1) * n]
        _parts, tracers = sort_shards_job(
            comm, [shard], trace=trace, injector=injector,
            algorithm=algorithm, out=[out],
        )
        return tracers[0]

    start = time.perf_counter()
    world = spawn_world(P, backend)
    try:
        job = world.start(prog, timeout=timeout)
        # The exact reference sorts here while the ranks sort.
        expected = reference_sort(keys) if verify else None
        rank_tracers = world.wait(job)
    finally:
        world.close()
    wall = time.perf_counter() - start
    if verify:
        verify_sorted(keys, out, f"{algorithm}-spmd[{backend}]", expected)

    phases = tracers = None
    if trace:
        # The aligned three-source table: measured spans from this run,
        # the LogGP machine's simulation of the same (N, P), and the
        # closed-form prediction.
        tracers = rank_tracers
        sim_stats, predicted = _columns(algorithm, keys, P)
        phases = build_phase_report(
            tracers=tracers,
            stats=sim_stats,
            predicted=predicted,
            P=P,
            n=n,
        )
    return SortReport(
        algorithm=algorithm,
        backend=backend,
        P=P,
        n=n,
        sorted_keys=out,
        wall_seconds=wall,
        verified=verify,
        phases=phases,
        tracers=tracers,
        fault_stats=injector.stats.as_dict() if injector is not None else {},
        retry_rounds=injector.stats.retries if injector is not None else 0,
        resent_elements=(
            injector.stats.resent_elements if injector is not None else 0
        ),
    )
