"""The persistent sort service: front door, queue, dispatcher.

``SortService`` accepts sort requests (:meth:`~SortService.submit` /
:meth:`~SortService.map` / :meth:`~SortService.sort`), plans each one
with the LogGP planner, and runs it on a warm world from the pool — or,
for a one-rank plan without a fault plan, on a one-rank communicator
with no world at all.  Requests run one at a time, in the order they
were admitted, each under the one *running token*:

* **the dispatcher** takes the oldest queued request once no request
  runs, and runs it on its own thread;
* **the synchronous door** (:meth:`~SortService.sort`) runs a one-rank
  request with no fault plan and no external sort on the calling thread
  when nothing is queued or running, so it skips the hand-off to the
  dispatcher and back; otherwise it queues the request and waits its
  turn.  :meth:`~SortService.submit` and :meth:`~SortService.map` always
  queue, so their callers run on while the service sorts.

Around that:

* **bounded queue + the caller's deadline** — the whole load
  admission: a full queue rejects
  (:class:`~repro.errors.AdmissionError`, ``reason="queue-full"``), and
  a request whose estimated completion time (queued work + its own
  planner estimate) exceeds its caller's deadline is shed at the door
  (``reason="deadline"``) rather than timing out after queuing;
* **crash replacement** — a request whose world dies mid-job is retried
  once on a fresh world (the pool replaces the dead one) before the
  failure is surfaced; fault-armed requests therefore always run on a
  world, one-rank ones included;
* **per-request tracing** — each request can carry its own per-rank
  :class:`~repro.trace.recorder.Tracer` set plus a service-lane tracer
  recording the queue wait as a ``wait/queue`` span on the same
  monotonic timebase.

Everything observable lands in :class:`ServiceReport`, which keeps the
counters for the service's lifetime and the records of the last
:data:`REQUEST_LOG` served requests; :meth:`~SortService.counters`
reads the three a health probe answers without copying either.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    AdmissionError,
    CommunicationError,
    ConfigurationError,
    MemoryBudgetError,
    RequestTimeoutError,
    ServiceClosedError,
    SpmdTimeoutError,
)
from repro.admit import admit, admit_keys
from repro.extsort import external_sort, sweep_orphaned_spill_dirs
from repro.runtime.threads import ThreadComm, _SharedState
from repro.service.jobs import sort_shards_job
from repro.service.planner import EXTERNAL_BACKEND, PlanDecision, Planner
from repro.service.pool import WorldPool
from repro.trace.recorder import Tracer

__all__ = ["SortService", "SortOutcome", "ServiceReport", "Ticket",
           "REQUEST_LOG"]

#: Served-request records a service keeps; older ones are dropped, so a
#: long-running service's report (and ``HEALTH``) costs O(1) in uptime.
REQUEST_LOG = 1024


@dataclass
class SortOutcome:
    """What one request produced."""

    request_id: int
    sorted_keys: np.ndarray
    decision: PlanDecision
    queue_wait_s: float
    run_s: float
    wall_s: float
    #: World-replacement retries this request survived.
    retries: int = 0
    #: Per-rank tracers (+ one service-lane tracer with the queue-wait
    #: span) when the request was traced; feed to write_chrome_trace.
    tracers: Optional[List[Tracer]] = None
    fault_stats: Dict[str, int] = field(default_factory=dict)


class Ticket:
    """A pending request's handle; :meth:`result` blocks for the outcome."""

    def __init__(self, request_id: int):
        self.request_id = request_id
        self._done = threading.Event()
        self._outcome: Optional[SortOutcome] = None
        self._error: Optional[BaseException] = None

    def _resolve(self, outcome: SortOutcome) -> None:
        self._outcome = outcome
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> SortOutcome:
        if not self._done.wait(timeout):
            raise RequestTimeoutError(
                f"request {self.request_id} still pending after {timeout}s",
                deadline_s=timeout or 0.0,
                elapsed_s=timeout or 0.0,
                stage="result-wait",
            )
        if self._error is not None:
            raise self._error
        assert self._outcome is not None
        return self._outcome


@dataclass
class _Pending:
    ticket: Ticket
    keys: np.ndarray
    decision: PlanDecision
    faults: Optional[Any]  # FaultPlan
    trace: bool
    enqueued_at: float
    #: The memory budget (bytes) this request was planned under; carried
    #: so the out-of-core path spills at the budget admission priced.
    memory_budget: Optional[int] = None
    #: Absolute monotonic expiry (enqueue time + the caller's budget);
    #: ``None`` means the caller waits forever.
    deadline_at: Optional[float] = None


@dataclass
class ServiceReport:
    """Aggregate service telemetry plus one record per served request."""

    served: int = 0
    failed: int = 0
    rejected_queue_full: int = 0
    shed_deadline: int = 0
    #: Requests too big even for the spill-to-disk path (the estimated
    #: spill footprint exceeded the disk budget); rejected at the door
    #: with a typed MemoryBudgetError.
    rejected_memory: int = 0
    #: Requests the memory-budget admission degraded to the out-of-core
    #: external sort instead of dispatching to a world.
    degraded_external: int = 0
    #: Requests whose deadline passed while they queued; failed with
    #: RequestTimeoutError *before* dispatch (never run past a give-up).
    expired: int = 0
    world_retries: int = 0
    pool: Dict[str, Any] = field(default_factory=dict)
    #: One dict per served request — id, keys, backend, P, flags,
    #: est/queue/run/wall seconds — for the last
    #: :data:`REQUEST_LOG` requests served.
    requests: List[Dict[str, Any]] = field(default_factory=list)

    def latency_percentile(self, q: float) -> float:
        """Wall-latency percentile over :attr:`requests` (the last
        :data:`REQUEST_LOG` served)."""
        if not self.requests:
            return 0.0
        walls = sorted(r["wall_s"] for r in self.requests)
        idx = min(len(walls) - 1, max(0, int(round(q * (len(walls) - 1)))))
        return walls[idx]

    def describe(self) -> str:
        lines = [
            f"service: {self.served} served, {self.failed} failed, "
            f"{self.rejected_queue_full} rejected (queue), "
            f"{self.shed_deadline} shed (deadline), "
            f"{self.expired} expired (in queue), "
            f"{self.world_retries} world retries",
            f"  pool: {self.pool}",
        ]
        if self.rejected_memory or self.degraded_external:
            lines.insert(
                1,
                f"  memory budget: {self.degraded_external} degraded to "
                f"external, {self.rejected_memory} rejected (disk budget)",
            )
        if self.requests:
            lines.append(
                f"  latency over the last {len(self.requests)} requests: "
                f"p50={self.latency_percentile(0.5) * 1e3:.1f}ms "
                f"p95={self.latency_percentile(0.95) * 1e3:.1f}ms "
                f"max={self.latency_percentile(1.0) * 1e3:.1f}ms"
            )
        return "\n".join(lines)


def _needs_world(decision: PlanDecision, faults: bool) -> bool:
    """Whether a request runs on a pooled world.  External plans run
    in-process and one-rank plans on the thread that runs the request;
    a fault-armed plan always takes a world, because its retry needs a
    fresh one."""
    return decision.backend != EXTERNAL_BACKEND and (
        decision.P > 1 or faults
    )


class SortService:
    """A persistent sort service over a warm world pool.

    Parameters
    ----------
    planner:
        Request planner; defaults to a :class:`Planner` over the default
        host profile (pass one built on a calibrated profile for real
        estimates).
    pool:
        Warm world pool; defaults to a fresh :class:`WorldPool`.
    queue_depth:
        Bounded-queue capacity; submissions beyond it are rejected.
    verify:
        Element-exact output verification against ``np.sort`` per
        request (off by default: the service is the hot path; the bench
        and tests verify independently).
    timeout:
        Wall-clock budget per world dispatch.
    memory_budget:
        Default per-request memory budget in bytes.  A request whose
        estimated in-memory working set exceeds it is degraded to the
        out-of-core external sort (run in-process, never dispatched to a
        world) instead of OOMing; ``None`` disables the check.
    disk_budget:
        Cap in bytes on a degraded request's estimated spill footprint;
        a request too big even for the external path is rejected at the
        door with :class:`~repro.errors.MemoryBudgetError`.  ``None``
        means unbounded disk.
    spill_root:
        Directory external-sort spill dirs are created under (default
        ``$REPRO_SPILL_ROOT`` or the system tempdir).  Orphaned spill
        dirs from crashed processes are swept here at service start.
    """

    def __init__(
        self,
        planner: Optional[Planner] = None,
        pool: Optional[WorldPool] = None,
        queue_depth: int = 32,
        verify: bool = False,
        timeout: float = 120.0,
        memory_budget: Optional[int] = None,
        disk_budget: Optional[int] = None,
        spill_root: Optional[str] = None,
    ):
        if queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {queue_depth}"
            )
        self.planner = planner or Planner()
        self.pool = pool or WorldPool()
        self._queue_depth = queue_depth
        self._verify = verify
        self._timeout = timeout
        self._memory_budget = memory_budget
        self._disk_budget = disk_budget
        self._spill_root = spill_root
        # Crash hygiene: spill dirs leaked by dead processes are
        # reclaimed before this service spills.
        sweep_orphaned_spill_dirs(spill_root)
        self._queue: deque = deque()
        self._cond = threading.Condition()
        self._closed = False
        #: The running token, under ``_cond``: True while a request runs,
        #: in the dispatcher or on a caller's thread.
        self._running = False
        self._ids = itertools.count(1)
        self._report = ServiceReport()
        self._requests: deque = deque(maxlen=REQUEST_LOG)
        self._report_lock = threading.Lock()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="sort-service-dispatch", daemon=True
        )
        self._dispatcher.start()

    # -- the front door -------------------------------------------------

    def submit(
        self,
        keys: np.ndarray,
        *,
        algorithm: Optional[str] = None,
        backend: Optional[str] = None,
        P: Optional[int] = None,
        faults: Optional[Any] = None,
        deadline_s: Optional[float] = None,
        trace: bool = False,
        memory_budget: Optional[int] = None,
    ) -> Ticket:
        """Enqueue one sort request; returns its :class:`Ticket`.

        ``algorithm``/``backend``/``P`` are forced
        overrides for the planner (``None`` = planner chooses, including
        the smart-bitonic-vs-sample algorithm routing).  Raises
        :class:`~repro.errors.AdmissionError` when the queue is full or the
        deadline estimate says the request cannot finish within
        ``deadline_s`` — admission failures never enqueue.  Without a
        ``deadline_s`` only the queue bound applies.

        ``deadline_s`` is also the request's *absolute* remaining-time
        budget: if it is still queued when the budget runs out, it fails
        with :class:`~repro.errors.RequestTimeoutError` instead of ever
        dispatching — work is never done for a caller that has given up.

        ``memory_budget`` (bytes, default the service-wide budget)
        engages the memory-budget admission: a request whose estimated
        working set exceeds it degrades to the out-of-core external sort
        (run in-process on the serving host); when even the external
        path's estimated spill footprint exceeds the service's disk
        budget the request is rejected with
        :class:`~repro.errors.MemoryBudgetError`.

        Every refusal is the admission contract's (:mod:`repro.admit`),
        made before the request is queued.
        """
        p, _ = self._admit(
            keys, False, algorithm=algorithm, backend=backend, P=P,
            faults=faults, deadline_s=deadline_s, trace=trace,
            memory_budget=memory_budget,
        )
        return p.ticket

    def sort(self, keys: np.ndarray, **kwargs: Any) -> SortOutcome:
        """Sort and wait: :meth:`submit`'s arguments and admission, then
        the request's outcome or its typed error.

        When nothing is queued or running, a one-rank request with no
        fault plan and no external sort runs right here, on the calling
        thread, under the running token the dispatcher takes too: no
        hand-off to the dispatcher and back.  Any other request queues
        and this call waits its turn, at most ``deadline_s`` when one is
        given.  Either way requests run one at a time, in the order they
        were admitted, and a raise fails this request alone.
        """
        p, here = self._admit(keys, True, **kwargs)
        if here:
            try:
                self._run(p)
            finally:
                self._release()
        return p.ticket.result(kwargs.get("deadline_s"))

    def map(
        self, arrays: Sequence[np.ndarray], **kwargs: Any
    ) -> List[SortOutcome]:
        """Submit many requests, wait for all, return outcomes in order."""
        tickets = [self.submit(a, **kwargs) for a in arrays]
        return [t.result() for t in tickets]

    def _admit(
        self,
        keys: np.ndarray,
        here: bool,
        *,
        algorithm: Optional[str] = None,
        backend: Optional[str] = None,
        P: Optional[int] = None,
        faults: Optional[Any] = None,
        deadline_s: Optional[float] = None,
        trace: bool = False,
        memory_budget: Optional[int] = None,
    ) -> Tuple[_Pending, bool]:
        """Admit, plan and queue one request; returns it and whether the
        caller took the running token to run it on its own thread
        instead, which only ``here`` allows and only for a one-rank,
        fault-free, in-memory plan with nothing queued or running."""
        keys = admit_keys(keys)
        budget = (
            memory_budget if memory_budget is not None
            else self._memory_budget
        )
        have_faults = faults is not None and not getattr(faults, "is_null", False)
        try:
            request = admit(
                keys.size, keys.dtype.itemsize, dtype=keys.dtype,
                faults=have_faults, algorithm=algorithm, backend=backend,
                P=P, memory_budget=budget,
                disk_budget=self._disk_budget,
            )
        except MemoryBudgetError:
            with self._report_lock:
                self._report.rejected_memory += 1
            raise
        decision = self.planner.decide(request)
        if decision.source == "budget":
            with self._report_lock:
                self._report.degraded_external += 1
        here = (here and decision.P == 1 and not have_faults
                and decision.backend != EXTERNAL_BACKEND)
        with self._cond:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if len(self._queue) >= self._queue_depth:
                with self._report_lock:
                    self._report.rejected_queue_full += 1
                raise AdmissionError(
                    f"queue full ({self._queue_depth} pending); request "
                    "rejected",
                    reason="queue-full",
                )
            if deadline_s is not None:
                est_completion = decision.est_seconds + sum(
                    p.decision.est_seconds for p in self._queue
                )
                if est_completion > deadline_s:
                    with self._report_lock:
                        self._report.shed_deadline += 1
                    raise AdmissionError(
                        f"estimated completion {est_completion:.3f}s exceeds "
                        f"the {deadline_s}s deadline "
                        f"({len(self._queue)} requests queued); request shed",
                        reason="deadline",
                        est_seconds=est_completion,
                    )
            now = time.perf_counter()
            # Ids are drawn under the lock, so they count admissions.
            p = _Pending(
                ticket=Ticket(next(self._ids)),
                keys=keys,
                decision=decision,
                faults=faults if have_faults else None,
                trace=trace,
                enqueued_at=now,
                deadline_at=None if deadline_s is None else now + deadline_s,
                memory_budget=budget,
            )
            here = here and not self._queue and not self._running
            if here:
                self._running = True
            else:
                self._queue.append(p)
                self._cond.notify()
        return p, here

    # -- the dispatcher -------------------------------------------------

    def _take(self) -> Optional[_Pending]:
        """The oldest queued request once no request runs, with the
        running token taken; ``None`` once the service is closed, drained
        and idle."""
        with self._cond:
            while self._running or not self._queue:
                if self._closed and not self._running:
                    return None
                self._cond.wait()
            self._running = True
            return self._queue.popleft()

    def _release(self) -> None:
        """Hand the running token back and wake the dispatcher."""
        with self._cond:
            self._running = False
            self._cond.notify()

    def _dispatch_loop(self) -> None:
        while True:
            p = self._take()
            if p is None:
                return
            try:
                self._run(p)
            finally:
                self._release()

    def _run(self, p: _Pending) -> None:
        """Run one request to its ticket's outcome: a raise fails that
        request alone, counted, never the service."""
        try:
            self._run_request(p)
        except BaseException as exc:  # noqa: BLE001 — fail the request, not the service
            p.ticket._fail(exc)
            with self._report_lock:
                self._report.failed += 1

    def _expire_overdue(self, p: _Pending) -> bool:
        """Fail (typed, never silent) a request whose caller's budget ran
        out while it queued; True when it did."""
        now = time.perf_counter()
        if p.deadline_at is None or now < p.deadline_at:
            return False
        p.ticket._fail(
            RequestTimeoutError(
                f"request {p.ticket.request_id} spent its "
                f"{p.deadline_at - p.enqueued_at:.3f}s budget in the "
                "queue; not dispatched",
                deadline_s=p.deadline_at - p.enqueued_at,
                elapsed_s=now - p.enqueued_at,
                stage="dispatch",
            )
        )
        with self._report_lock:
            self._report.expired += 1
        return True

    def _run_request(self, p: _Pending) -> None:
        if self._expire_overdue(p):
            return
        d = p.decision
        if d.backend == EXTERNAL_BACKEND:
            self._run_external(p)
            return
        dispatched_at = time.perf_counter()
        injector = None
        if p.faults is not None:
            from repro.faults.plan import FaultInjector

            injector = FaultInjector(p.faults)
        P = d.P
        n = p.keys.size // P
        # The one result array: every rank writes its partition into it.
        out = np.empty(p.keys.size, dtype=p.keys.dtype)
        job = partial(sort_shards_job, trace=p.trace, injector=injector,
                      algorithm=d.algorithm, out=[out])
        # Rank r sorts its slice.
        rank_args = [([p.keys[r * n:(r + 1) * n]],) for r in range(P)]
        retries = 0
        if _needs_world(d, injector is not None):
            rank_results, retries = self._run_on_world(p, job, rank_args)
        else:
            # One rank, no fault plan: the same job on a one-rank
            # communicator, on the thread holding the running token — no
            # pool acquire, no hand-off to a rank thread.
            rank_results = [job(ThreadComm(0, _SharedState(1)), *rank_args[0])]
        done_at = time.perf_counter()
        if self._verify:
            from repro.sorts.base import verify_sorted

            verify_sorted(
                p.keys, out, f"service[{d.algorithm}:{d.backend}x{P}]"
            )
        tracers = None
        if p.trace:
            tracers = [
                t for t in (ts[0] for _, ts in rank_results)
                if t is not None
            ] + [self._queue_lane(p, P, dispatched_at)]
        self._serve(
            p,
            SortOutcome(
                request_id=p.ticket.request_id,
                sorted_keys=out,
                decision=d,
                queue_wait_s=dispatched_at - p.enqueued_at,
                run_s=done_at - dispatched_at,
                wall_s=done_at - p.enqueued_at,
                retries=retries,
                tracers=tracers,
                fault_stats=(
                    injector.stats.as_dict() if injector is not None else {}
                ),
            ),
        )

    @staticmethod
    def _queue_lane(p: _Pending, rank: int, dispatched_at: float) -> Tracer:
        """The service lane, after the ranks: the request's queue wait."""
        lane = Tracer(rank=rank)
        lane.spans.append(["wait", "queue", p.enqueued_at, dispatched_at, -1])
        return lane

    def _serve(self, p: _Pending, outcome: SortOutcome, **record: Any) -> None:
        """Log one served request and hand its outcome to the caller."""
        d = outcome.decision
        with self._report_lock:
            self._report.served += 1
            self._requests.append(
                {
                    "id": p.ticket.request_id,
                    "keys": int(p.keys.size),
                    "algorithm": d.algorithm,
                    "backend": d.backend,
                    "P": d.P,
                    "est_s": d.est_seconds,
                    "queue_wait_s": outcome.queue_wait_s,
                    "run_s": outcome.run_s,
                    "wall_s": outcome.wall_s,
                    **record,
                }
            )
        p.ticket._resolve(outcome)

    def _run_on_world(
        self, p: _Pending, job: Callable[..., Any], rank_args: List[tuple]
    ) -> Tuple[List[Any], int]:
        """Run ``job`` (``sort_shards_job``) on a pooled world: the
        per-rank results and the world-replacement retries it took."""
        d = p.decision
        # Deadline propagation into the world dispatch: a request with a
        # budget may not run past it (an overdue one was already expired).
        timeout = self._timeout
        if p.deadline_at is not None:
            remaining = p.deadline_at - time.perf_counter()
            timeout = min(timeout, max(0.05, remaining))
        retries = 0
        while True:
            world = self.pool.acquire(d.backend, d.P)
            try:
                rank_results = world.run(
                    job, rank_args=rank_args, timeout=timeout
                )
                break
            except CommunicationError as exc:
                # The world died under the job (rank crash, collapsed
                # barrier).  Release sends it to the pool's morgue; one
                # retry runs the request on a fresh world.  Timeouts are
                # not retried — the job itself was too slow.
                self.pool.release(world)
                if isinstance(exc, SpmdTimeoutError) or retries >= 1:
                    raise
                retries += 1
                with self._report_lock:
                    self._report.world_retries += 1
            except BaseException:
                self.pool.release(world)
                raise
        self.pool.release(world)
        return rank_results, retries

    def _run_external(self, p: _Pending) -> None:
        """Serve an out-of-core request in-process: no world, no pool —
        the dispatcher streams it through the spill-to-disk external
        sort under the memory budget its admission priced."""
        d = p.decision
        dispatched_at = time.perf_counter()
        budget = (
            p.memory_budget if p.memory_budget is not None
            else 64 << 20  # estimate_external's default working set
        )
        tracer = Tracer(rank=0) if p.trace else None
        out, ext = external_sort(
            p.keys,
            budget,
            spill_root=self._spill_root,
            disk_budget=self._disk_budget,
            tracer=tracer,
        )
        done_at = time.perf_counter()
        if self._verify:
            from repro.sorts.base import verify_sorted

            verify_sorted(p.keys, out, "service[external:localx1]")
        tracers = None
        if tracer is not None:
            tracers = [tracer, self._queue_lane(p, 1, dispatched_at)]
        self._serve(
            p,
            SortOutcome(
                request_id=p.ticket.request_id,
                sorted_keys=out,
                decision=d,
                queue_wait_s=dispatched_at - p.enqueued_at,
                run_s=done_at - dispatched_at,
                wall_s=done_at - p.enqueued_at,
                tracers=tracers,
            ),
            memory_budget=budget,
            spill_bytes=ext.spill_bytes,
            merge_passes=ext.merge_passes,
        )

    # -- lifecycle -------------------------------------------------------

    def report(self) -> ServiceReport:
        """A snapshot of the service's telemetry (pool stats included)."""
        with self._report_lock:
            snap = ServiceReport(
                served=self._report.served,
                failed=self._report.failed,
                rejected_queue_full=self._report.rejected_queue_full,
                shed_deadline=self._report.shed_deadline,
                rejected_memory=self._report.rejected_memory,
                degraded_external=self._report.degraded_external,
                expired=self._report.expired,
                world_retries=self._report.world_retries,
                pool=self.pool.stats(),
                requests=list(self._requests),
            )
        return snap

    def counters(self) -> Dict[str, int]:
        """The served, failed and expired counts, what a ``HEALTH`` probe
        answers: read under the report lock, copying no request record
        and no pool stats."""
        with self._report_lock:
            r = self._report
            return {"served": r.served, "failed": r.failed,
                    "expired": r.expired}

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting requests, optionally drain the queue, stop the
        dispatcher and close the pool.  The dispatcher stops only once no
        request runs, so a request running on a caller's thread finishes
        first.  Idempotent."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            if not drain:
                abandoned = list(self._queue)
                self._queue.clear()
                for p in abandoned:
                    p.ticket._fail(
                        ServiceClosedError(
                            "service closed before the request ran"
                        )
                    )
            self._cond.notify_all()
        self._dispatcher.join(timeout=timeout)
        self.pool.close()

    def __enter__(self) -> "SortService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
