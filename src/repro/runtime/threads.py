"""The in-process threads backend of the SPMD runtime.

Each rank runs on its own Python thread.  Collectives are implemented with
a shared mailbox matrix plus a reusable barrier: a phase's senders deposit
references, everyone synchronizes, receivers pick up, everyone synchronizes
again (so the mailbox can be reused).  NumPy array payloads are passed by
reference — callers must not mutate a sent buffer afterwards, same as with
a zero-copy MPI transport.  The bitonic sort deposits strided views of
its partition itself; it builds each phase's partition in a fresh
buffer, so no rank ever mutates an array it has deposited.

NumPy kernels drop the GIL, so ranks' local phases genuinely overlap on
multicore hosts, but this backend's purpose is *correct concurrent
semantics* (races, deadlocks and ordering are real here), not peak speed.
"""

from __future__ import annotations

import threading
import time
from queue import Empty, SimpleQueue
from typing import Any, Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import CommunicationError, ConfigurationError, SpmdTimeoutError
from repro.runtime.api import Comm
from repro.runtime.world import World
from repro.trace.recorder import trace_span

__all__ = ["ThreadComm", "ThreadWorld", "run_spmd"]


def _payload_nbytes(payload: Any) -> int:
    """Byte size of a collective payload for the trace counters.

    Payloads are usually ndarrays, but wrappers (the fault transport's
    framed messages) send lists/tuples mixing arrays and metadata — a
    blind ``np.asarray`` on those is a ragged-array error.
    """
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (list, tuple)):
        return sum(_payload_nbytes(p) for p in payload)
    arr = np.asarray(payload)
    return int(arr.nbytes) if arr.dtype != object else 0


class _Barrier:
    """A reusable barrier that counts generations.

    ``threading.Barrier.abort()`` also breaks the waiters that the last
    arrival has already released but that have not yet re-taken the
    barrier's lock: they raise from a wait that completed.  Here a waiter
    whose generation has advanced returns normally, whatever happens
    after; :meth:`abort` fails only the waits still pending, and every
    later one.
    """

    def __init__(self, parties: int):
        self.parties = parties
        #: Set by :meth:`abort`, for good.
        self.broken = False
        self._count = 0
        self._generation = 0
        self._cond = threading.Condition(threading.Lock())

    def wait(self) -> None:
        with self._cond:
            if self.broken:
                raise threading.BrokenBarrierError
            generation = self._generation
            self._count += 1
            if self._count == self.parties:
                self._count = 0
                self._generation += 1
                self._cond.notify_all()
                return
            while self._generation == generation:
                if self.broken:
                    raise threading.BrokenBarrierError
                self._cond.wait()

    def abort(self) -> None:
        with self._cond:
            self.broken = True
            self._cond.notify_all()


class _SharedState:
    """State shared by the ``P`` ThreadComm instances of one world."""

    def __init__(self, size: int):
        self.size = size
        self.barrier = _Barrier(size)
        # mailbox[src][dst] — written by src, read by dst, between barriers.
        self.mailbox: List[List[Any]] = [[None] * size for _ in range(size)]
        self.gather_slots: List[Any] = [None] * size


class ThreadComm(Comm):
    """One rank's endpoint of an in-process SPMD world."""

    def __init__(self, rank: int, state: _SharedState):
        if not 0 <= rank < state.size:
            raise ConfigurationError(f"rank {rank} outside world of {state.size}")
        self.rank = rank
        self.size = state.size
        self._state = state

    # -- primitives ---------------------------------------------------

    def barrier(self) -> None:
        if self.size == 1:
            return  # a one-rank world has no peer to wait for
        with trace_span(self.tracer, "wait", "barrier"):
            try:
                self._state.barrier.wait()
            except threading.BrokenBarrierError as exc:
                raise CommunicationError(
                    "SPMD world collapsed: a peer rank failed (see its traceback)"
                ) from exc

    def alltoallv(
        self, buckets: Sequence[Optional[np.ndarray]]
    ) -> List[Optional[np.ndarray]]:
        if len(buckets) != self.size:
            raise CommunicationError(
                f"rank {self.rank}: alltoallv needs {self.size} buckets, "
                f"got {len(buckets)}"
            )
        tr = self.tracer
        if tr is not None:
            tr.add("coll.alltoallv")
            tr.add("coll.slots", self.size)
            for q, payload in enumerate(buckets):
                if q != self.rank and payload is not None:
                    tr.add("messages")
                    tr.add("bytes_sent", _payload_nbytes(payload))
        row = self._state.mailbox[self.rank]
        for q, payload in enumerate(buckets):
            row[q] = payload
        self.barrier()  # all deposits visible
        received: List[Optional[np.ndarray]] = []
        for p in range(self.size):
            received.append(self._state.mailbox[p][self.rank])
            # Slot [p][rank] is read only by this rank: clear it at pickup
            # so the world does not pin every transferred array for its
            # lifetime (writer p touches it again only after the barrier).
            self._state.mailbox[p][self.rank] = None
        self.barrier()  # all pickups done; mailbox reusable
        return received

    def allgather(self, value: Any) -> List[Any]:
        if self.tracer is not None:
            self.tracer.add("coll.allgather")
        self._state.gather_slots[self.rank] = value
        self.barrier()
        out = list(self._state.gather_slots)
        self.barrier()
        # Slot [rank] is written only by this rank, and peers read only
        # between the two barriers above — dropping the reference here is
        # race-free and keeps the world from retaining the payload.
        self._state.gather_slots[self.rank] = None
        return out

    def bcast(self, value: Any, root: int = 0) -> Any:
        if not 0 <= root < self.size:
            raise CommunicationError(f"bcast root {root} outside world")
        if self.tracer is not None:
            self.tracer.add("coll.bcast")
        if self.rank == root:
            self._state.gather_slots[root] = value
        self.barrier()
        out = self._state.gather_slots[root]
        self.barrier()
        if self.rank == root:
            self._state.gather_slots[root] = None
        return out


class _Job(NamedTuple):
    """A posted job: its number and its one monotonic deadline."""

    id: int
    deadline: float
    timeout: float


class ThreadWorld(World):
    """A persistent in-process SPMD world.

    ``size`` daemon rank threads are started once; each builds its
    :class:`ThreadComm` against one shared :class:`_SharedState` and then
    loops on a per-rank job queue, so the mailbox matrix and the barrier
    are reused across jobs.  A job failure breaks the world's barrier
    permanently (:meth:`_Barrier.abort`), so the world goes dead and
    refuses further jobs — pools replace dead worlds.
    """

    backend = "threads"

    def __init__(self, size: int):
        if size < 1:
            raise ConfigurationError(f"need at least 1 rank, got {size}")
        self.size = size
        self._state = _SharedState(size)
        self._job_qs: List[SimpleQueue] = [SimpleQueue() for _ in range(size)]
        self._result_q: SimpleQueue = SimpleQueue()
        self._job = 0
        self._dead = False
        self._closed = False
        self._threads = [
            # daemon=True: a wedged rank must never be able to block
            # interpreter exit (run()'s watchdog already reports it).
            threading.Thread(
                target=self._worker, args=(r,), name=f"spmd-rank-{r}", daemon=True
            )
            for r in range(size)
        ]
        for t in self._threads:
            t.start()

    def _worker(self, rank: int) -> None:
        comm = ThreadComm(rank, self._state)
        while True:
            msg = self._job_qs[rank].get()
            if msg is None:
                return  # orderly close()
            job, fn, args = msg
            try:
                result = fn(comm) if args is None else fn(comm, *args)
            except BaseException as exc:  # noqa: BLE001 — re-raised in caller
                self._state.barrier.abort()  # unblock peers before reporting
                self._result_q.put((rank, job, False, exc))
                return  # broken barriers are permanent: rank retires
            comm.tracer = None  # jobs arm their own tracer; never leak
            self._result_q.put((rank, job, True, result))

    def healthy(self) -> bool:
        return (
            not self._dead
            and not self._closed
            and all(t.is_alive() for t in self._threads)
        )

    def start(
        self,
        fn: Callable[..., Any],
        rank_args: Optional[Sequence[Sequence[Any]]] = None,
        timeout: float = 120.0,
    ) -> _Job:
        if self._closed:
            raise ConfigurationError("cannot run a job on a closed world")
        if self._dead:
            raise CommunicationError(
                "SPMD world is dead (a previous job failed); spawn a "
                "replacement world"
            )
        if rank_args is not None and len(rank_args) != self.size:
            raise ConfigurationError(
                f"rank_args needs one entry per rank "
                f"({self.size}), got {len(rank_args)}"
            )
        self._job += 1
        for r in range(self.size):
            args = None if rank_args is None else tuple(rank_args[r])
            self._job_qs[r].put((self._job, fn, args))
        # One deadline for the whole world, whatever order results land
        # and however long the caller takes to wait for them.
        return _Job(self._job, time.monotonic() + timeout, timeout)

    def wait(self, job: _Job) -> List[Any]:
        results: List[Any] = [None] * self.size
        failures: List[BaseException] = []
        reported = [False] * self.size
        while not all(reported):
            remaining = job.deadline - time.monotonic()
            if remaining <= 0:
                self._dead = True
                self._state.barrier.abort()
                stuck = reported.index(False)
                raise SpmdTimeoutError(
                    f"SPMD rank spmd-rank-{stuck} did not finish within "
                    f"the world's {job.timeout}s budget (deadlock or "
                    "runaway work)",
                    phase="run_spmd",
                )
            try:
                rank, got, ok, payload = self._result_q.get(timeout=remaining)
            except Empty:
                continue
            if got != job.id:
                continue  # stale report from an abandoned job
            reported[rank] = True
            if ok:
                results[rank] = payload
            else:
                failures.append(payload)
        if failures:
            self._dead = True
            # Prefer the root cause over peers' collapsed-barrier echoes
            # (stable sort: arrival order breaks ties).
            failures.sort(key=lambda e: type(e) is CommunicationError)
            raise failures[0]
        return results

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for q in self._job_qs:
            q.put(None)
        deadline = time.monotonic() + 1.0
        for t in self._threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        # Still-alive threads are wedged rank jobs: they are daemons and
        # their world is unreachable from here on, so they cannot disturb
        # anything — same abandonment the one-shot driver practiced.


def run_spmd(size: int, fn: Callable[[Comm], Any], timeout: float = 120.0) -> List[Any]:
    """Run ``fn(comm)`` on ``size`` concurrent ranks; return the per-rank
    results, indexed by rank.

    If any rank raises, the world's barrier is broken (unblocking peers)
    and the first failure is re-raised in the caller.  One-shot
    spawn/run/close over :class:`ThreadWorld`.
    """
    world = ThreadWorld(size)
    try:
        return world.run(fn, timeout=timeout)
    finally:
        world.close()
