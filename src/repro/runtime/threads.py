"""The in-process threads backend of the SPMD runtime.

Each rank runs on its own Python thread.  Collectives are implemented with
a shared mailbox matrix plus a reusable barrier: a phase's senders deposit
references, everyone synchronizes, receivers pick up, everyone synchronizes
again (so the mailbox can be reused).  NumPy array payloads are passed by
reference — callers must not mutate a sent buffer afterwards, same as with
a zero-copy MPI transport; the SPMD algorithms here always send freshly
gathered arrays.

NumPy kernels drop the GIL, so ranks' local phases genuinely overlap on
multicore hosts, but this backend's purpose is *correct concurrent
semantics* (races, deadlocks and ordering are real here), not peak speed.
"""

from __future__ import annotations

import threading
import time
from queue import Empty, SimpleQueue
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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


class _SharedState:
    """State shared by the ``P`` ThreadComm instances of one world."""

    def __init__(self, size: int):
        self.size = size
        self.barrier = threading.Barrier(size)
        # mailbox[src][dst] — written by src, read by dst, between barriers.
        self.mailbox: List[List[Any]] = [[None] * size for _ in range(size)]
        self.gather_slots: List[Any] = [None] * size
        self.failures: List[BaseException] = []
        self.failure_lock = threading.Lock()
        # Pairwise sendrecv channels, created on first use: (src, dst) ->
        # FIFO queue.  Unlike the mailbox they need no barrier — a pair
        # exchanging data does not synchronize the rest of the world.
        self.channels: Dict[Tuple[int, int], SimpleQueue] = {}
        self.channel_lock = threading.Lock()
        # Sub-world barriers for group-scoped collectives (Lemma 4),
        # created on first use per distinct member tuple.  A group barrier
        # only synchronizes the group's members, so disjoint groups cross
        # their exchanges concurrently instead of waiting world-wide.
        self.group_barriers: Dict[Tuple[int, ...], threading.Barrier] = {}
        self.group_lock = threading.Lock()
        self.aborted = False

    def channel(self, src: int, dst: int) -> SimpleQueue:
        ch = self.channels.get((src, dst))
        if ch is None:
            with self.channel_lock:
                ch = self.channels.setdefault((src, dst), SimpleQueue())
        return ch

    def group_barrier_for(self, group: Tuple[int, ...]) -> threading.Barrier:
        bar = self.group_barriers.get(group)
        if bar is None:
            with self.group_lock:
                if self.aborted:
                    # A peer already failed; joining a fresh barrier would
                    # hang forever waiting for the dead.
                    raise threading.BrokenBarrierError
                bar = self.group_barriers.setdefault(
                    group, threading.Barrier(len(group))
                )
        return bar

    def abort_all(self) -> None:
        """Break the world barrier *and* every group barrier, so no rank
        can block on a synchronization the failed peer will never join."""
        with self.group_lock:
            self.aborted = True
            barriers = list(self.group_barriers.values())
        self.barrier.abort()
        for bar in barriers:
            bar.abort()


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

    def _group_barrier(self, group: Tuple[int, ...]) -> None:
        with trace_span(self.tracer, "wait", "group-barrier"):
            try:
                self._state.group_barrier_for(group).wait()
            except threading.BrokenBarrierError as exc:
                raise CommunicationError(
                    "SPMD world collapsed: a peer rank failed (see its "
                    "traceback)"
                ) from exc

    def group_alltoallv(
        self,
        buckets: Sequence[Optional[np.ndarray]],
        group: Sequence[int],
    ) -> List[Optional[np.ndarray]]:
        """Group-scoped ``alltoallv``: only the group's mailbox slots are
        deposited/scanned and only the group's members synchronize, so
        per-stage slot work and barrier fan-in drop from ``O(P)`` to
        ``O(len(group))`` — the executable face of Lemma 4."""
        g = self._check_group(buckets, group)
        tr = self.tracer
        if tr is not None:
            tr.add("coll.group_alltoallv")
            tr.add("coll.group_size", len(g))
            tr.add("coll.slots", len(g))
            for q in g:
                payload = buckets[q]
                if q != self.rank and payload is not None:
                    tr.add("messages")
                    tr.add("bytes_sent", _payload_nbytes(payload))
        row = self._state.mailbox[self.rank]
        for q in g:
            row[q] = buckets[q]
        self._group_barrier(g)  # group deposits visible
        received: List[Optional[np.ndarray]] = [None] * self.size
        for p in g:
            received[p] = self._state.mailbox[p][self.rank]
            self._state.mailbox[p][self.rank] = None
        self._group_barrier(g)  # group pickups done; slots reusable
        return received

    def alltoallv_fused(
        self,
        data: np.ndarray,
        plan,
        out: np.ndarray,
        group: Optional[Sequence[int]] = None,
    ) -> None:
        """Zero-copy fused pack/transfer/unpack.

        The sender deposits *references* — ``(data, gather indices)`` per
        destination — and each receiver gathers straight from the peer's
        source array into its own fresh partition (``out[slots] =
        peer_data[idx]``): every transferred element is written exactly
        once into its final slot, with no per-destination bucket arrays
        and no concatenate pass (the executable analogue of ``fused=True``
        in :func:`repro.remap.exchange.perform_remap`).  Senders must not
        mutate ``data`` until the collective returns — the SPMD sort
        builds its new partition in a fresh buffer, so it never does.
        """
        me, P = self.rank, self.size
        g = tuple(group) if group is not None else tuple(range(P))
        tr = self.tracer
        if tr is not None:
            tr.add("coll.fused")
            tr.add("coll.fused_direct")
            if group is not None and len(g) < P:
                tr.add("coll.group_alltoallv")
                tr.add("coll.group_size", len(g))
            tr.add("coll.slots", len(g))
            for q, idx in plan.send_sorted:
                tr.add("messages")
                tr.add("bytes_sent", int(idx.size * data.dtype.itemsize))
        row = self._state.mailbox[me]
        for q in g:
            row[q] = None
        for q, idx in plan.send_sorted:
            if q not in g or q == me:
                raise CommunicationError(
                    f"rank {me}: fused plan sends to rank {q}, outside its "
                    f"communication group {g}"
                )
            row[q] = (data, idx)
        self._group_barrier(g)  # deposits visible
        expected = dict(plan.recv_sorted)
        for p in g:
            if p == me:
                continue
            entry = self._state.mailbox[p][me]
            self._state.mailbox[p][me] = None
            slots = expected.pop(p, None)
            if entry is None:
                if slots is not None:
                    raise CommunicationError(
                        f"rank {me}: expected {slots.size} keys from rank "
                        f"{p}, got none"
                    )
                continue
            src_data, src_idx = entry
            if slots is None or src_idx.size != slots.size:
                raise CommunicationError(
                    f"rank {me}: rank {p} sent {src_idx.size} keys, "
                    f"expected {0 if slots is None else slots.size}"
                )
            # The fused write: gather from the peer's partition, scatter
            # into the final slots, one pass, no intermediate buffer.
            out[slots] = src_data[src_idx]
        self._group_barrier(g)  # pickups done; slots and data reusable
        if expected:
            raise CommunicationError(
                f"rank {me}: no payload arrived from rank(s) "
                f"{sorted(expected)}"
            )

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

    def sendrecv(
        self, send: Optional[np.ndarray], dst: int, src: int
    ) -> Optional[np.ndarray]:
        """Genuinely pairwise exchange over per-pair FIFO channels.

        Unlike the :class:`~repro.runtime.api.Comm` fallback this never
        crosses the world barrier or scans ``size`` mailbox slots: the
        pair (and only the pair) synchronizes, so disjoint pairs exchange
        concurrently without waiting on each other.
        """
        if not (0 <= dst < self.size and 0 <= src < self.size):
            raise CommunicationError(
                f"rank {self.rank}: sendrecv peers ({dst}, {src}) outside "
                f"world of {self.size}"
            )
        tr = self.tracer
        with trace_span(tr, "transfer", "sendrecv"):
            if tr is not None:
                tr.add("coll.sendrecv")
                tr.add("coll.slots")
            if dst != self.rank:
                # Always deposit (None included) so the matched receiver
                # never blocks on a nothing-to-send exchange.
                if tr is not None and send is not None:
                    tr.add("messages")
                    tr.add("bytes_sent", _payload_nbytes(send))
                self._state.channel(self.rank, dst).put(send)
            if src == self.rank:
                return None
            channel = self._state.channel(src, self.rank)
            with trace_span(tr, "wait", "sendrecv-recv"):
                while True:
                    try:
                        return channel.get(timeout=0.05)
                    except Empty:
                        if self._state.barrier.broken:
                            raise CommunicationError(
                                "SPMD world collapsed: a peer rank failed "
                                "while this rank waited in sendrecv"
                            ) from None


class ThreadWorld(World):
    """A persistent in-process SPMD world.

    ``size`` daemon rank threads are started once; each builds its
    :class:`ThreadComm` against one shared :class:`_SharedState` and then
    loops on a per-rank job queue, so mailbox matrix, barriers and
    channels are reused across jobs.  A job failure breaks the world's
    barriers permanently (:meth:`_SharedState.abort_all`), so the world
    goes dead and refuses further jobs — pools replace dead worlds.
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
                self._state.abort_all()  # unblock peers before reporting
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

    def run(
        self,
        fn: Callable[..., Any],
        rank_args: Optional[Sequence[Sequence[Any]]] = None,
        timeout: float = 120.0,
    ) -> List[Any]:
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
        job = self._job
        for r in range(self.size):
            args = None if rank_args is None else tuple(rank_args[r])
            self._job_qs[r].put((job, fn, args))
        # One deadline for the whole world, whatever order results land.
        deadline = time.monotonic() + timeout
        results: List[Any] = [None] * self.size
        failures: List[BaseException] = []
        reported = [False] * self.size
        while not all(reported):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._dead = True
                self._state.abort_all()
                stuck = reported.index(False)
                raise SpmdTimeoutError(
                    f"SPMD rank spmd-rank-{stuck} did not finish within "
                    f"the world's {timeout}s budget (deadlock or runaway "
                    "work)",
                    phase="run_spmd",
                )
            try:
                rank, got, ok, payload = self._result_q.get(timeout=remaining)
            except Empty:
                continue
            if got != job:
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
