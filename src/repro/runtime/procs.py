"""The multi-core process backend of the SPMD runtime.

Each rank runs in its own OS process, so NumPy pack/merge kernels execute
on separate cores with no GIL in sight.  Collectives move bulk data through
``multiprocessing.shared_memory`` **double buffers**: every rank owns two
byte arenas; a collective writes its outgoing buckets into the arena of the
current parity, publishes ``(nbytes, offset, kind, dtype)`` descriptors in
a shared control block, crosses one world barrier, and reads peers' buckets
straight out of their arenas.  Alternating parities means a single barrier
per collective: arena ``b`` is only rewritten at collective ``i + 2``,
after barrier ``i + 1`` has proven every reader of collective ``i`` moved
on.  NumPy payloads travel as raw bytes (one memcpy into the arena, one
memcpy out — no pickling on the bulk path); other Python values fall back
to pickle.

Arenas grow on demand (a rank that needs more room creates a new
generation of its segment and bumps a generation counter that readers
check on every pickup), so callers never size anything.  The parent
process is the watchdog: it owns segment cleanup, converts a dead rank
into a broken barrier for the survivors, and enforces one wall-clock
deadline for the whole world, exactly like the threads backend.

**Group-scoped collectives** (Lemma 4) synchronize through per-rank
``post``/``done`` sequence counters in the control block instead of the
world barrier: a group member publishes its descriptors, advances its
``post`` counter, and waits only for its group peers' counters — wait
fan-in and descriptor slot work drop from ``O(P)`` to ``O(len(group))``,
and disjoint groups cross their exchanges concurrently.  Because group
members no longer synchronize with the rest of the world, the
single-barrier parity argument is generalized: every collective is
numbered, every rank advances ``done[rank]`` when its reads finish, and a
rank re-uses an arena parity only after the readers it served two
collectives ago have advanced past that collective (checked wait-free in
the all-world-barrier steady state).  The counter handshake assumes
program-order store visibility across ranks (true on x86's TSO model and
in practice wherever CPython's shared-memory users run); all collectives
on a world must be called by every rank in the same order, which the
world-barrier protocol already required.

This backend runs ranks in *separate address spaces*: in-process state
(checkpoint stores, fault injectors) is copied at fork, not shared — the
fault-injection transport refuses to arm on top of it for that reason
(see :class:`repro.faults.transport.ReliableComm`).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import queue as queue_mod
import secrets
import threading
import time
from collections import deque
from contextlib import suppress
from multiprocessing import shared_memory
from multiprocessing.connection import wait as _sentinel_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CommunicationError, ConfigurationError, SpmdTimeoutError
from repro.runtime.api import Comm
from repro.runtime.world import World
from repro.trace.recorder import trace_span

__all__ = ["ProcComm", "ProcWorld", "run_spmd_procs"]

#: Bucket encodings in the control block.
_KIND_NONE = 0
_KIND_NDARRAY = 1
_KIND_PICKLE = 2

#: Initial arena capacity per (rank, parity) — grown on demand.
_DEFAULT_ARENA_BYTES = 1 << 16


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover — non-Linux
        return os.cpu_count() or 1


#: Fewer cores than typical worlds — the group-sync spin loops must
#: yield immediately instead of burning the core their peer needs.
_OVERSUBSCRIBED = _usable_cpus() < 4


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker side effects.

    On Python < 3.13 attaching also *registers* the name with the resource
    tracker (there is no ``track=False``), and the forked ranks share one
    tracker process — the duplicate registrations then collapse into
    spurious KeyError tracebacks at teardown.  Registration must stay
    symmetric (exactly one ``create`` per name, exactly one ``unlink``),
    so attaches are made silent.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _encode_dtype(dtype: np.dtype) -> Optional[int]:
    """Pack a simple dtype's ``.str`` (e.g. ``'<u4'``) into one int64;
    ``None`` when it does not fit and the bucket must travel pickled."""
    if dtype.hasobject:
        return None
    code = dtype.str.encode("ascii", "replace")
    if len(code) > 8:
        return None
    return int.from_bytes(code.ljust(8, b"\0"), "little")


def _decode_dtype(code: int) -> np.dtype:
    raw = int(code).to_bytes(8, "little").rstrip(b"\0")
    return np.dtype(raw.decode("ascii"))


def _arena_name(base: str, rank: int, parity: int, gen: int) -> str:
    return f"{base}-{rank}-{parity}-{gen}"


class _ControlBlock:
    """Typed views over the world's shared int64 control segment.

    Layout (all int64)::

        gen[P][2]            arena generation per (rank, parity)
        cap[P][2]            arena capacity in bytes per (rank, parity)
        post[P]              last collective whose descriptors rank posted
                             via the group handshake (group sync)
        done[P]              last collective rank fully completed, reads
                             included (arena-reuse guard)
        meta[2][P][P][4]     per parity, src, dst: nbytes, offset, kind, dtype

    Call :meth:`release` before closing the underlying segment — the NumPy
    views export the buffer and would otherwise make ``close()`` raise.
    """

    def __init__(self, shm: shared_memory.SharedMemory, P: int):
        self.shm = shm
        words = np.ndarray((6 * P + 2 * P * P * 4,), dtype=np.int64, buffer=shm.buf)
        self.gen = words[: 2 * P].reshape(P, 2)
        self.cap = words[2 * P : 4 * P].reshape(P, 2)
        self.post = words[4 * P : 5 * P]
        self.done = words[5 * P : 6 * P]
        self.meta = words[6 * P :].reshape(2, P, P, 4)

    @staticmethod
    def nbytes(P: int) -> int:
        return 8 * (6 * P + 2 * P * P * 4)

    def release(self) -> None:
        self.gen = self.cap = self.post = self.done = self.meta = None


class ProcComm(Comm):
    """One rank's endpoint of a multi-process SPMD world."""

    #: Ranks live in separate address spaces (see :class:`Comm`).
    in_process = False

    def __init__(
        self,
        rank: int,
        size: int,
        base: str,
        barrier,
        spin_budget: Optional[int] = None,
    ):
        if not 0 <= rank < size:
            raise ConfigurationError(f"rank {rank} outside world of {size}")
        self.rank = rank
        self.size = size
        self._base = base
        self._barrier = barrier
        self._ctl = _ControlBlock(_attach(f"{base}-ctl"), size)
        #: Attached segments, (rank, parity) -> (generation, SharedMemory).
        self._segs = {}
        self._parity = 0
        #: Collectives entered by this rank (the world executes the same
        #: sequence, so the index is globally meaningful).
        self._coll = 0
        #: Highest collective index every rank is known to have completed
        #: (learned at world-barrier crossings; lets the arena-reuse guard
        #: skip its counter scan in the all-world steady state).
        self._world_seq = 0
        #: Reader sets of the last two collectives — who may still hold
        #: views into this rank's arenas.
        self._rhist: deque = deque(maxlen=2)
        #: Iterations of pure busy-spin before yielding in the counter
        #: handshakes.  From the host profile when the launcher provides it;
        #: the default burns a few hundred iterations only when cores
        #: outnumber typical worlds (on a 1-core CI host, spinning just
        #: delays the peer being waited for — yield immediately).
        self._spin_budget = (
            spin_budget
            if spin_budget is not None
            else (0 if _OVERSUBSCRIBED else 256)
        )
        for b in (0, 1):
            gen = int(self._ctl.gen[rank, b])
            self._segs[(rank, b)] = (gen, _attach(_arena_name(base, rank, b, gen)))

    # -- primitives ---------------------------------------------------

    def _wait_world(self) -> None:
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError as exc:
            raise CommunicationError(
                "SPMD world collapsed: a peer rank failed (see its traceback)"
            ) from exc

    def barrier(self) -> None:
        with trace_span(self.tracer, "wait", "barrier"):
            self._wait_world()
        # Everyone crossed with the same collective count (collectives are
        # world-ordered), so everything so far is globally complete.
        self._world_seq = max(self._world_seq, self._coll)

    # -- the collective sequence protocol ------------------------------

    def _spin(self, cells: np.ndarray, who, target: int, what: str) -> None:
        """Wait until ``cells[p] >= target`` for every ``p`` in ``who``,
        yielding the CPU between checks; a broken world barrier (peer
        failure, parent watchdog) aborts the wait."""
        busy = self._spin_budget
        for p in who:
            if p == self.rank:
                continue
            tries = 0
            while int(cells[p]) < target:
                if self._barrier.broken:
                    raise CommunicationError(
                        f"SPMD world collapsed: a peer rank failed while "
                        f"this rank waited for rank {p} ({what})"
                    )
                tries += 1
                # Busy for the budget (group peers are usually in step),
                # then yield the core, then back off to 50 µs sleeps.
                if tries > busy:
                    time.sleep(0 if tries <= busy + 64 else 5e-5)

    def _begin_collective(self) -> int:
        """Number this collective and enforce arena re-use safety: the
        readers served two collectives ago (same parity) must have
        finished before this rank rewrites that arena.  Free whenever a
        world barrier has been crossed since — only sequences that mix in
        group-scoped collectives ever wait here."""
        self._coll += 1
        k = self._coll
        if k >= 3 and self._world_seq < k - 2 and len(self._rhist) == 2:
            readers = self._rhist[0]
            if readers:
                with trace_span(self.tracer, "wait", "arena-reuse"):
                    self._spin(self._ctl.done, readers, k - 2, "arena re-use")
        return k

    def _end_collective(self, k: int, readers) -> None:
        """Publish completion of collective ``k`` (reads included) and
        remember who may hold views into the arena it filled."""
        self._ctl.done[self.rank] = k
        self._rhist.append(tuple(readers))

    def alltoallv(
        self, buckets: Sequence[Optional[np.ndarray]]
    ) -> List[Optional[np.ndarray]]:
        if len(buckets) != self.size:
            raise CommunicationError(
                f"rank {self.rank}: alltoallv needs {self.size} buckets, "
                f"got {len(buckets)}"
            )
        if self.tracer is not None:
            # One descriptor slot per destination: the size-wide cost the
            # pairwise sendrecv specialization avoids (it writes one).
            self.tracer.add("coll.alltoallv")
            self.tracer.add("coll.slots", self.size)
        received = self._exchange(list(buckets))
        received[self.rank] = buckets[self.rank]  # self-bucket: by reference
        return received

    def allgather(self, value: Any) -> List[Any]:
        if self.tracer is not None:
            self.tracer.add("coll.allgather")
        out = self._exchange([value] * self.size, share_payload=True)
        out[self.rank] = value
        return out

    def bcast(self, value: Any, root: int = 0) -> Any:
        if not 0 <= root < self.size:
            raise CommunicationError(f"bcast root {root} outside world")
        if self.tracer is not None:
            self.tracer.add("coll.bcast")
        sends: List[Any] = [None] * self.size
        if self.rank == root:
            sends = [value] * self.size
        out = self._exchange(sends, share_payload=True)
        return value if self.rank == root else out[root]

    def sendrecv(
        self, send: Optional[np.ndarray], dst: int, src: int
    ) -> Optional[np.ndarray]:
        """Pairwise exchange: one descriptor written, one read.

        The arena parity protocol still needs every rank to cross the
        collective barrier together (so ``sendrecv`` remains a matched,
        world-wide step here), but each rank serializes at most one
        payload and touches exactly one descriptor slot each way, instead
        of the fallback's ``size``-wide serialize/scan loops.
        """
        if not (0 <= dst < self.size and 0 <= src < self.size):
            raise CommunicationError(
                f"rank {self.rank}: sendrecv peers ({dst}, {src}) outside "
                f"world of {self.size}"
            )
        me = self.rank
        tr = self.tracer
        with trace_span(tr, "transfer", "sendrecv"):
            if tr is not None:
                tr.add("coll.sendrecv")
                tr.add("coll.slots")
            k = self._begin_collective()
            b = self._parity
            self._parity ^= 1
            ctl = self._ctl
            # Clear my descriptor row (vectorized) so a mismatched pattern
            # reads NONE, never a stale descriptor from two collectives ago.
            ctl.meta[b, me] = (-1, 0, _KIND_NONE, 0)
            wrote = dst != me and send is not None
            if wrote:
                kind, raw, dtcode = self._serialize(send)
                nbytes = len(raw)
                if tr is not None:
                    tr.add("messages")
                    tr.add("bytes_sent", nbytes)
                arena = self._ensure_capacity(b, nbytes)
                arena.buf[:nbytes] = raw
                ctl.meta[b, me, dst] = (nbytes, 0, kind, dtcode)
            with trace_span(tr, "wait", "barrier"):
                self._wait_world()
            self._world_seq = max(self._world_seq, k - 1)
            try:
                if src == me:
                    return None
                nbytes, off, kind, dtcode = (int(x) for x in ctl.meta[b, src, me])
                if kind == _KIND_NONE:
                    return None
                seg = self._peer_arena(src, b)
                raw = seg.buf[off : off + nbytes]
                try:
                    if kind == _KIND_NDARRAY:
                        # Copy out: the sender recycles this arena two
                        # collectives from now (same rule as _exchange).
                        return np.frombuffer(
                            raw, dtype=_decode_dtype(dtcode)
                        ).copy()
                    return pickle.loads(raw)
                finally:
                    raw.release()
            finally:
                self._end_collective(k, (dst,) if wrote else ())

    # -- the double-buffer exchange ------------------------------------

    def _exchange(
        self,
        sends: List[Any],
        share_payload: bool = False,
        group: Optional[Tuple[int, ...]] = None,
    ) -> List[Any]:
        """One collective: deposit ``sends[q]`` for each peer ``q``,
        synchronize, pick up what every peer deposited for this rank.

        ``share_payload=True`` asserts every non-None entry is the same
        object (allgather/bcast), so it is serialized once and every
        descriptor points at the same extent of the arena.

        ``group`` scopes the collective (Lemma 4): only the group's
        descriptor slots are written and scanned, and synchronization is
        the post-counter handshake among the group's members instead of
        the world barrier.  ``None`` is the world-wide collective.
        """
        me, P = self.rank, self.size
        targets = range(P) if group is None else group
        tr = self.tracer
        k = self._begin_collective()
        b = self._parity
        self._parity ^= 1
        ctl = self._ctl

        # Serialize: (kind, buffer, dtype_code) per destination.
        blobs: dict = {}
        shared: Optional[Tuple[int, memoryview, int]] = None
        for q in targets:
            payload = sends[q]
            if q == me or payload is None:
                blobs[q] = (_KIND_NONE, None, 0)
            elif share_payload and shared is not None:
                blobs[q] = shared
            else:
                blob = self._serialize(payload)
                blobs[q] = blob
                if share_payload:
                    shared = blob

        # Lay out the arena; a shared payload occupies one extent.
        offsets: dict = {}
        total = 0
        shared_off: Optional[int] = None
        for q in targets:
            kind, raw, _ = blobs[q]
            if kind == _KIND_NONE:
                continue
            if share_payload and shared_off is not None:
                offsets[q] = shared_off
                continue
            offsets[q] = total
            if share_payload:
                shared_off = total
            total += len(raw)

        arena = self._ensure_capacity(b, total)
        view = arena.buf
        written = set()
        for q in targets:
            kind, raw, dtcode = blobs[q]
            if kind == _KIND_NONE:
                ctl.meta[b, me, q] = (-1, 0, _KIND_NONE, 0)
                continue
            off = offsets[q]
            if off not in written:
                view[off : off + len(raw)] = raw
                written.add(off)
                if tr is not None:
                    tr.add("bytes_sent", len(raw))
            if tr is not None:
                tr.add("messages")
            ctl.meta[b, me, q] = (len(raw), off, kind, dtcode)

        if group is None:
            with trace_span(tr, "wait", "barrier"):
                self._wait_world()
            # Crossing collective ``k``'s barrier proves every rank
            # entered ``k``, i.e. completed ``k - 1``.
            self._world_seq = max(self._world_seq, k - 1)
        else:
            ctl.post[me] = k
            with trace_span(tr, "wait", "group-post"):
                self._spin(ctl.post, group, k, "group descriptor post")

        out: List[Any] = [None] * P
        for p in targets:
            if p == me:
                continue
            nbytes, off, kind, dtcode = (int(x) for x in ctl.meta[b, p, me])
            if kind == _KIND_NONE:
                continue
            seg = self._peer_arena(p, b)
            raw = seg.buf[off : off + nbytes]
            try:
                if kind == _KIND_NDARRAY:
                    # Copy out — required, not habit: the sender recycles
                    # this arena two collectives from now, while the
                    # ``alltoallv``/``allgather`` contract hands the caller
                    # an array it may hold indefinitely (the SPMD sort's
                    # restart path does).  A view would silently change
                    # under the holder at the sender's collective ``k+2``;
                    # ``tests/test_group_fused.py`` pins both halves of
                    # this argument.  The fused path
                    # (:meth:`alltoallv_fused`) avoids the copy instead of
                    # unsafely skipping it: it scatters straight from the
                    # peer window into the caller's buffer while the
                    # parity window is provably open.
                    out[p] = np.frombuffer(raw, dtype=_decode_dtype(dtcode)).copy()
                else:
                    out[p] = pickle.loads(raw)
            finally:
                raw.release()
        self._end_collective(k, tuple(range(P)) if group is None else group)
        return out

    def group_alltoallv(
        self,
        buckets: Sequence[Optional[np.ndarray]],
        group: Sequence[int],
    ) -> List[Optional[np.ndarray]]:
        """Group-scoped ``alltoallv``: descriptor writes/scans and the
        synchronization handshake touch only the group's ``len(group)``
        slots and ranks instead of all ``P`` (Lemma 4)."""
        g = self._check_group(buckets, group)
        tr = self.tracer
        if tr is not None:
            tr.add("coll.group_alltoallv")
            tr.add("coll.group_size", len(g))
            tr.add("coll.slots", len(g))
        received = self._exchange(list(buckets), group=g)
        received[self.rank] = buckets[self.rank]  # self-bucket: by reference
        return received

    def alltoallv_fused(
        self,
        data: np.ndarray,
        plan,
        out: np.ndarray,
        group: Optional[Sequence[int]] = None,
    ) -> None:
        """Zero-copy fused pack/transfer/unpack over the shared arenas.

        Pack is one ``np.take`` straight from ``data`` into this rank's
        send window — no per-destination bucket arrays, no pickling.
        Unpack scatters each arrival straight out of the peer's receive
        window into ``out``'s final slots — no ``frombuffer().copy()``, no
        concatenate.  Every transferred element is copied exactly twice
        end to end (in, out of shared memory), the hardware minimum for a
        cross-address-space move; the window views never outlive the
        collective, which is what the arena parity protocol licenses.

        Falls back to the composed default (bucket arrays over
        :meth:`group_alltoallv`) for payloads the raw-ndarray descriptor
        encoding cannot carry.
        """
        data = np.asarray(data)
        dtcode = _encode_dtype(data.dtype) if data.ndim == 1 else None
        if (
            dtcode is None
            or out.ndim != 1
            or out.dtype != data.dtype
            or not data.flags.c_contiguous
        ):
            return super().alltoallv_fused(data, plan, out, group=group)
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
        members = set(g)
        k = self._begin_collective()
        b = self._parity
        self._parity ^= 1
        ctl = self._ctl
        itemsize = data.dtype.itemsize

        # Fused pack: one gather pass, straight into the send window.
        gather = plan.send_concat_src
        arena = self._ensure_capacity(b, gather.size * itemsize)
        if gather.size:
            window = np.ndarray((gather.size,), dtype=data.dtype, buffer=arena.buf)
            np.take(data, gather, out=window)
            del window
        for q in g:
            ctl.meta[b, me, q] = (-1, 0, _KIND_NONE, 0)
        for q, off, count in plan.send_extents:
            if q not in members or q == me:
                raise CommunicationError(
                    f"rank {me}: fused plan sends to rank {q}, outside its "
                    f"communication group {g}"
                )
            if tr is not None:
                tr.add("messages")
                tr.add("bytes_sent", count * itemsize)
            ctl.meta[b, me, q] = (
                count * itemsize,
                off * itemsize,
                _KIND_NDARRAY,
                dtcode,
            )

        if len(g) == P:
            with trace_span(tr, "wait", "barrier"):
                self._wait_world()
            self._world_seq = max(self._world_seq, k - 1)
        else:
            ctl.post[me] = k
            with trace_span(tr, "wait", "group-post"):
                self._spin(ctl.post, g, k, "group descriptor post")

        # Fused unpack: scatter straight from each peer's receive window
        # into the final slots of ``out``.
        expected = dict(plan.recv_sorted)
        for p in g:
            if p == me:
                continue
            nbytes, off, kind, code = (int(x) for x in ctl.meta[b, p, me])
            slots = expected.pop(p, None)
            if kind == _KIND_NONE:
                if slots is not None:
                    raise CommunicationError(
                        f"rank {me}: expected {slots.size} keys from rank "
                        f"{p}, got none"
                    )
                continue
            if slots is None:
                raise CommunicationError(
                    f"rank {me}: unexpected payload of {nbytes} bytes from "
                    f"rank {p}"
                )
            if (
                kind != _KIND_NDARRAY
                or code != dtcode
                or nbytes != slots.size * itemsize
            ):
                raise CommunicationError(
                    f"rank {me}: rank {p} sent a mismatched fused payload "
                    f"({nbytes} bytes, kind {kind}) where {slots.size} "
                    f"elements of {data.dtype} were expected"
                )
            seg = self._peer_arena(p, b)
            window = np.ndarray(
                (slots.size,), dtype=data.dtype, buffer=seg.buf, offset=off
            )
            out[slots] = window
            del window
        if expected:
            raise CommunicationError(
                f"rank {me}: no payload arrived from rank(s) "
                f"{sorted(expected)}"
            )
        self._end_collective(k, g)

    def _serialize(self, payload: Any) -> Tuple[int, memoryview, int]:
        if isinstance(payload, np.ndarray) and payload.ndim == 1:
            dtcode = _encode_dtype(payload.dtype)
            if dtcode is not None:
                data = np.ascontiguousarray(payload)
                return (_KIND_NDARRAY, data.view(np.uint8).data, dtcode)
        return (_KIND_PICKLE, memoryview(pickle.dumps(payload)), 0)

    def _ensure_capacity(self, parity: int, nbytes: int) -> shared_memory.SharedMemory:
        """My arena of this parity, regrown (next power of two) if the
        collective needs more room than it currently has."""
        me = self.rank
        gen, seg = self._segs[(me, parity)]
        cap = int(self._ctl.cap[me, parity])
        if nbytes <= cap:
            return seg
        new_cap = max(cap, _DEFAULT_ARENA_BYTES)
        while new_cap < nbytes:
            new_cap *= 2
        new_gen = gen + 1
        fresh = shared_memory.SharedMemory(
            create=True,
            name=_arena_name(self._base, me, parity, new_gen),
            size=new_cap,
        )
        # Publish the new generation *before* retiring the old segment so
        # the driver's teardown sweep always finds the live name.
        self._ctl.gen[me, parity] = new_gen
        self._ctl.cap[me, parity] = new_cap
        seg.close()
        with suppress(FileNotFoundError):
            seg.unlink()
        self._segs[(me, parity)] = (new_gen, fresh)
        return fresh

    def _peer_arena(self, p: int, parity: int) -> shared_memory.SharedMemory:
        """Attach (with caching) to peer ``p``'s arena of this parity,
        re-attaching when the peer grew it to a new generation."""
        gen = int(self._ctl.gen[p, parity])
        cached = self._segs.get((p, parity))
        if cached is not None and cached[0] == gen:
            return cached[1]
        if cached is not None:
            with suppress(Exception):
                cached[1].close()
        seg = _attach(_arena_name(self._base, p, parity, gen))
        self._segs[(p, parity)] = (gen, seg)
        return seg

    def _close(self) -> None:
        for _, seg in self._segs.values():
            with suppress(Exception):
                seg.close()
        self._segs.clear()
        ctl_shm = self._ctl.shm
        self._ctl.release()
        self._ctl = None
        with suppress(Exception):
            ctl_shm.close()


# -- the world driver ----------------------------------------------------


def _put(result_q, rank: int, job: int, ok: bool, payload: Any) -> None:
    """Ship ``(rank, job, ok, payload)`` to the parent, pre-pickled so
    that a pickling failure surfaces *here* (``mp.Queue`` serializes in a
    feeder thread, where an error would silently strand the parent)."""
    try:
        blob = pickle.dumps((rank, job, ok, payload))
    except Exception as exc:  # noqa: BLE001 — degrade to a description
        blob = pickle.dumps(
            (
                rank,
                job,
                False,
                CommunicationError(
                    f"rank {rank} produced an unpicklable "
                    f"{'result' if ok else 'error'} "
                    f"({type(payload).__name__}): {exc}"
                ),
            )
        )
    result_q.put(blob)


def _run_one(comm, fn, args, job: int, barrier, result_q) -> bool:
    """Run one job on this rank; report to the parent.  Returns whether
    the rank may accept further jobs (a failure breaks the world barrier,
    which is unrecoverable — collective numbering across ranks diverges —
    so the rank retires)."""
    try:
        result = fn(comm) if args is None else fn(comm, *args)
    except BaseException as exc:  # noqa: BLE001 — re-raised in the parent
        barrier.abort()  # unblock peers before reporting
        _put(result_q, comm.rank, job, False, exc)
        return False
    comm.tracer = None  # jobs arm their own tracer; never leak across jobs
    _put(result_q, comm.rank, job, True, result)
    return True


def _worker_loop(
    rank: int,
    size: int,
    base: str,
    barrier,
    job_conn,
    result_q,
    first_job,
    spin_budget: Optional[int] = None,
) -> None:
    """Resident rank process: one ProcComm (arenas, collective counters)
    for the world's lifetime, jobs arriving over ``job_conn``.

    ``first_job`` rides along at fork so one-shot callers
    (:func:`run_spmd_procs`) keep closure support — anything sent through
    the pipe later must be picklable.
    """
    comm = ProcComm(rank, size, base, barrier, spin_budget=spin_budget)
    try:
        if first_job is not None and not _run_one(
            comm, first_job, None, 1, barrier, result_q
        ):
            return
        while True:
            try:
                msg = job_conn.recv()
            except (EOFError, OSError):
                return  # parent went away: retire quietly
            if msg is None:
                return  # orderly close()
            job, fn, args = msg
            if not _run_one(comm, fn, args, job, barrier, result_q):
                return
    finally:
        with suppress(Exception):
            comm._close()
        with suppress(Exception):
            job_conn.close()


def _sweep_segments(ctl_shm: shared_memory.SharedMemory, base: str, size: int) -> None:
    """Unlink every arena generation the control block knows about (plus
    one ahead, in case a rank died between creating a generation and
    publishing it), then the control segment itself."""
    gens = []
    ctl = _ControlBlock(ctl_shm, size)
    for r in range(size):
        for b in (0, 1):
            gens.append((r, b, int(ctl.gen[r, b])))
    ctl.release()
    for r, b, gen in gens:
        for g in (gen, gen + 1):
            with suppress(Exception):
                stale = shared_memory.SharedMemory(name=_arena_name(base, r, b, g))
                stale.close()
                stale.unlink()
    with suppress(Exception):
        ctl_shm.close()
    with suppress(Exception):
        ctl_shm.unlink()


#: Worlds this process spawned and has not yet closed, swept at
#: interpreter exit so a crashed or careless run cannot strand /dev/shm
#: segments (or resident rank processes).  Keyed by ``id(world)``; the
#: creating pid rides along so a forked child inheriting the registry
#: never closes its parent's worlds (rank processes exit via
#: ``os._exit`` and run no atexit hooks, but user-forked helpers do).
_LIVE: Dict[int, Tuple[int, "ProcWorld"]] = {}


def _sweep_leaked_worlds() -> None:
    me = os.getpid()
    for pid, world in list(_LIVE.values()):
        if pid != me:
            continue
        with suppress(Exception):
            world.close(join_timeout=0.2)
    # Same hygiene for the out-of-core tier: spill directories whose
    # owning process is gone are dead weight on the same host, so the
    # shm sweep reclaims them too (deferred import — the sweep must
    # never be the thing that fails interpreter exit).
    with suppress(Exception):
        from repro.extsort import sweep_orphaned_spill_dirs

        sweep_orphaned_spill_dirs()


atexit.register(_sweep_leaked_worlds)


class ProcWorld(World):
    """A persistent multi-process SPMD world.

    ``size`` rank processes are forked once; each builds its
    :class:`ProcComm` (attaching the shared-memory arenas) and then loops
    on a job pipe.  :meth:`run` ships ``(fn, args)`` to every rank and
    collects results, so repeated sorts pay the fork + arena cost once.
    Arena state (generations, collective counters) carries across jobs —
    safe because every rank executes the same job sequence and the parent
    collects all of job *k* before dispatching *k + 1*.

    A job failure breaks the world barrier, which is unrecoverable (the
    surviving ranks' collective numbering has diverged): the world goes
    dead and :meth:`run` refuses further work.  Pools replace dead worlds
    (:mod:`repro.service.pool`).
    """

    backend = "procs"

    def __init__(
        self,
        size: int,
        arena_bytes: int = _DEFAULT_ARENA_BYTES,
        spin_budget: Optional[int] = None,
        _first_job: Optional[Callable[[Comm], Any]] = None,
    ):
        if size < 1:
            raise ConfigurationError(f"need at least 1 rank, got {size}")
        if arena_bytes < 1:
            raise ConfigurationError(
                f"arena_bytes must be positive, got {arena_bytes}"
            )
        if spin_budget is not None and spin_budget < 0:
            raise ConfigurationError(
                f"spin_budget must be non-negative, got {spin_budget}"
            )
        self.size = size
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        self._base = f"rspmd{os.getpid():x}{secrets.token_hex(4)}"
        self._barrier = ctx.Barrier(size)
        self._result_q = ctx.Queue()
        #: Jobs dispatched so far; the preloaded first job is number 1.
        self._job = 1 if _first_job is not None else 0
        self._dead = False
        self._closed = False

        self._ctl_shm = shared_memory.SharedMemory(
            create=True, name=f"{self._base}-ctl", size=_ControlBlock.nbytes(size)
        )
        self._procs: List[Any] = []
        self._conns: List[Any] = []
        try:
            ctl = _ControlBlock(self._ctl_shm, size)
            ctl.gen[:] = 0
            ctl.cap[:] = arena_bytes
            ctl.post[:] = 0
            ctl.done[:] = 0
            ctl.meta[:] = 0
            ctl.release()
            for r in range(size):
                for b in (0, 1):
                    seg = shared_memory.SharedMemory(
                        create=True,
                        name=_arena_name(self._base, r, b, 0),
                        size=arena_bytes,
                    )
                    seg.close()
            child_ends = []
            for r in range(size):
                recv_end, send_end = ctx.Pipe(duplex=False)
                child_ends.append(recv_end)
                self._conns.append(send_end)
            self._procs = [
                # daemon=True: a wedged rank must never outlive the caller.
                ctx.Process(
                    target=_worker_loop,
                    args=(
                        r,
                        size,
                        self._base,
                        self._barrier,
                        child_ends[r],
                        self._result_q,
                        _first_job,
                        spin_budget,
                    ),
                    name=f"spmd-rank-{r}",
                    daemon=True,
                )
                for r in range(size)
            ]
            for p in self._procs:
                p.start()
            for end in child_ends:
                end.close()  # parent keeps only the send ends
        except BaseException:
            self._closed = True  # nothing dispatched; just reclaim
            for p in self._procs:
                with suppress(Exception):
                    p.terminate()
            with suppress(Exception):
                self._result_q.close()
            _sweep_segments(self._ctl_shm, self._base, size)
            raise
        _LIVE[id(self)] = (os.getpid(), self)

    # -- lifecycle -----------------------------------------------------

    def healthy(self) -> bool:
        return (
            not self._dead
            and not self._closed
            and all(p.is_alive() for p in self._procs)
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
                "SPMD world is dead (a rank died or a previous job "
                "failed); spawn a replacement world"
            )
        if rank_args is not None and len(rank_args) != self.size:
            raise ConfigurationError(
                f"rank_args needs one entry per rank "
                f"({self.size}), got {len(rank_args)}"
            )
        # Pre-flight the job callable alone: an unpicklable fn fails
        # *before* anything is dispatched, leaving the world healthy
        # (a partial dispatch would desynchronize the ranks for good).
        try:
            pickle.dumps(fn)
        except Exception as exc:
            raise ConfigurationError(
                f"procs world jobs must be picklable to travel the job "
                f"pipe ({type(fn).__name__}: {exc}); use a module-level "
                f"function, or run_spmd_procs for one-shot closures"
            ) from exc
        self._job += 1
        job = self._job
        try:
            for r, conn in enumerate(self._conns):
                args = None if rank_args is None else tuple(rank_args[r])
                conn.send((job, fn, args))
        except Exception as exc:
            self._dead = True  # partial dispatch: ranks out of step
            raise CommunicationError(
                f"could not ship job to the procs world: {exc}"
            ) from exc
        return self._collect(job, timeout)

    def _collect(self, job: int, timeout: float) -> List[Any]:
        size, procs = self.size, self._procs
        deadline = time.monotonic() + timeout
        results: List[Any] = [None] * size
        failures: List[BaseException] = []
        reported = [False] * size
        # The parent blocks on the queue's read pipe *and* every
        # unreported rank's process sentinel, bounded by the job
        # deadline — it wakes exactly when there is something to do (a
        # result arrived or a rank died), never on a polling interval.
        reader = getattr(self._result_q, "_reader", None)
        while not all(reported):
            progressed = False
            while True:  # drain everything already in the pipe
                try:
                    rank, got, ok, payload = pickle.loads(
                        self._result_q.get_nowait()
                    )
                except queue_mod.Empty:
                    break
                if got != job:
                    continue  # stale report from an abandoned job
                progressed = True
                reported[rank] = True
                if ok:
                    results[rank] = payload
                else:
                    failures.append(payload)
            if all(reported):
                break
            for r, p in enumerate(procs):
                if not reported[r] and not p.is_alive() and p.exitcode:
                    # Died without reporting (hard kill / segfault):
                    # break the barrier so the survivors can exit too.
                    progressed = True
                    reported[r] = True
                    failures.append(
                        CommunicationError(
                            f"SPMD rank {r} died with exit code "
                            f"{p.exitcode} before reporting a result"
                        )
                    )
                    self._barrier.abort()
            if progressed:
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._dead = True
                self._barrier.abort()
                for p in procs:
                    if p.is_alive():
                        p.terminate()
                raise SpmdTimeoutError(
                    f"SPMD world did not finish within its {timeout}s "
                    "budget (deadlock or runaway work)",
                    phase="run_spmd",
                )
            if reader is not None:
                # Sentinels of unreported ranks, except clean exits: a
                # clean-exit rank's result is already in (or about to
                # enter) the pipe, and its closed sentinel must not turn
                # this wait into a hot spin while the feeder flushes.
                # Hard deaths stay in the set even when already dead —
                # a rank dying between the liveness check above and this
                # wait would otherwise wake nothing until the deadline.
                sentinels = [
                    p.sentinel
                    for r, p in enumerate(procs)
                    if not reported[r] and (p.is_alive() or p.exitcode)
                ]
                _sentinel_wait([reader] + sentinels, timeout=remaining)
            else:  # pragma: no cover — Queue without a read pipe handle
                with suppress(queue_mod.Empty):
                    rank, got, ok, payload = pickle.loads(
                        self._result_q.get(timeout=min(remaining, 0.25))
                    )
                    if got == job:
                        reported[rank] = True
                        if ok:
                            results[rank] = payload
                        else:
                            failures.append(payload)
        if failures:
            self._dead = True
            # Prefer the root cause over peers' collapsed-barrier echoes
            # (stable sort: original arrival order breaks ties).
            failures.sort(key=lambda e: type(e) is CommunicationError)
            raise failures[0]
        return results

    def close(self, join_timeout: float = 1.0) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            with suppress(Exception):
                conn.send(None)  # orderly retirement
            with suppress(Exception):
                conn.close()
        deadline = time.monotonic() + join_timeout
        for p in self._procs:
            with suppress(Exception):
                p.join(timeout=max(0.0, deadline - time.monotonic()))
            if p.is_alive():
                p.terminate()
        for p in self._procs:
            if p.exitcode is None:
                with suppress(Exception):
                    p.join(timeout=0.5)
        with suppress(Exception):
            self._result_q.close()
        _sweep_segments(self._ctl_shm, self._base, self.size)
        _LIVE.pop(id(self), None)


def run_spmd_procs(
    size: int,
    fn: Callable[[Comm], Any],
    timeout: float = 120.0,
    arena_bytes: int = _DEFAULT_ARENA_BYTES,
    spin_budget: Optional[int] = None,
) -> List[Any]:
    """Run ``fn(comm)`` on ``size`` ranks, one OS process each; return the
    per-rank results, indexed by rank.

    Mirrors :func:`repro.runtime.threads.run_spmd`: one wall-clock deadline
    for the whole world, the first rank failure re-raised in the caller,
    and a broken barrier unblocking the survivors.  ``arena_bytes`` sizes
    the initial shared-memory arenas (they grow on demand);
    ``spin_budget`` bounds busy-spinning in the counter-handshake waits
    (default: from the host's core count).

    Prefers the ``fork`` start method so ``fn`` may be any closure (it
    rides along at fork rather than through the job pipe); under ``spawn``
    (platforms without fork) ``fn`` must be picklable.
    """
    world = ProcWorld(
        size, arena_bytes=arena_bytes, spin_budget=spin_budget, _first_job=fn
    )
    try:
        return world._collect(1, timeout)
    finally:
        world.close()
