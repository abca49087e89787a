"""Algorithm 1 as a genuine SPMD message-passing program.

This is how a user would implement the paper's sort on a real machine: each
rank owns its ``n`` keys, derives the smart remap schedule from ``(N, P)``
(pure index algebra — every rank computes the same schedule, no
coordination needed), and alternates merge-based local phases with
``alltoallv`` exchanges.  Each remap runs as the paper's pack and unpack
masks (§3.3.1): the old and new partitions are reshaped to one axis per
bit field, each message is a strided view picked by the pack mask, and
each arrival lands through the unpack mask
(:func:`~repro.remap.masks.remap_masks`).  No index vector is built.

It deliberately shares *no execution machinery* with the simulator version
(:class:`~repro.sorts.smart.SmartBitonicSort`): no ``Machine``, no
``perform_remap``, no ``RemapPlan`` — only the layout algebra and a
:class:`~repro.runtime.api.Comm`.  Each local phase does only the work
the network still needs there (the paper's Chapter 4 argument), on the
fastest kernels this host has: each phase's output shape is known
(Lemma 6, Theorems 2/3), so the initial, inside and crossing phases
``np.sort`` the right slices in the right direction, landing exactly the
keys the bitonic merges would, and the last phase runs its ``s``
remaining network steps — as compare-exchanges on strided views while
``s <= LAST_PHASE_STEPS``, and as a sort of each ``2**s``-key run above
it.  The tests cross-check the two implementations element for element,
and run this one concurrently on the threads backend where real races
would surface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.errors import CommunicationError

if TYPE_CHECKING:  # pragma: no cover — avoid a runtime->faults import cycle
    from repro.faults.checkpoint import CheckpointStore
from repro.layouts.base import BitFieldLayout
from repro.layouts.schedule import smart_schedule
from repro.layouts.smart import SmartParams, smart_params
from repro.remap.masks import RemapMasks, remap_masks
from repro.runtime.api import Comm
from repro.trace.recorder import trace_span
from repro.utils.bits import bit_of, ilog2

__all__ = ["spmd_bitonic_sort"]

#: The largest ``s`` at which the last phase runs its ``s`` network
#: steps as compare-exchanges; above it, sorting each ``2**s``-key run
#: is cheaper (docs/PERFORMANCE.md, the last-phase kernel table).
LAST_PHASE_STEPS = 2


def spmd_bitonic_sort(
    comm: Comm,
    local_keys: np.ndarray,
    checkpoint: Optional["CheckpointStore"] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sort the distributed array whose rank-``r`` partition is
    ``local_keys``, returning this rank's partition of the globally sorted
    (blocked) result.

    Every rank must hold the same power-of-two number of integer keys.
    ``out``, when given, is the whole result array, ``P * n`` keys of the
    input's dtype, shared by every rank: the last remap writes rank
    ``r``'s partition straight into ``out[r*n:(r+1)*n]`` and the last
    phase finishes it there, so the returned partition is a view of
    ``out`` and nobody concatenates.

    With a :class:`~repro.faults.checkpoint.CheckpointStore` the rank
    snapshots its shard after the initial local sort (stage 0) and after
    every remap phase (stage *i*); if the store already holds snapshots —
    this run is a restart after a crash — all ranks agree on the newest
    stage everyone completed and resume from it instead of re-sorting.
    Fault-aware communicators (:class:`~repro.faults.transport.ReliableComm`)
    are phase-labelled via their ``set_phase`` hook so errors and injected
    faults can name the sort phase they hit.

    Every remap is one world-wide ``alltoallv``, with pack and unpack
    fused into it (§4.3): each rank deposits the pack mask's strided
    views of its partition, and each receiver writes every key once,
    into its final slot, inside ``transfer``.  ``pack`` only moves the
    kept block, and there is no separate unpack pass.  No rank mutates
    an array it has deposited.

    When ``comm.tracer`` carries a :class:`~repro.trace.recorder.Tracer`,
    the sort records its phase spans (``local_sort`` and per-remap
    ``address`` / ``pack`` / ``transfer`` / ``merge``) plus a ``remaps``
    counter; the communicator's own ``wait`` spans nest inside.  With no
    tracer the instrumentation is a zero-allocation no-op.
    """
    data = np.asarray(local_keys)  # every path below sorts into a copy
    P, r = comm.size, comm.rank
    n = data.size
    set_phase = getattr(comm, "set_phase", None)
    # With no tracer armed every trace_span below is one shared no-op
    # context — the hot path allocates nothing (tests pin this).
    tracer = getattr(comm, "tracer", None)

    # Agree on the problem shape (and catch ragged partitions early).
    sizes = comm.allgather(n)
    if len(set(sizes)) != 1:
        raise CommunicationError(
            f"ranks hold unequal partitions: {sizes} — the bitonic network "
            "needs the same n everywhere"
        )
    part = None if out is None else out[r * n:(r + 1) * n]
    if P == 1:
        with trace_span(tracer, "local_sort"):
            if part is None:
                return np.sort(data)
            part[...] = data  # np.sort's own copy, into the result
            part.sort()
            return part
    N = n * P
    schedule = smart_schedule(N, P)  # same on every rank: pure algebra
    lgn = ilog2(n)

    # Restart support: resume from the newest stage every rank completed
    # (stage 0 = after the initial local sort, stage i = after phase i).
    resume = -1
    if checkpoint is not None:
        resume = min(comm.allgather(checkpoint.latest_stage(r)))

    if set_phase is not None:
        set_phase("local-sort", 0)
    if resume >= 0:
        restored = checkpoint.load(r, resume)
        if restored is None:
            raise CommunicationError(
                f"rank {r}: checkpoint for agreed resume stage {resume} "
                "is missing (store pruned too aggressively?)"
            )
        data = restored
    else:
        # First lg n stages: one local sort, alternating direction (Lemma 6).
        with trace_span(tracer, "local_sort"):
            data = np.sort(data)
            if r % 2:
                data = data[::-1]  # a reversed view; the remap reads it as is
        if checkpoint is not None:
            checkpoint.save(r, 0, data)

    layout = (
        schedule.initial_layout if resume < 1
        else schedule.phases[resume - 1].layout
    )
    for stage, phase in enumerate(schedule.phases, start=1):
        if stage <= resume:
            continue  # completed before the crash; restored above
        if set_phase is not None:
            set_phase(f"phase-{stage}", stage)
        if tracer is not None:
            tracer.add("remaps")
        with trace_span(tracer, "address", stage):
            masks = remap_masks(layout, phase.layout, r)
        with trace_span(tracer, "pack", stage):
            src = data.reshape(masks.src_dims)
            if part is not None and stage == len(schedule.phases):
                fresh = part  # the last remap lands in the result array
            else:
                fresh = np.empty(n, dtype=data.dtype)
            dst = fresh.reshape(masks.dst_dims)
            if masks.keep is not None:
                keep_src, keep_dst = masks.keep
                dst[keep_dst] = src[keep_src].transpose(masks.perm)
            # §4.3: the strided view itself travels and the receiver
            # writes each key once, into its final slot.
            buckets: List[Optional[np.ndarray]] = [None] * P
            for q, idx in masks.send:
                buckets[q] = src[idx]
        with trace_span(tracer, "transfer", stage):
            received = comm.alltoallv(buckets)
            _unpack(dst, masks, received, r)
        # Drop the old partition and the peers' views before the merge.
        del src, buckets, received
        data = fresh
        layout = phase.layout
        # Local computation (Theorems 2/3).
        with trace_span(tracer, "merge", stage):
            params = smart_params(N, P, *phase.columns[0])
            data = _merge_phase(data, layout, params, lgn, r)
        if checkpoint is not None:
            checkpoint.save(r, stage, data)
    if part is not None and resume == len(schedule.phases):
        part[...] = data  # every phase was restored from a checkpoint
        data = part
    return data


def _unpack(
    dst: np.ndarray,
    masks: RemapMasks,
    received: Sequence[Optional[np.ndarray]],
    rank: int,
) -> None:
    """Place every arrival through the unpack mask; exactly the mask's
    senders must have sent, each one message of its shape."""
    senders = dict(masks.recv)
    for p, payload in enumerate(received):
        if p != rank and payload is not None and p not in senders:
            raise CommunicationError(
                f"rank {rank}: unexpected payload of "
                f"{np.size(payload)} keys from rank {p}"
            )
    for p, idx in masks.recv:
        payload = received[p]
        if payload is None or np.shape(payload) != masks.msg_shape:
            raise CommunicationError(
                f"rank {rank}: expected a message of shape "
                f"{masks.msg_shape} from rank {p}, got "
                f"{None if payload is None else np.shape(payload)}"
            )
        dst[idx] = payload.transpose(masks.perm)


def _merge_phase(
    data: np.ndarray,
    layout: BitFieldLayout,
    params: SmartParams,
    lgn: int,
    rank: int,
) -> np.ndarray:
    """One rank's merge-based phase (Theorems 2/3), in place.

    The simulator's :meth:`~repro.sorts.smart.SmartBitonicSort._merge_local`
    runs the same phase as bitonic merges; each merge sorts a bitonic
    sequence, so a sort of the same slice in the same direction yields the
    same keys.  ``data`` is the partition the remap just built, so it is
    sorted in place; a descending result is a reversed view of it.
    """
    if params.is_last:
        # Final blocked phase: n / 2**s ascending bitonic runs of 2**s
        # keys (the last stage's direction bit is always 0), each one
        # merge of s network steps away from sorted.
        if params.s > LAST_PHASE_STEPS:
            data.reshape(-1, 1 << params.s).sort(axis=1)
            return data
        for step in reversed(range(params.s)):
            # Compare-exchange i with i + d in every block of 2d keys:
            # d pairs of 1-D views, each strided by 2d.
            d = 1 << step
            for i in range(d):
                lo, hi = data[i::2 * d], data[i + d::2 * d]
                low = np.minimum(lo, hi)
                np.maximum(lo, hi, out=hi)
                lo[...] = low
        return data
    stage = lgn + params.k
    base_abs = int(layout.to_absolute(rank, 0))
    if not params.is_crossing:
        # Inside phase: one bitonic sequence, fully sorted in the stage's
        # direction, which is fixed across the processor (Theorem 2).
        data.sort()
        return data[::-1] if bit_of(base_abs, stage) else data
    # Crossing phase (Theorem 3): rows finish stage lg n + k, columns open
    # stage lg n + k + 1.  A row's direction is the stage's direction bit,
    # the top bit of the row index, so the upper half of the rows descends.
    m = data.reshape(1 << params.b, 1 << params.a)
    m.sort(axis=1)
    half = 1 << (params.b - 1)
    m[half:] = m[half:, ::-1]
    # The column direction is bit lg n + k + 1 of the absolute address,
    # fixed across the processor (it lives in the A field).  Sorting the
    # row-reversed view ascending leaves the columns descending in place.
    (m[::-1] if bit_of(base_abs, stage + 1) else m).sort(axis=0)
    return data
