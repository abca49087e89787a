"""Pack and unpack masks (§3.3.1, Figures 3.18–3.21).

The *pack mask* marks, in the source layout's local address, the bits that
become part of the processor number under the destination layout — the
"shaded" positions of Figure 3.18.  The values of those bits give the
destination processor's offset within its communication group (Lemma 4);
the remaining ("unshaded") bits enumerate the element's position inside the
long message.  The *unpack mask* is the same construction with the two
layouts' roles exchanged: the destination layout's local bits that were
processor bits at the source, whose values identify the sender and whose
complement places each received element (Figure 3.19).

:func:`remap_masks` executes both as strided views (§3.3.1's address
translation): the message for ``q`` is ``data.reshape(src_dims)[send[q]]``,
and the one from ``p`` lands by ``fresh.reshape(dst_dims)[recv[p]] =
payload.transpose(perm)``.  No O(n) index vector is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.layouts.base import LOCAL, PROC, BitFieldLayout
from repro.errors import LayoutError
from repro.utils.bits import mask

__all__ = [
    "changed_local_bits",
    "pack_mask",
    "unpack_mask",
    "RemapMasks",
    "remap_masks",
]

#: An index into a layout's local address reshaped to its bit-field axes:
#: an integer on each masked (shaded) field, a full slice elsewhere.
Index = Tuple[object, ...]


def _check_pair(old: BitFieldLayout, new: BitFieldLayout) -> None:
    if (old.N, old.P) != (new.N, new.P):
        raise LayoutError(
            f"layouts describe different machines: "
            f"({old.N},{old.P}) vs ({new.N},{new.P})"
        )


def changed_local_bits(old: BitFieldLayout, new: BitFieldLayout) -> Tuple[int, ...]:
    """Positions (in ``old``'s local address, LSB = 0) whose absolute-address
    bits move into the processor part under ``new`` — the shaded positions
    of the pack mask.  Its length is the remap's ``N_BitsChanged``."""
    _check_pair(old, new)
    moved = old.local_source_bits & new.proc_source_bits
    return tuple(sorted(old.local_bit_of_abs_bit(b) for b in moved))


def pack_mask(old: BitFieldLayout, new: BitFieldLayout) -> str:
    """The pack mask as a string over ``old``'s local address, MSB first:
    ``S`` for a shaded (destination-offset) bit, ``.`` for an unshaded
    (message-position) bit — Figure 3.18."""
    shaded = set(changed_local_bits(old, new))
    return "".join(
        "S" if b in shaded else "." for b in range(old.lgn - 1, -1, -1)
    )


def unpack_mask(old: BitFieldLayout, new: BitFieldLayout) -> str:
    """The unpack mask over ``new``'s local address, MSB first: ``S`` for a
    bit whose absolute-address bit was a processor bit under ``old`` (it
    identifies the sender), ``.`` otherwise — Figure 3.19."""
    return pack_mask(new, old)


@dataclass(frozen=True)
class RemapMasks:
    """One rank's pack and unpack masks, as indices into strided views.

    Each local address is reshaped to one axis per field (a maximal run of
    absolute bits whose position advances together under both layouts),
    most significant first: ``src_dims`` under the old layout, ``dst_dims``
    under the new.  An index holds an integer on each masked axis and a
    full slice elsewhere.  ``send`` and ``recv`` pair each peer, ascending,
    with its index into the source or destination view; ``keep`` pairs the
    two indices of the block that stays (``None`` if every key leaves).
    Every message has ``msg_shape``: the axes local under both layouts, in
    source order, which ``perm`` transposes into destination order.
    """

    src_dims: Tuple[int, ...]
    dst_dims: Tuple[int, ...]
    perm: Tuple[int, ...]
    msg_shape: Tuple[int, ...]
    send: Tuple[Tuple[int, Index], ...]
    recv: Tuple[Tuple[int, Index], ...]
    keep: Optional[Tuple[Index, Index]]


class _Run(NamedTuple):
    """A field: its part and lowest position under each layout."""

    old_part: str
    old_lo: int
    new_part: str
    new_lo: int
    width: int


def _field_runs(old: BitFieldLayout, new: BitFieldLayout) -> List[_Run]:
    """The runs covering the absolute address, LSB first."""

    def where(layout: BitFieldLayout, b: int) -> Tuple[str, int]:
        pos = layout.local_bit_of_abs_bit(b)
        if pos is not None:
            return LOCAL, pos
        return PROC, layout.proc_bit_of_abs_bit(b)

    runs: List[_Run] = []
    for b in range(old.lgN):
        (op, opos), (np_, npos) = where(old, b), where(new, b)
        if runs:
            last = runs[-1]
            if (last.old_part, last.new_part) == (op, np_) and (
                last.old_lo + last.width, last.new_lo + last.width
            ) == (opos, npos):
                runs[-1] = last._replace(width=last.width + 1)
                continue
        runs.append(_Run(op, opos, np_, npos, 1))
    return runs


def _peer_views(
    axes: List[_Run],
    masked: List[_Run],
    peer_lo: Callable[[_Run], int],
    fixed: int,
    rank: int,
) -> Tuple[Tuple[Tuple[int, Index], ...], Optional[Index]]:
    """Each peer's index (ascending) and this rank's own: one per value of
    the masked fields, each value also placed at ``peer_lo`` in ``fixed``
    to give the peer's number."""
    peers: List[Tuple[int, Index]] = []
    own: Optional[Index] = None
    for combo in range(1 << sum(r.width for r in masked)):
        value_of, peer, shift = {}, fixed, 0
        for r in masked:
            value_of[r] = (combo >> shift) & mask(r.width)
            peer |= value_of[r] << peer_lo(r)
            shift += r.width
        idx = tuple(value_of.get(r, slice(None)) for r in axes) + (...,)
        if peer == rank:
            own = idx
        else:
            peers.append((peer, idx))
    return tuple(sorted(peers, key=lambda e: e[0])), own


@lru_cache(maxsize=1024)
def remap_masks(
    old: BitFieldLayout, new: BitFieldLayout, rank: int
) -> RemapMasks:
    """The executable pack/unpack masks of ``rank`` across ``old -> new``.

    Pure bit algebra over O(lg N) fields, memoized per ``(old, new,
    rank)``; layouts hash by value.  The placement it describes is exactly
    :func:`~repro.remap.plan.build_remap_plan`'s.
    """
    _check_pair(old, new)
    if not 0 <= rank < old.P:
        raise LayoutError(f"rank {rank} out of range [0, {old.P})")
    runs = _field_runs(old, new)
    # Each local address as one axis per run, most significant first.
    src = sorted(
        (r for r in runs if r.old_part == LOCAL), key=lambda r: -r.old_lo
    )
    dst = sorted(
        (r for r in runs if r.new_part == LOCAL), key=lambda r: -r.new_lo
    )
    msg = [r for r in src if r.new_part == LOCAL]
    # Processor bits under both layouts pin the peer's bits to ours.
    pinned = [r for r in runs if r.old_part == r.new_part == PROC]
    # Pack mask: the shaded fields of the old local address pick the
    # destination; each message is the slice over the unshaded ones.
    send, keep_src = _peer_views(
        src,
        [r for r in src if r.new_part == PROC],
        lambda r: r.new_lo,
        sum(((rank >> r.old_lo) & mask(r.width)) << r.new_lo for r in pinned),
        rank,
    )
    # Unpack mask: the destination's fields that were processor bits name
    # the sender; its message fills the slice over the rest.
    recv, keep_dst = _peer_views(
        dst,
        [r for r in dst if r.old_part == PROC],
        lambda r: r.old_lo,
        sum(((rank >> r.new_lo) & mask(r.width)) << r.old_lo for r in pinned),
        rank,
    )
    return RemapMasks(
        src_dims=tuple(1 << r.width for r in src),
        dst_dims=tuple(1 << r.width for r in dst),
        perm=tuple(msg.index(r) for r in dst if r.old_part == LOCAL),
        msg_shape=tuple(1 << r.width for r in msg),
        send=send,
        recv=recv,
        keep=None if keep_src is None else (keep_src, keep_dst),
    )
