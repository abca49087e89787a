"""Communication groups of a remap (Lemma 4).

A remap ``old -> new`` never shuffles data across the whole machine: an
element on processor ``r`` can only land on processors whose number agrees
with ``r`` on every bit that *stays* a processor bit across the remap.
The free bits are exactly the ``N_BitsChanged`` positions fed by bits that
cross between the local and processor parts, so the machine partitions
into groups of ``2**N_BitsChanged`` processors that exchange data only
among themselves — Lemma 4.

This module derives that partition from the layout algebra alone (no
per-element work): :func:`destination_procs` enumerates, in
``O(2**N_BitsChanged)`` integer operations, the processors rank ``r`` can
send to, and :func:`remap_group_partition` closes the send relation into
the group partition with a union-find over the ``P`` ranks.  Every rank
computes the same partition independently — pure index algebra, no
coordination.  The SPMD runtime does not scope its exchanges by it: there
every remap is one world-wide ``alltoallv``, because a group-scoped
exchange never won by more than ~1.05x (docs/PERFORMANCE.md).

Partitions are memoized per layout pair (layouts hash by value), so the
cost is paid once per ``(N, P, schedule phase)`` shape for the life of the
process, exactly like :mod:`repro.remap.cache` does for plans.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, List, Tuple

from repro.errors import LayoutError
from repro.layouts.base import BitFieldLayout

__all__ = ["destination_procs", "remap_group_partition", "remap_group"]


def _check_pair(old: BitFieldLayout, new: BitFieldLayout) -> None:
    if (old.N, old.P) != (new.N, new.P):
        raise LayoutError(
            f"layouts describe different machines: "
            f"({old.N},{old.P}) vs ({new.N},{new.P})"
        )


def destination_procs(
    old: BitFieldLayout, new: BitFieldLayout, rank: int
) -> FrozenSet[int]:
    """Processor numbers rank ``rank`` can send to across ``old -> new``.

    Each destination's processor number takes its bits from the absolute
    address: bits that are processor bits under *both* layouts are pinned
    by ``rank``; bits arriving from ``old``'s local part are free and
    enumerate the ``2**N_BitsChanged`` members of the destination span.
    """
    _check_pair(old, new)
    if not 0 <= rank < old.P:
        raise LayoutError(f"rank {rank} out of range [0, {old.P})")
    fixed = 0
    free_positions: List[int] = []
    for b in new.proc_source_bits:
        j = new.proc_bit_of_abs_bit(b)
        i = old.proc_bit_of_abs_bit(b)
        if i is not None:
            fixed |= ((rank >> i) & 1) << j
        else:
            free_positions.append(j)
    dests = set()
    for combo in range(1 << len(free_positions)):
        d = fixed
        for t, j in enumerate(free_positions):
            d |= ((combo >> t) & 1) << j
        dests.add(d)
    return frozenset(dests)


@lru_cache(maxsize=512)
def remap_group_partition(
    old: BitFieldLayout, new: BitFieldLayout
) -> Tuple[Tuple[int, ...], ...]:
    """The communication-group partition of ``old -> new``: disjoint,
    sorted tuples of ranks covering ``0 .. P-1``, where data moves only
    within a tuple.

    The closure of the send relation (union-find over send edges; receive
    edges are the same relation seen from the other side, so they add
    nothing).  For the paper's bit-field remaps every group has exactly
    ``2**N_BitsChanged`` members (Lemma 4); the construction itself does
    not assume that — it is checked by the tests, not imposed here.
    """
    _check_pair(old, new)
    P = old.P
    parent = list(range(P))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in range(P):
        root_r = find(r)
        for d in destination_procs(old, new, r):
            root_d = find(d)
            if root_d != root_r:
                parent[root_d] = root_r
    groups = {}
    for r in range(P):
        groups.setdefault(find(r), []).append(r)
    return tuple(tuple(g) for g in sorted(groups.values()))


def remap_group(
    old: BitFieldLayout, new: BitFieldLayout, rank: int
) -> Tuple[int, ...]:
    """The communication group containing ``rank`` — the only ranks it
    exchanges data with (in either direction) across ``old -> new``."""
    for group in remap_group_partition(old, new):
        if rank in group:
            return group
    raise LayoutError(f"rank {rank} out of range [0, {old.P})")
