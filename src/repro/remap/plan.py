"""Concrete remap plans: vectorized gather/scatter index sets.

A :class:`RemapPlan` spells out the pack/unpack masks for one processor and
one layout pair as O(n) index vectors for the simulator: which local slots
stay (and where they land), and, per destination, which slots are gathered
into the outgoing long message and where the incoming message scatters.
(The SPMD runtime places every key in the same slot through
:func:`~repro.remap.masks.remap_masks`' strided views instead.)

Message element order is *destination-local-address order*, so that the
receiver's scatter indices are simply the sorted destination local addresses
of the elements arriving from a given sender — derivable on either side from
the layout algebra alone, exactly as the mask construction of §3.3.1
promises (no per-element headers travel with the data).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

import numpy as np

from repro.errors import LayoutError
from repro.layouts.base import BitFieldLayout

__all__ = ["RemapPlan", "build_remap_plan"]


@dataclass(frozen=True)
class RemapPlan:
    """Gather/scatter plan for one processor across one remap.

    Attributes
    ----------
    rank:
        The processor this plan belongs to.
    keep_src, keep_dst:
        Local slots that stay on this processor: element at old local index
        ``keep_src[i]`` moves to new local index ``keep_dst[i]``.
    send:
        ``dest rank -> old local indices``, in message order (ascending
        destination local address).
    recv:
        ``source rank -> new local indices``, aligned with the sender's
        message order, so ``new_data[recv[src]] = payload``.
    """

    rank: int
    keep_src: np.ndarray
    keep_dst: np.ndarray
    send: Dict[int, np.ndarray]
    recv: Dict[int, np.ndarray]

    @property
    def elements_sent(self) -> int:
        return sum(idx.size for idx in self.send.values())

    @property
    def num_messages(self) -> int:
        return len(self.send)

    @cached_property
    def send_sorted(self) -> Tuple[Tuple[int, np.ndarray], ...]:
        """``send.items()`` in ascending destination order — the
        deterministic emission order every executor wants, sorted once."""
        return tuple(sorted(self.send.items()))


def build_remap_plan(
    old: BitFieldLayout, new: BitFieldLayout, rank: int
) -> RemapPlan:
    """Build the remap plan for ``rank`` moving from ``old`` to ``new``.

    Pure layout algebra — O(n) vectorized — mirroring what each node of a
    real machine computes before packing (charged as the ``address``
    category by the callers).
    """
    if (old.N, old.P) != (new.N, new.P):
        raise LayoutError(
            f"layouts describe different machines: "
            f"({old.N},{old.P}) vs ({new.N},{new.P})"
        )
    n = old.n
    local = np.arange(n, dtype=np.int64)
    # Outgoing view: where does each of my current slots go?
    abs_out = old.to_absolute(np.int64(rank), local)
    dproc = new.proc_of(abs_out)
    dlocal = new.local_of(abs_out)
    keep_mask = dproc == rank
    keep_src = local[keep_mask]
    keep_dst = dlocal[keep_mask]
    send: Dict[int, np.ndarray] = {}
    out_mask = ~keep_mask
    for q in np.unique(dproc[out_mask]):
        sel = local[dproc == q]
        order = np.argsort(dlocal[dproc == q], kind="stable")
        send[int(q)] = sel[order]
    # Incoming view: which slots of my new partition arrive from whom?
    abs_in = new.to_absolute(np.int64(rank), local)
    sproc = old.proc_of(abs_in)
    recv: Dict[int, np.ndarray] = {}
    in_mask = sproc != rank
    for q in np.unique(sproc[in_mask]):
        # Ascending destination local address == the sender's message order.
        recv[int(q)] = local[sproc == q]
    return RemapPlan(
        rank=rank, keep_src=keep_src, keep_dst=keep_dst, send=send, recv=recv
    )
