"""Executing a remap on the simulated machine.

:func:`perform_remap` moves every processor's partition from one layout to
another: build the per-processor :class:`~repro.remap.plan.RemapPlan`
(charged as ``address`` time), gather outgoing long messages (``pack``),
exchange them through the machine (``transfer``, in long- or short-message
mode) and scatter arrivals into the new partitions (``unpack``).

When ``fused=True`` the pack and unpack passes are not charged separately:
the caller asserts that its local computation wrote directly through the
pack mask and will read merged runs directly from the receive buffers
(§4.3), so only the small per-element fusion surcharge applies — this is
what separates the fully optimized Smart sort of Table 5.1 from the
unfused long-message version of Tables 5.3/5.4.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import CommunicationError
from repro.layouts.base import BitFieldLayout
from repro.machine.message import Message
from repro.machine.simulator import Machine
from repro.remap.cache import cached_remap_plan
from repro.remap.plan import RemapPlan

__all__ = ["perform_remap"]


def perform_remap(
    machine: Machine,
    parts: Sequence[np.ndarray],
    old: BitFieldLayout,
    new: BitFieldLayout,
    mode: str = "long",
    fused: bool = False,
    plans: Optional[Sequence[RemapPlan]] = None,
    label: Optional[str] = None,
) -> List[np.ndarray]:
    """Remap all partitions from layout ``old`` to layout ``new``.

    Parameters
    ----------
    machine:
        The simulated machine (supplies time accounting and delivery).
    parts:
        One array per processor, each of length ``n``, in ``old``'s
        local-address order.
    mode:
        ``"long"`` (packed bulk messages) or ``"short"`` (element-at-a-time,
        no pack/unpack phases — §3.3).
    fused:
        Charge the §4.3 fused pack/unpack accounting instead of separate
        pack and unpack passes (long mode only).
    plans:
        Precomputed plans (one per rank); when given, the ``address``
        computation is assumed already charged by the caller.
    label:
        Phase name for fault-injection error reports (defaults to the
        machine's remap counter); see :class:`repro.faults.FaultInjector`.

    Returns the new partitions in ``new``'s local-address order.
    """
    P = machine.P
    if len(parts) != P:
        raise CommunicationError(f"got {len(parts)} partitions for {P} processors")
    if fused and mode == "short":
        raise CommunicationError("fused pack/unpack only applies to long messages")
    n = old.n
    costs = machine.spec.compute

    if plans is None:
        # Memoized across runs; the simulated machine still charges every
        # processor the full ``address`` computation per remap (the cache
        # removes redundant *host* work, not modeled work).
        plans = [cached_remap_plan(old, new, r) for r in range(P)]
        for r in range(P):
            machine.charge_compute(r, "address", n, costs.address)

    messages: List[Message] = []
    new_parts: List[np.ndarray] = []
    for r in range(P):
        part = np.asarray(parts[r])
        if part.size != n:
            raise CommunicationError(
                f"partition {r} has {part.size} keys, expected {n}"
            )
        plan = plans[r]
        sent = plan.elements_sent
        if mode == "long":
            if fused:
                machine.charge_compute(r, "pack", n, costs.fused_pack)
            else:
                machine.charge_compute(r, "pack", sent, costs.pack, working_set=n)
        for dst, idx in plan.send_sorted:
            messages.append(Message(src=r, dst=dst, payload=part[idx]))
        buf = np.empty_like(part)
        buf[plan.keep_dst] = part[plan.keep_src]
        new_parts.append(buf)

    delivered = machine.exchange(messages, mode=mode, label=label)

    for r in range(P):
        plan = plans[r]
        arrived = delivered.get(r, [])
        got = 0
        for msg in arrived:
            scatter = plan.recv.get(msg.src)
            if scatter is None or scatter.size != msg.num_elements:
                raise CommunicationError(
                    f"processor {r} received an unexpected message from "
                    f"{msg.src} ({msg.num_elements} elements)"
                )
            new_parts[r][scatter] = msg.payload
            got += msg.num_elements
        expected = sum(idx.size for idx in plan.recv.values())
        if got != expected:
            raise CommunicationError(
                f"processor {r} received {got} elements, expected {expected}"
            )
        if mode == "long" and not fused:
            machine.charge_compute(r, "unpack", got, costs.unpack, working_set=n)
    machine.barrier()
    return new_parts
