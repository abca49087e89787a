"""Long-message parallel radix sort ([AISS95], used in Figures 5.7/5.8).

Classic LSD parallel radix: for each digit (least-significant first) every
processor histograms its keys, the histograms are combined into global digit
offsets (an all-gather of ``2**radix_bits`` counters per processor), and
each key is shipped to the processor that owns its global rank — a full
all-to-all of (almost) all data per pass, packed into long messages with
packing fused into the local permutation as in [AISS95].

Stability of each pass makes the final result globally sorted after
``ceil(key_bits / radix_bits)`` passes.  The per-key cost is essentially
independent of ``P`` (each pass moves ``n (1 - 1/P)`` keys regardless),
which is why bitonic sort — whose cost grows with ``lg P`` — beats radix at
small ``P`` but loses at large ``P`` and large ``n`` (§5.5).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.machine.message import Message
from repro.machine.simulator import Machine
from repro.sorts.base import ParallelSort

__all__ = ["ParallelRadixSort"]


class ParallelRadixSort(ParallelSort):
    """LSD parallel radix sort with long messages ([AISS95])."""

    name = "radix"

    def __init__(self, spec=None, *, key_bits: int = 32, radix_bits: int = 8):
        if spec is None:
            from repro.model.machines import MEIKO_CS2

            spec = MEIKO_CS2
        super().__init__(spec)
        self.key_bits = key_bits
        self.radix_bits = radix_bits

    def _run_parts(self, machine: Machine, parts: List[np.ndarray]) -> List[np.ndarray]:
        P = machine.P
        n = parts[0].size
        costs = machine.spec.compute
        radix = 1 << self.radix_bits
        passes = -(-self.key_bits // self.radix_bits)

        # [AISS95]'s radix passes are digit-bucketed for cache locality
        # (each pass streams through per-digit buckets that fit in cache),
        # so — unlike the bitonic sorts' whole-array local phases — its
        # per-key local cost stays flat as n outgrows the cache.  We model
        # that by charging its local passes at an in-cache working set.
        in_cache = machine.spec.cache.capacity_keys

        for p in range(passes):
            shift = p * self.radix_bits
            # In intp: a mask of ``radix - 1`` does not fit a narrow
            # key dtype such as int8.
            digit_of = lambda a: np.bitwise_and(
                a >> shift, radix - 1, dtype=np.intp
            )

            # Local histograms (one linear pass per processor).
            counts = np.zeros((P, radix), dtype=np.int64)
            for r in range(P):
                counts[r] = np.bincount(digit_of(parts[r]), minlength=radix)
                machine.charge_compute(r, "local_sort", n, costs.radix_pass,
                                       working_set=in_cache)

            if P > 1:
                # All-gather of the histograms (small long messages).
                hist_msgs = [
                    Message(src=r, dst=q, payload=counts[r])
                    for r in range(P)
                    for q in range(P)
                    if q != r
                ]
                machine.exchange(hist_msgs, mode="long", count_remap=False)

            # Global rank of the first key of every (processor, digit) bin:
            # all lower digits everywhere, then the same digit on lower
            # ranks (this is the scan every processor computes after the
            # all-gather).
            digit_totals = counts.sum(axis=0)
            digit_base = np.concatenate([[0], np.cumsum(digit_totals)[:-1]])
            proc_within = np.cumsum(counts, axis=0) - counts  # exclusive
            offsets = digit_base[None, :] + proc_within

            # Each key's destination: global position -> (proc, slot).
            new_parts = [np.empty_like(parts[r]) for r in range(P)]
            messages: List[Message] = []
            recv_slots: dict = {}
            for r in range(P):
                d = digit_of(parts[r])
                order = np.argsort(d, kind="stable")
                sorted_d = d[order]
                within = np.arange(n) - np.searchsorted(sorted_d, sorted_d, side="left")
                pos = offsets[r][sorted_d] + within
                dproc = pos // n
                dslot = pos % n
                # Rank computation + permutation into send buffers: the
                # random-access half of the pass (bucketed, so in-cache).
                machine.charge_compute(r, "local_sort", n, costs.radix_permute,
                                       working_set=in_cache)
                machine.charge_compute(r, "address", n, costs.address,
                                       working_set=in_cache)
                machine.charge_compute(r, "pack", n, costs.fused_pack,
                                       working_set=in_cache)
                keep = dproc == r
                new_parts[r][dslot[keep]] = parts[r][order][keep]
                for q in np.unique(dproc[~keep]):
                    sel = dproc == q
                    messages.append(
                        Message(src=r, dst=int(q), payload=parts[r][order][sel])
                    )
                    recv_slots[(r, int(q))] = dslot[sel]
            if messages:
                delivered = machine.exchange(messages, mode="long")
                for q, inbox in delivered.items():
                    for msg in inbox:
                        slots = recv_slots[(msg.src, q)]
                        new_parts[q][slots] = msg.payload
                        # The receive side cannot fuse: arrivals scatter to
                        # rank-determined slots (bucketed, so in-cache).
                        machine.charge_compute(
                            q, "unpack", msg.num_elements, costs.unpack,
                            working_set=in_cache,
                        )
            machine.barrier()
            parts = new_parts
        return parts
