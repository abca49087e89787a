"""The executable pack/unpack masks (§3.3.1) the SPMD runtime remaps with.

Pins three contracts: the strided-view placement of
:func:`~repro.remap.masks.remap_masks` puts every key exactly where the
simulator's :func:`~repro.remap.plan.build_remap_plan` does, for every
smart-schedule remap (crossing ones included) and every rank; the masks
hold a handful of integers, never an O(n) array; and the threads runtime
leaves the simulator's plan cache untouched.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import sort
from repro.errors import CommunicationError, LayoutError
from repro.faults.plan import FaultPlan
from repro.layouts import blocked_layout, smart_schedule
from repro.layouts.base import bits_changed
from repro.remap import PLAN_CACHE, build_remap_plan, remap_masks
from repro.runtime.bitonic_spmd import _unpack
from repro.utils.rng import make_keys

SHAPES = [
    (N, P)
    for P in (2, 4, 8, 16, 32)
    for N in (P << k for k in range(1, 16))
    if N <= 1 << 15
]


def _place_by_plans(parts, old, new):
    plans = [build_remap_plan(old, new, r) for r in range(len(parts))]
    out = [np.empty_like(part) for part in parts]
    for r, plan in enumerate(plans):
        out[r][plan.keep_dst] = parts[r][plan.keep_src]
        for q, idx in plan.send.items():
            out[q][plans[q].recv[r]] = parts[r][idx]
    return out


def _place_by_masks(parts, old, new):
    masks = [remap_masks(old, new, r) for r in range(len(parts))]
    out = [np.empty_like(part) for part in parts]
    sent = {}
    for r, m in enumerate(masks):
        src = parts[r].reshape(m.src_dims)
        for q, idx in m.send:
            sent[r, q] = src[idx]
        if m.keep is not None:
            keep_src, keep_dst = m.keep
            out[r].reshape(m.dst_dims)[keep_dst] = src[keep_src].transpose(
                m.perm
            )
    for r, m in enumerate(masks):
        received = [sent.pop((p, r), None) for p in range(len(parts))]
        _unpack(out[r].reshape(m.dst_dims), m, received, r)
    assert not sent, f"messages nobody received: {sorted(sent)}"
    return out


class TestPlacement:
    @pytest.mark.parametrize("N,P", SHAPES)
    def test_matches_remap_plan_byte_for_byte(self, N, P):
        """Kept and received keys land in the slots the plan's index
        vectors name, on every rank of every remap of the schedule."""
        rng = np.random.default_rng(N * 64 + P)
        for old, new in smart_schedule(N, P).transitions():
            parts = list(
                rng.integers(0, 2**32, size=(P, N // P), dtype=np.uint32)
            )
            by_plan = _place_by_plans(parts, old, new)
            by_masks = _place_by_masks(parts, old, new)
            for r in range(P):
                assert by_masks[r].tobytes() == by_plan[r].tobytes(), (
                    f"{old.name} -> {new.name}, rank {r}"
                )

    def test_reversed_partition_is_read_without_a_copy(self):
        """A descending partition is a reversed view; each message is a
        view of it, not a copy."""
        old, new = smart_schedule(1 << 12, 4).transitions()[0]
        m = remap_masks(old, new, 1)
        data = np.arange(old.n, dtype=np.uint32)[::-1]
        src = data.reshape(m.src_dims)
        assert np.shares_memory(src, data)
        for _, idx in m.send:
            assert np.shares_memory(src[idx], data)


class TestMasksAreSmall:
    def test_fields_hold_no_arrays(self):
        """O(lg N) integers per (old, new, rank), never an O(n) vector."""
        old, new = smart_schedule(1 << 20, 2).transitions()[0]
        m = remap_masks(old, new, 0)
        flat = []

        def walk(x):
            if isinstance(x, (tuple, list)):
                for y in x:
                    walk(y)
            else:
                flat.append(x)

        for f in dataclasses.fields(m):
            walk(getattr(m, f.name))
        assert not any(isinstance(x, np.ndarray) for x in flat)
        assert len(flat) <= 8 * old.lgN

    def test_memoized_per_layout_pair_and_rank(self):
        old, new = smart_schedule(1 << 10, 4).transitions()[1]
        assert remap_masks(old, new, 2) is remap_masks(old, new, 2)
        assert remap_masks(old, new, 2) is not remap_masks(old, new, 3)

    def test_message_count_follows_lemma4(self):
        for old, new in smart_schedule(1 << 12, 8).transitions():
            span = 1 << bits_changed(old, new)
            for r in range(8):
                m = remap_masks(old, new, r)
                assert m.keep is not None
                assert len(m.send) == len(m.recv) == span - 1
                assert int(np.prod(m.msg_shape)) * span == old.n

    def test_identity_remap_keeps_everything(self):
        layout = blocked_layout(64, 4)
        m = remap_masks(layout, layout, 1)
        assert m.send == m.recv == ()
        assert m.msg_shape == (16,)

    def test_rejects_mismatched_layouts_and_ranks(self):
        with pytest.raises(LayoutError):
            remap_masks(blocked_layout(64, 4), blocked_layout(128, 4), 0)
        with pytest.raises(LayoutError):
            remap_masks(blocked_layout(64, 4), blocked_layout(64, 4), 4)


class TestArrivalChecks:
    """A missing message, a misshapen one, or one from a rank outside the
    unpack mask's senders is a typed error, never a silent misplacement."""

    def _setup(self):
        old, new = smart_schedule(1 << 10, 4).transitions()[0]
        m = remap_masks(old, new, 0)
        received = [None] * 4
        for p, _ in m.recv:
            received[p] = np.zeros(m.msg_shape, dtype=np.uint32)
        dst = np.empty(old.n, dtype=np.uint32).reshape(m.dst_dims)
        return m, received, dst

    def test_well_formed_arrivals_place(self):
        m, received, dst = self._setup()
        _unpack(dst, m, received, 0)

    def test_missing_message(self):
        m, received, dst = self._setup()
        received[m.recv[0][0]] = None
        with pytest.raises(CommunicationError, match="rank 0: expected"):
            _unpack(dst, m, received, 0)

    def test_wrong_shape(self):
        m, received, dst = self._setup()
        p = m.recv[0][0]
        received[p] = received[p].reshape(-1)[:-1]
        with pytest.raises(CommunicationError, match="rank 0: expected"):
            _unpack(dst, m, received, 0)

    def test_payload_from_a_non_sender(self):
        m, received, dst = self._setup()
        stranger = next(p for p in range(1, 4) if p not in dict(m.recv))
        received[stranger] = np.zeros(3, dtype=np.uint32)
        with pytest.raises(CommunicationError, match="unexpected payload"):
            _unpack(dst, m, received, 0)


class TestNoPlanCache:
    """The threads runtime builds no RemapPlan: a sort at a new shape adds
    no entry to the simulator's cache and misses it nowhere."""

    @pytest.mark.parametrize(
        "faults",
        [None, FaultPlan(seed=5, drop=0.05, duplicate=0.05)],
        ids=["fused", "reliable-comm"],
    )
    def test_threads_sort_leaves_plan_cache_alone(self, faults):
        keys = make_keys(1 << 13, seed=41)
        PLAN_CACHE.clear()
        rep = sort(keys, P=8, backend="threads", faults=faults)
        assert rep.sorted_keys.tobytes() == np.sort(keys).tobytes()
        assert len(PLAN_CACHE) == 0
        assert PLAN_CACHE.misses == 0
