"""Tests for the simulator's remap-plan cache and the plan's sorted view."""

import numpy as np
import pytest

from repro.layouts import blocked_layout, smart_layout
from repro.remap import (
    PLAN_CACHE,
    RemapPlanCache,
    build_remap_plan,
    cached_remap_plan,
    perform_remap,
)
from repro.machine.simulator import Machine
from repro.model.machines import MEIKO_CS2
from repro.utils.rng import make_keys


@pytest.fixture()
def layout_pair():
    old = blocked_layout(1 << 10, 8)
    new = smart_layout(1 << 10, 8, 8, 8)
    return old, new


class TestPlanViews:
    def test_send_sorted_matches_send(self, layout_pair):
        old, new = layout_pair
        plan = build_remap_plan(old, new, 3)
        assert [q for q, _ in plan.send_sorted] == sorted(plan.send)
        for q, idx in plan.send_sorted:
            np.testing.assert_array_equal(idx, plan.send[q])

    def test_kept_and_received_slots_tile_the_partition(self, layout_pair):
        """Every slot of the new partition is filled exactly once: by the
        kept block or by one sender's message."""
        old, new = layout_pair
        plan = build_remap_plan(old, new, 3)
        slots = np.concatenate([plan.keep_dst, *plan.recv.values()])
        np.testing.assert_array_equal(np.sort(slots), np.arange(old.n))

    def test_identity_remap_moves_nothing(self):
        layout = blocked_layout(64, 4)
        plan = build_remap_plan(layout, layout, 1)  # identity remap
        assert plan.recv == {}
        assert plan.send_sorted == ()
        np.testing.assert_array_equal(plan.keep_dst, np.arange(layout.n))

    def test_views_are_cached_per_plan(self, layout_pair):
        old, new = layout_pair
        plan = build_remap_plan(old, new, 0)
        assert plan.send_sorted is plan.send_sorted


class TestRemapPlanCache:
    def test_hit_returns_same_object(self, layout_pair):
        old, new = layout_pair
        cache = RemapPlanCache()
        a = cache.get(old, new, 2)
        b = cache.get(old, new, 2)
        assert a is b
        assert (cache.hits, cache.misses) == (1, 1)

    def test_distinct_ranks_are_distinct_entries(self, layout_pair):
        old, new = layout_pair
        cache = RemapPlanCache()
        assert cache.get(old, new, 0) is not cache.get(old, new, 1)
        assert len(cache) == 2

    def test_value_equal_layouts_share_entries(self):
        """Layouts built independently but equal by value hit the same
        cache slot — the cache keys by the bit assignment, not identity."""
        cache = RemapPlanCache()
        a = cache.get(blocked_layout(256, 4), smart_layout(256, 4, 7, 7), 1)
        b = cache.get(blocked_layout(256, 4), smart_layout(256, 4, 7, 7), 1)
        assert a is b
        assert cache.hits == 1

    def test_cached_plan_matches_fresh_build(self, layout_pair):
        old, new = layout_pair
        fresh = build_remap_plan(old, new, 5)
        cached = cached_remap_plan(old, new, 5)
        np.testing.assert_array_equal(cached.keep_src, fresh.keep_src)
        np.testing.assert_array_equal(cached.keep_dst, fresh.keep_dst)
        assert set(cached.send) == set(fresh.send)
        for q in fresh.send:
            np.testing.assert_array_equal(cached.send[q], fresh.send[q])
        for q in fresh.recv:
            np.testing.assert_array_equal(cached.recv[q], fresh.recv[q])

    def test_eviction_bound(self):
        cache = RemapPlanCache(max_entries=4)
        old = blocked_layout(256, 4)
        new = smart_layout(256, 4, 7, 7)
        for r in range(4):
            cache.get(old, new, r)
        assert len(cache) == 4
        cache.get(new, old, 0)  # fifth distinct key evicts the oldest
        assert len(cache) == 4

    def test_clear(self, layout_pair):
        old, new = layout_pair
        cache = RemapPlanCache()
        cache.get(old, new, 0)
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)

    def test_global_cache_in_use(self, layout_pair):
        old, new = layout_pair
        before = PLAN_CACHE.hits
        cached_remap_plan(old, new, 7)
        cached_remap_plan(old, new, 7)
        assert PLAN_CACHE.hits > before


class TestAccountingUnchanged:
    def test_repeated_remaps_charge_identical_simulated_time(self):
        """The cache removes host work only: the simulated machine charges
        the address computation on every remap, so two identical runs —
        the second fully cache-warm — report identical simulated stats."""

        def one_run():
            machine = Machine(8, MEIKO_CS2)
            old = blocked_layout(1 << 10, 8)
            new = smart_layout(1 << 10, 8, 8, 8)
            keys = make_keys(1 << 10, seed=3)
            parts = [keys[r * 128 : (r + 1) * 128] for r in range(8)]
            perform_remap(machine, parts, old, new)
            return machine.elapsed()

        assert one_run() == one_run()
