"""Tests of the benchmark's own arithmetic, on synthetic inputs.

    python3 -m pytest perfbench/test_stats.py
"""

from __future__ import annotations

import numpy as np
import pytest

from config import TAIL_BLOCK, WORKLOADS, config_hash
from stats import (Tally, block_tail, covered, ladder_deltas, same_bytes,
                   self_times, tail)


class TestTail:
    def test_too_few_samples_report_the_maximum_at_p100(self):
        for n in (1, 5, 10):
            xs = list(range(n, 0, -1))
            assert tail(xs) == (100.0, n, n)

    def test_eleven_samples_keep_ten_beyond_the_smallest(self):
        xs = [float(v) for v in range(11)]
        pct, value, n = tail(reversed(xs))
        assert (value, n) == (0.0, 11)
        assert pct == pytest.approx(100 / 11)

    def test_hundred_samples_give_p90(self):
        xs = [float(v) for v in range(100)]
        pct, value, n = tail(xs[::-1])
        assert (pct, value, n) == (90.0, 89.0, 100)
        assert sum(x > value for x in xs) == 10

    def test_no_samples_raise(self):
        with pytest.raises(ValueError):
            tail([])


class TestBlockTail:
    def test_short_runs_are_one_block(self):
        xs = [float(v) for v in range(50)]
        assert block_tail(xs) == (*tail(xs), 1)

    def test_a_burst_in_one_block_does_not_set_the_tail(self):
        block = [float(v) for v in range(1, TAIL_BLOCK + 1)]
        burst = block[:-20] + [1e6] * 20
        xs = block * 2 + burst + block * 2 + block[:7]
        pct, value, size, blocks = block_tail(xs)
        assert (size, blocks) == (TAIL_BLOCK, 5)
        assert value == tail(block)[1]
        assert pct == 100.0 * (TAIL_BLOCK - 10) / TAIL_BLOCK
        assert tail(xs)[1] == 1e6


class TestSelfTime:
    def test_union_counts_overlap_once(self):
        assert covered([(0, 4), (2, 6), (8, 9), (5, 5)]) == 7

    def test_overlapping_children_are_subtracted_once(self):
        spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0)]
        assert self_times(spans) == [4.0, 4.0, 4.0]

    def test_children_outside_the_parent_are_clipped(self):
        spans = [(2.0, 6.0, -1), (0.0, 3.0, 0), (5.0, 9.0, 0)]
        assert self_times(spans)[0] == 2.0

    def test_grandchildren_count_against_their_own_parent(self):
        spans = [(0.0, 10.0, -1), (0.0, 6.0, 0), (1.0, 2.0, 1)]
        assert self_times(spans) == [4.0, 5.0, 1.0]


def test_ladder_deltas_are_over_the_rung_below():
    rows = ladder_deltas([("a", 2.0), ("b", 5.0), ("c", 4.0)], floor_ms=2.0)
    assert rows == [
        ("a", 2.0, 2.0, 1.0), ("b", 5.0, 3.0, 2.5), ("c", 4.0, -1.0, 2.0),
    ]


class TestTally:
    def test_wrong_output_counts_as_failure_and_not_as_latency(self):
        t = Tally()
        shape, plan = "4096/uniform", "smart:threadsx1"
        t.reply(shape, 0.010, True, "a", 0.001, 4096, plan)
        t.reply(shape, 0.002, False, "a", 0.001, 4096, plan)
        assert (t.attempted, t.failed) == (2, 1)
        assert t.error_rate == 0.5
        assert t.latencies == [0.010]
        assert t.keys == 4096
        assert t.floor_x() == pytest.approx(10.0)
        assert t.failures[(shape, "wrong-output")] == 1
        assert t.plans[shape][plan] == 2

    def test_raised_errors_count_by_kind(self):
        t = Tally()
        t.error("64/uniform", "AdmissionError")
        t.reply("64/uniform", 0.001, True, "a", 0.0005, 64)
        assert t.error_rate == 0.5
        assert t.failures[("64/uniform", "AdmissionError")] == 1

    def test_floor_is_each_inputs_median_sort_time(self):
        t = Tally()
        for floor in (0.001, 0.001, 0.005):  # one sort stalled
            t.reply("s", 0.010, True, "a", floor, 8)
        t.reply("s", 0.030, True, "b", 0.002, 8)
        assert t.floor_x() == pytest.approx(0.060 / (3 * 0.001 + 0.002))


def test_same_bytes_needs_same_dtype_and_values():
    a = np.array([1, 2, 3], dtype=np.uint32)
    assert same_bytes(a.copy(), a)
    assert not same_bytes(a.astype(np.int64), a)
    assert not same_bytes(a[::-1].copy(), a)
    assert not same_bytes(a[:2].copy(), a)


def test_routed_mix_cycles_sizes_and_low_entropy():
    w = WORKLOADS["routed-mix"]
    shapes = [w.shape_of(k) for k in range(w.period)]
    assert w.period == 12
    assert [s for s, _d in shapes[:3]] == [4096, 16384, 65536]
    assert [k for k, (_s, d) in enumerate(shapes) if d != "uniform"] == [
        3, 7, 11,
    ]


def test_config_hash_covers_the_run_length():
    w = WORKLOADS["rpc-small"]
    assert config_hash(w, 10.0) == config_hash(w, 10.0)
    assert config_hash(w, 10.0) != config_hash(w, 20.0)
