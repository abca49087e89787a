"""Tests for the benchmark trajectory harness and its CLI subcommand."""

import json

import numpy as np
import pytest

from repro.harness.bench import (
    BENCH_SCHEMA,
    _legacy_batched_merge,
    _legacy_radix_sort,
    run_bench,
    write_bench,
)
from repro.harness.cli import main
from repro.localsort import batched_bitonic_merge, radix_sort
from repro.utils.rng import make_keys

#: Tiny but structurally complete bench configuration for tests.
TINY = dict(quick=True, sizes=[1 << 10], procs=2, reps=1, timeout=60.0)


@pytest.fixture(scope="module")
def payload():
    return run_bench(**TINY)


class TestRunBench:
    def test_schema_and_sections(self, payload):
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["outputs_match"] is True
        assert payload["host"]["cpu_count"] >= 1
        assert payload["config"]["sizes"] == [1 << 10]
        assert set(payload["kernels"]) == {"radix", "merge", "plan"}

    def test_end_to_end_covers_backends_and_sizes(self, payload):
        seen = {(r["backend"], r["keys"]) for r in payload["end_to_end"]}
        assert seen == {("threads", 1 << 10), ("procs", 1 << 10)}
        for rec in payload["end_to_end"]:
            assert rec["best_s"] > 0
            assert rec["mean_s"] >= rec["best_s"]

    def test_speedup_recorded(self, payload):
        by_size = payload["end_to_end_speedup"]["procs_over_threads"]
        assert set(by_size) == {str(1 << 10)}
        assert by_size[str(1 << 10)] > 0

    def test_kernel_records_have_both_sides(self, payload):
        rec = payload["kernels"]["radix"][0]
        assert rec["legacy_argsort"]["best_s"] > 0
        assert rec["counting_scatter"]["best_s"] > 0
        rec = payload["kernels"]["merge"][0]
        assert rec["legacy_two_copies"]["best_s"] > 0
        assert rec["single_copy"]["best_s"] > 0
        rec = payload["kernels"]["plan"][0]
        assert rec["plan_cache_warm"]["best_s"] > 0
        assert rec["speedup"] > 1  # a warm cache must beat rebuilding

    def test_json_round_trip(self, payload, tmp_path):
        out = tmp_path / "bench.json"
        write_bench(payload, str(out))
        assert json.loads(out.read_text())["schema"] == BENCH_SCHEMA


class TestLegacyKernelsStayHonest:
    """The A/B baselines must remain observationally identical to the
    optimized kernels, or the recorded speedups are fiction."""

    def test_radix_agrees(self):
        keys = make_keys(4096, seed=11)
        np.testing.assert_array_equal(radix_sort(keys), _legacy_radix_sort(keys))
        np.testing.assert_array_equal(
            radix_sort(keys, ascending=False),
            _legacy_radix_sort(keys, ascending=False),
        )

    def test_merge_agrees_both_axes(self):
        keys = make_keys(4096, seed=12)
        m = np.sort(keys.reshape(64, 64), axis=1)
        m[::2] = m[::2, ::-1]  # alternating rows: bitonic either way
        for axis, mat in ((1, m), (0, m.T)):
            np.testing.assert_array_equal(
                batched_bitonic_merge(mat, True, axis=axis),
                _legacy_batched_merge(mat, True, axis=axis),
            )


class TestBenchCli:
    def test_bench_subcommand_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_test.json"
        rc = main([
            "bench", "--quick", "--sizes", "1024", "--procs", "2",
            "--reps", "1", "--out", str(out),
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["schema"] == BENCH_SCHEMA
        assert "benchmark trajectory" in capsys.readouterr().out

    def test_bench_threads_only(self, tmp_path):
        out = tmp_path / "b.json"
        rc = main([
            "bench", "--quick", "--sizes", "1024", "--procs", "2",
            "--reps", "1", "--backends", "threads", "--out", str(out),
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert {r["backend"] for r in data["end_to_end"]} == {"threads"}
        # No cross-backend ratio without procs; the fused-vs-unfused A/B
        # is still measured on the one backend that ran.
        speedups = data["end_to_end_speedup"]
        assert "procs_over_threads" not in speedups
        assert set(speedups) == {
            "threads_fused_over_unfused", "threads_sample_over_bitonic",
        }
        assert set(speedups["threads_fused_over_unfused"]) == {"1024"}
        assert set(speedups["threads_sample_over_bitonic"]) == {"1024"}
