"""Tests for the benchmark trajectory harness and its CLI subcommand."""

import json

import pytest

from repro.harness.bench import BENCH_SCHEMA, run_bench, write_bench
from repro.harness.cli import main

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
        assert set(payload["kernels"]) == {"plan"}

    def test_end_to_end_covers_backends_and_sizes(self, payload):
        seen = {(r["backend"], r["keys"]) for r in payload["end_to_end"]}
        assert seen == {("threads", 1 << 10)}
        for rec in payload["end_to_end"]:
            assert rec["best_s"] > 0
            assert rec["mean_s"] >= rec["best_s"]

    def test_speedup_recorded(self, payload):
        by_size = payload["end_to_end_speedup"]["threads_fused_over_unfused"]
        assert set(by_size) == {str(1 << 10)}
        assert by_size[str(1 << 10)] > 0

    def test_kernel_records_have_both_sides(self, payload):
        rec = payload["kernels"]["plan"][0]
        assert rec["rebuild_every_phase"]["best_s"] > 0
        assert rec["plan_cache_warm"]["best_s"] > 0
        assert rec["speedup"] > 1  # a warm cache must beat rebuilding

    def test_json_round_trip(self, payload, tmp_path):
        out = tmp_path / "bench.json"
        write_bench(payload, str(out))
        assert json.loads(out.read_text())["schema"] == BENCH_SCHEMA


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
            "--reps", "1", "--out", str(out),
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert {r["backend"] for r in data["end_to_end"]} == {"threads"}
        # No cross-backend ratio with one backend; the fused-vs-unfused
        # A/B and the algorithm crossover are still measured.
        speedups = data["end_to_end_speedup"]
        assert "procs_over_threads" not in speedups
        assert set(speedups) == {
            "threads_fused_over_unfused", "threads_sample_over_bitonic",
        }
        assert set(speedups["threads_fused_over_unfused"]) == {"1024"}
        assert set(speedups["threads_sample_over_bitonic"]) == {"1024"}
