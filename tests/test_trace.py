"""The tracing layer: recorder semantics, exporters, report alignment,
runtime instrumentation, and the zero-overhead guarantee."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import sort
from repro.errors import ConfigurationError
from repro.machine.metrics import CATEGORIES
from repro.runtime import run_spmd, spmd_bitonic_sort
from repro.trace import (
    CHROME_TRACE_SCHEMA,
    PhaseReport,
    Tracer,
    build_phase_report,
    merged_counters,
    to_chrome_trace,
    trace_span,
    trace_to_dict,
    write_chrome_trace,
)
from repro.trace import recorder as recorder_module
from repro.utils.rng import make_keys

GOLDEN = Path(__file__).parent / "data" / "chrome_trace_golden.json"


class TestTracer:
    def test_span_records_interval(self):
        tr = Tracer(3)
        with tr.span("local_sort"):
            pass
        assert len(tr) == 1
        cat, name, start, end, parent = tr.spans[0]
        assert cat == "local_sort" and name is None and parent == -1
        assert end >= start
        assert tr.rank == 3

    def test_unknown_category_rejected(self):
        tr = Tracer()
        with pytest.raises(ConfigurationError, match="unknown trace category"):
            tr.begin("disco")

    def test_nesting_tracks_parents(self):
        tr = Tracer()
        with tr.span("transfer", 1):
            with tr.span("wait", "barrier"):
                pass
        assert tr.spans[1][4] == 0  # wait's parent is the transfer span
        assert tr.spans[0][4] == -1

    def test_totals_are_exclusive(self):
        """Nested spans never double-count: the parent's total is its own
        time minus the children's."""
        tr = Tracer()
        tr.spans = [
            ["transfer", None, 0.0, 1.0, -1],
            ["wait", None, 0.2, 0.6, 0],
        ]
        totals = tr.totals()
        assert totals["transfer"] == pytest.approx(0.6)
        assert totals["wait"] == pytest.approx(0.4)
        assert sum(totals.values()) == pytest.approx(tr.wall())

    def test_unclosed_span_ignored(self):
        tr = Tracer()
        tr.begin("merge")
        assert tr.totals() == {}
        assert tr.wall() == 0.0

    def test_counters_accumulate(self):
        tr = Tracer()
        tr.add("messages")
        tr.add("messages", 2)
        tr.add("bytes_sent", 1024)
        assert tr.counters == {"messages": 3, "bytes_sent": 1024}

    def test_merged_counters_sums_world(self):
        a, b = Tracer(0), Tracer(1)
        a.add("messages", 2)
        b.add("messages", 3)
        b.add("remaps")
        assert merged_counters([a, b]) == {"messages": 5, "remaps": 1}


def _golden_tracers():
    """Hand-built world with fixed timestamps — the schema fixture."""
    t0 = Tracer(0)
    t0.spans = [
        ["local_sort", None, 1.0, 1.25, -1],
        ["transfer", 1, 1.25, 1.5, -1],
        ["wait", "barrier", 1.3, 1.45, 1],
    ]
    t0.counters = {"messages": 3, "bytes_sent": 1024}
    t1 = Tracer(1)
    t1.spans = [["merge", 2, 1.1, 1.4, -1]]
    t1.counters = {"messages": 1}
    return [t0, t1]


class TestChromeExport:
    def test_matches_golden_file(self):
        """The exported structure is pinned byte-for-byte by a golden file;
        regenerate it deliberately (see tests/data/README) when the schema
        version is bumped, never by accident."""
        produced = json.loads(json.dumps(to_chrome_trace(_golden_tracers())))
        assert produced == json.loads(GOLDEN.read_text())

    def test_event_fields(self):
        doc = to_chrome_trace(_golden_tracers())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(events) == 4  # three spans on rank 0, one on rank 1
        for e in events:
            assert e["cat"] in CATEGORIES
            assert e["dur"] >= 0 and e["ts"] >= 0
            assert e["pid"] == 0 and e["tid"] in (0, 1)
        # Timestamps are µs relative to the world's earliest span start.
        assert min(e["ts"] for e in events) == 0.0
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == {"rank 0", "rank 1"}

    def test_other_data_carries_schema_and_counters(self):
        doc = to_chrome_trace(_golden_tracers())
        other = doc["otherData"]
        assert other["schema"] == CHROME_TRACE_SCHEMA
        assert other["categories"] == list(CATEGORIES)
        assert other["ranks"] == 2
        assert other["counters"]["messages"] == 4

    def test_write_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), _golden_tracers())
        assert json.loads(path.read_text()) == to_chrome_trace(_golden_tracers())

    def test_trace_to_dict_preserves_spans(self):
        doc = trace_to_dict(_golden_tracers())
        assert doc["schema"] == CHROME_TRACE_SCHEMA
        assert [r["rank"] for r in doc["ranks"]] == [0, 1]
        span = doc["ranks"][0]["spans"][2]
        assert span == {
            "category": "wait", "name": "barrier",
            "start_s": 1.3, "end_s": 1.45, "parent": 1,
        }


class TestPhaseReport:
    def test_shares_and_deviation(self):
        rep = PhaseReport(
            P=2, n=4,
            measured_us={"local_sort": 30.0, "transfer": 70.0},
            predicted_us={"local_sort": 50.0, "transfer": 50.0},
        )
        assert rep.share("measured", "transfer") == pytest.approx(0.7)
        assert rep.deviation("transfer") == pytest.approx(1.4)
        assert rep.deviation("merge") is None

    def test_describe_lists_sources(self):
        rep = build_phase_report(tracers=_golden_tracers(), n=4)
        text = rep.describe()
        assert "measured" in text and "local_sort" in text
        assert "counters" in text

    def test_as_dict_json_ready(self):
        rep = build_phase_report(tracers=_golden_tracers(), n=4)
        doc = json.loads(json.dumps(rep.as_dict()))
        assert doc["P"] == 2 and doc["categories"] == list(CATEGORIES)
        assert doc["counters"]["messages"] == 4


class TestRuntimeInstrumentation:
    @pytest.mark.parametrize("backend", ["threads"])
    def test_spmd_sort_records_phases_and_counters(self, backend):
        """Each remap records its address, pack, transfer and merge spans
        and one world-wide exchange."""
        P, n = 4, 256
        keys = make_keys(P * n, seed=5)

        def prog(c):
            c.tracer = Tracer(c.rank)
            out = spmd_bitonic_sort(c, keys[c.rank * n : (c.rank + 1) * n])
            return out, c.tracer

        results = run_spmd(P, prog, backend=backend)
        np.testing.assert_array_equal(
            np.concatenate([o for o, _ in results]), np.sort(keys)
        )
        for rank, (_, tr) in enumerate(results):
            assert tr.rank == rank
            totals = tr.totals()
            for cat in ("local_sort", "address", "pack", "transfer",
                        "merge"):
                assert cat in totals, f"rank {rank} missing {cat!r} spans"
            assert tr.counters["remaps"] >= 1
            assert tr.counters["coll.alltoallv"] == tr.counters["remaps"]
            assert tr.counters["coll.slots"] == P * tr.counters["coll.alltoallv"]
            assert tr.counters["bytes_sent"] > 0

    @pytest.mark.parametrize("backend", ["threads"])
    def test_fused_sort_has_no_unpack_spans(self, backend):
        """The remap fuses pack/transfer/unpack into one exchange: no
        unpack span, and every remap runs exactly one alltoallv."""
        P, n = 4, 256
        keys = make_keys(P * n, seed=5)

        def prog(c):
            c.tracer = Tracer(c.rank)
            out = spmd_bitonic_sort(c, keys[c.rank * n : (c.rank + 1) * n])
            return out, c.tracer

        results = run_spmd(P, prog, backend=backend)
        np.testing.assert_array_equal(
            np.concatenate([o for o, _ in results]), np.sort(keys)
        )
        for _, tr in results:
            totals = tr.totals()
            assert "unpack" not in totals
            for cat in ("local_sort", "address", "pack", "transfer", "merge"):
                assert cat in totals
            assert tr.counters["coll.alltoallv"] == tr.counters["remaps"]

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16), P=st.sampled_from([2, 4]))
    def test_span_totals_bounded_by_wall_threads(self, seed, P):
        """Property: every rank's exclusive category totals sum to its
        traced wall time, which is bounded by the end-to-end wall time."""
        keys = make_keys(P * 128, seed=seed)
        report = sort(keys, P, backend="threads", trace=True)
        assert len(report.tracers) == P
        for tr in report.tracers:
            totals = tr.totals()
            assert sum(totals.values()) == pytest.approx(tr.wall(), rel=1e-6)
            # Loose upper bound: traced spans happen inside the measured
            # end-to-end window (plus scheduler noise headroom).
            assert tr.wall() <= report.wall_seconds + 0.05


class TestZeroOverhead:
    def test_noop_span_is_shared_singleton(self):
        assert trace_span(None, "pack") is trace_span(None, "transfer")

    @pytest.mark.parametrize("backend", ["threads"])
    def test_untraced_sort_touches_no_trace_machinery(
        self, backend, monkeypatch
    ):
        """With no tracer armed, the instrumented paths must not construct
        a single span object or begin() call — booby-trap both and run."""

        def boom(*a, **k):
            raise AssertionError("trace machinery touched on untraced path")

        monkeypatch.setattr(recorder_module._Span, "__init__", boom)
        monkeypatch.setattr(recorder_module.Tracer, "begin", boom)
        P, n = 2, 128
        keys = make_keys(P * n, seed=1)

        def prog(c):
            return spmd_bitonic_sort(c, keys[c.rank * n : (c.rank + 1) * n])

        parts = run_spmd(P, prog, backend=backend)
        np.testing.assert_array_equal(np.concatenate(parts), np.sort(keys))
