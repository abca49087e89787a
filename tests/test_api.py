"""The unified front door (`repro.api.sort`) and the typed backend
options of `run_spmd`."""

import warnings

import numpy as np
import pytest

import repro
from repro.api import SORT_ALGORITHMS, SORT_BACKENDS, SortReport, sort
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.runtime import BackendOptions, run_spmd
from repro.utils.rng import make_keys


class TestSortSimulated:
    @pytest.mark.parametrize("algorithm", SORT_ALGORITHMS)
    def test_every_algorithm_sorts(self, algorithm):
        keys = make_keys(1 << 10, seed=2)
        if algorithm == "external":
            # The out-of-core path is single-rank and in-process: no
            # simulated machine, no world, P implied 1.
            report = sort(keys, algorithm=algorithm)
            assert isinstance(report, SortReport)
            np.testing.assert_array_equal(report.sorted_keys, np.sort(keys))
            assert (report.backend, report.P) == ("local", 1)
            assert report.verified and report.stats is None
            return
        report = sort(keys, 4, algorithm=algorithm)
        assert isinstance(report, SortReport)
        np.testing.assert_array_equal(report.sorted_keys, np.sort(keys))
        assert report.backend == "simulated" and report.verified
        assert report.P == 4 and report.n == 256 and report.N == 1 << 10
        assert report.stats is not None and report.stats.elapsed_us > 0
        assert report.phases is None and report.tracers is None

    def test_trace_attaches_simulated_and_predicted(self):
        keys = make_keys(1 << 10, seed=3)
        report = sort(keys, 4, trace=True)
        assert report.phases is not None
        assert report.phases.simulated_us
        assert report.phases.predicted_us
        assert report.phases.measured_us is None  # nothing real to measure

    def test_faults_survived_and_counted(self):
        keys = make_keys(1 << 10, seed=4)
        report = sort(keys, 4, faults=FaultPlan(seed=5, drop=0.2))
        np.testing.assert_array_equal(report.sorted_keys, np.sort(keys))
        assert report.fault_stats["decisions"] > 0

    def test_describe_mentions_the_run(self):
        keys = make_keys(1 << 10, seed=6)
        text = sort(keys, 4).describe()
        assert "smart sort" in text and "simulated" in text and "verified" in text


class TestSortSpmd:
    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_sorts_and_verifies(self, backend):
        keys = make_keys(1 << 10, seed=7)
        report = sort(keys, 4, backend=backend)
        np.testing.assert_array_equal(report.sorted_keys, np.sort(keys))
        assert report.backend == backend
        assert report.wall_seconds > 0
        assert report.stats is None  # nothing simulated on a real run

    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_trace_aligns_three_sources(self, backend):
        keys = make_keys(1 << 10, seed=8)
        report = sort(keys, 4, backend=backend, trace=True)
        ph = report.phases
        assert ph is not None and len(report.tracers) == 4
        assert ph.measured_us and ph.simulated_us and ph.predicted_us
        assert ph.counters["remaps"] > 0
        assert ph.deviation("local_sort") is not None
        table = ph.describe()
        assert "measured" in table and "predicted" in table

    def test_threads_faults_survived(self):
        keys = make_keys(1 << 10, seed=9)
        report = sort(
            keys, 4, backend="threads", faults=FaultPlan(seed=1, drop=0.1)
        )
        np.testing.assert_array_equal(report.sorted_keys, np.sort(keys))
        assert report.fault_stats["decisions"] > 0

    def test_procs_accepts_backend_options(self):
        keys = make_keys(1 << 9, seed=10)
        report = sort(
            keys, 2, backend="procs",
            options=BackendOptions(arena_bytes=1 << 16),
        )
        np.testing.assert_array_equal(report.sorted_keys, np.sort(keys))


class TestSortRejections:
    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="unknown sort backend"):
            sort(make_keys(64), 2, backend="quantum")

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            sort(make_keys(64), 2, algorithm="bogo")

    def test_spmd_backends_reject_simulated_only_algorithms(self):
        with pytest.raises(ConfigurationError,
                           match="implements.*backend='simulated'"):
            sort(make_keys(64), 2, algorithm="radix", backend="threads")

    def test_auto_needs_a_service(self):
        with pytest.raises(ConfigurationError, match="planner routing"):
            sort(make_keys(64), 2, algorithm="auto", backend="threads")

    def test_procs_rejects_faults(self):
        with pytest.raises(ConfigurationError, match="threads backend"):
            sort(make_keys(64), 2, backend="procs",
                 faults=FaultPlan(seed=1, drop=0.5))

    def test_simulated_rejects_backend_options(self):
        with pytest.raises(ConfigurationError, match="backend options"):
            sort(make_keys(64), 2, options=BackendOptions())


class TestOptionsShim:
    def test_options_is_the_canonical_spelling(self):
        keys = make_keys(1 << 9, seed=11)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = sort(keys, 2, backend="threads",
                          options=BackendOptions(fused=False))
        np.testing.assert_array_equal(report.sorted_keys, np.sort(keys))

    def test_both_spellings_rejected(self):
        """The old ``backend_options=`` spelling is gone, not aliased."""
        with pytest.raises(TypeError, match="backend_options"):
            sort(make_keys(64), 2, backend="threads",
                 options=BackendOptions(), backend_options=BackendOptions())


class TestBackendOptions:
    def test_typed_options_drive_procs(self):
        out = run_spmd(
            2, lambda c: c.rank, backend="procs",
            options=BackendOptions(arena_bytes=1 << 16),
        )
        assert out == [0, 1]

    def test_threads_rejects_any_set_field(self):
        with pytest.raises(ConfigurationError, match="no extra options"):
            run_spmd(2, lambda c: c.rank, backend="threads",
                     options=BackendOptions(arena_bytes=1 << 16))

    def test_legacy_kwargs_keep_threads_rejection(self):
        """Loose keyword options are no longer folded into
        BackendOptions: they fail at the call, before any world starts."""
        with pytest.raises(TypeError, match="arena_bytes"):
            run_spmd(2, lambda c: c.rank, backend="threads",
                     arena_bytes=1 << 16)

    def test_unknown_legacy_kwarg_rejected(self):
        with pytest.raises(TypeError, match="bogus"):
            run_spmd(2, lambda c: c.rank, backend="procs", bogus=1)

    def test_both_spellings_rejected(self):
        with pytest.raises(TypeError, match="arena_bytes"):
            run_spmd(
                2, lambda c: c.rank, backend="procs",
                options=BackendOptions(), arena_bytes=1 << 16,
            )

    def test_set_fields(self):
        assert BackendOptions().set_fields() == []
        assert BackendOptions(arena_bytes=4096).set_fields() == ["arena_bytes"]


class TestTopLevelExports:
    def test_front_door_reexported(self):
        assert repro.sort is sort
        assert repro.SortReport is SortReport
        assert repro.SORT_BACKENDS is SORT_BACKENDS
        for name in ("BackendOptions", "Tracer", "PhaseReport",
                     "build_phase_report", "write_chrome_trace"):
            assert hasattr(repro, name)

    def test_module_quickstart_runs(self):
        """The code from repro.__doc__'s quickstart (scaled down)."""
        keys = make_keys(1 << 10)
        report = repro.sort(keys, P=4)
        assert report.stats.us_per_key > 0
        report = repro.sort(keys, P=2, backend="threads", trace=True)
        assert "phase breakdown" in report.phases.describe()
