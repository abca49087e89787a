"""The out-of-core tier: spill-to-disk external sort.

The contract under test, layer by layer:

* **byte equality** — :func:`repro.extsort.external_sort` returns
  exactly ``np.sort(keys)`` at every budget that forces one, two, or
  many merge passes, on uniform, duplicate-heavy, and skewed inputs;
* **budget honesty** — the self-accounted peak working set stays within
  the declared memory budget even when the input is 8x larger than it;
* **crash safety** — a SIGKILLed sort leaves a pid-named spill
  directory that the orphan sweep reclaims, while directories owned by
  live processes are never touched;
* **admission** — the service degrades over-budget requests to the
  external path (counted in the report) and rejects requests whose
  spill footprint cannot fit the disk budget with a typed
  :class:`~repro.errors.MemoryBudgetError`;
* **the third regime** — the planner prices ``external`` alongside the
  in-memory algorithms only with measured disk evidence, degrades on a
  budget, and refuses faults out of core.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigurationError, MemoryBudgetError
from repro.extsort import (
    INMEM_WORKING_SET_FACTOR,
    SpillDir,
    estimate_spill_bytes,
    external_sort,
    inmem_working_set_bytes,
    live_spill_dirs,
    sweep_orphaned_spill_dirs,
)
from repro.utils.rng import make_keys


def _check(keys, budget, **kwargs):
    out, report = external_sort(keys, budget, **kwargs)
    assert out.tobytes() == np.sort(keys).tobytes()
    assert out.dtype == keys.dtype
    return report


class TestByteEquality:
    def test_single_merge_pass(self, tmp_path):
        keys = make_keys(1 << 12, seed=3)
        # budget = nbytes/4 -> chunks of budget/4 bytes -> 16 runs,
        # comfortably under the default fan-in: one merge pass.
        report = _check(keys, keys.nbytes // 4, spill_root=str(tmp_path))
        assert report.runs == 16
        assert report.merge_passes == 1
        assert report.spill_bytes >= keys.nbytes
        assert report.n == keys.size

    def test_two_merge_passes(self, tmp_path):
        keys = make_keys(1 << 12, seed=4)
        # 16 runs at fan-in 4: one intermediate pass to 4 runs, then the
        # final bucket merge.
        report = _check(
            keys, keys.nbytes // 4, fan_in=4, spill_root=str(tmp_path)
        )
        assert report.merge_passes == 2

    def test_many_merge_passes(self, tmp_path):
        keys = make_keys(1 << 12, seed=5)
        # fan-in 2 cascades 16 -> 8 -> 4 -> 2 -> output.
        report = _check(
            keys, keys.nbytes // 4, fan_in=2, spill_root=str(tmp_path)
        )
        assert report.merge_passes >= 4

    @pytest.mark.parametrize("n", [1, 2, 3, 100, 1000, 100_001])
    def test_non_power_of_two_sizes(self, n, tmp_path):
        keys = make_keys(max(n, 1), seed=n)[:n]
        _check(keys, 4096, spill_root=str(tmp_path))

    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64, np.int32,
                                       np.int64])
    def test_dtypes(self, dtype, tmp_path):
        rng = np.random.default_rng(7)
        info = np.iinfo(dtype)
        keys = rng.integers(info.min, info.max, 3000, dtype=dtype)
        _check(keys, 2048, spill_root=str(tmp_path))

    def test_already_sorted_and_reversed(self, tmp_path):
        for dist in ("sorted", "reverse-sorted"):
            keys = make_keys(4096, distribution=dist, seed=1)
            _check(keys, 1024, spill_root=str(tmp_path))


class TestSkewAndDuplicates:
    @pytest.mark.parametrize("dist", ["low-entropy", "zero-entropy",
                                      "gaussian"])
    def test_distributions(self, dist, tmp_path):
        keys = make_keys(1 << 13, distribution=dist, seed=11)
        _check(keys, 2048, spill_root=str(tmp_path))

    def test_zipf_like_skew(self, tmp_path):
        # A heavy-headed distribution: most mass on a handful of values,
        # a long sparse tail — the regime where regular sampling
        # under-splits and the recursive re-split has to save the merge.
        rng = np.random.default_rng(13)
        ranks = rng.zipf(1.3, 1 << 13)
        keys = np.minimum(ranks, 1 << 20).astype(np.uint32)
        _check(keys, 2048, spill_root=str(tmp_path))

    def test_single_repeated_value(self, tmp_path):
        keys = np.full(1 << 12, 42, dtype=np.uint32)
        report = _check(keys, 1024, spill_root=str(tmp_path))
        assert report.peak_resident_bytes <= 1024


class TestBudget:
    def test_peak_resident_within_budget_at_8x(self, tmp_path):
        # The acceptance bar: input 8x the budget, working set bounded.
        budget = 1 << 14
        n = (8 * budget) // 4  # uint32
        keys = make_keys(n, seed=17)
        assert keys.nbytes == 8 * budget
        report = _check(keys, budget, spill_root=str(tmp_path))
        assert report.peak_resident_bytes <= budget
        assert report.runs >= 8

    def test_tiny_budget_still_correct(self, tmp_path):
        # At degenerate budgets (smaller than the splitter sample pool)
        # the bound cannot hold, but correctness still must.
        keys = make_keys(2048, seed=19)
        _check(keys, 64, spill_root=str(tmp_path))

    def test_working_set_estimate(self):
        assert (inmem_working_set_bytes(100, 4)
                == 100 * 4 * INMEM_WORKING_SET_FACTOR)
        assert estimate_spill_bytes(1000) == 2000

    def test_rejects_bad_arguments(self):
        keys = make_keys(64, seed=0)
        with pytest.raises(ConfigurationError):
            external_sort(keys, 0)
        with pytest.raises(ConfigurationError):
            external_sort(keys, 1024, fan_in=1)
        with pytest.raises(ConfigurationError):
            external_sort(np.empty(0, dtype=np.uint32), 1024)
        with pytest.raises(ConfigurationError):
            external_sort(keys.reshape(8, 8), 1024)

    def test_disk_budget_rejection_is_typed(self, tmp_path):
        keys = make_keys(4096, seed=2)
        need = estimate_spill_bytes(keys.nbytes)
        with pytest.raises(MemoryBudgetError) as exc:
            external_sort(keys, 1024, disk_budget=need - 1,
                          spill_root=str(tmp_path))
        assert exc.value.required_bytes == need
        assert exc.value.budget_bytes == need - 1
        # A sufficient disk budget sails through.
        _check(keys, 1024, disk_budget=need, spill_root=str(tmp_path))


class TestCrashSafety:
    def test_context_exit_removes_spill_dir(self, tmp_path):
        keys = make_keys(4096, seed=23)
        _check(keys, 1024, spill_root=str(tmp_path))
        assert live_spill_dirs(str(tmp_path)) == []

    def test_sigkill_mid_spill_is_swept(self, tmp_path):
        # A child creates a spill dir, reports it, and hangs; SIGKILL
        # gives it no chance to clean up.  The orphan sweep, keyed on
        # the dead pid in the directory name, reclaims it.
        child = textwrap.dedent("""
            import sys, time
            import numpy as np
            from repro.extsort import SpillDir
            spill = SpillDir(root=sys.argv[1])
            spill.write_run(np.arange(1024, dtype=np.uint32))
            print(spill.path, flush=True)
            time.sleep(60)
        """)
        proc = subprocess.Popen(
            [sys.executable, "-c", child, str(tmp_path)],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        try:
            path = proc.stdout.readline().strip()
            assert os.path.isdir(path)
            # While the child lives its directory is not an orphan.
            assert sweep_orphaned_spill_dirs(str(tmp_path)) == []
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            for _ in range(50):  # pid death can lag the wait() a tick
                removed = sweep_orphaned_spill_dirs(str(tmp_path))
                if removed:
                    break
                time.sleep(0.1)
            assert removed == [path]
            assert live_spill_dirs(str(tmp_path)) == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    def test_sweep_spares_live_owners(self, tmp_path):
        with SpillDir(root=str(tmp_path)) as spill:
            spill.write_run(np.arange(16, dtype=np.uint32))
            # This process is alive, so its directory survives the sweep.
            assert sweep_orphaned_spill_dirs(str(tmp_path)) == []
            assert os.path.isdir(spill.path)
        assert live_spill_dirs(str(tmp_path)) == []

    def test_exit_sweep_reclaims_orphans(self, tmp_path):
        """A process that imports ``repro`` reclaims the spill
        directories of dead processes when it exits, without spilling
        anything itself."""
        dead = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True, timeout=60,
        )
        orphan = tmp_path / f"rxspill_{int(dead.stdout)}_deadbeef"
        orphan.mkdir()
        (orphan / "run_00000.bin").write_bytes(bytes(16))
        subprocess.run(
            [sys.executable, "-c", "import repro"],
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(sys.path),
                 "REPRO_SPILL_ROOT": str(tmp_path)},
            check=True, timeout=60,
        )
        assert not orphan.exists()


class TestServiceAdmission:
    def test_over_budget_degrades_to_external(self, tmp_path):
        from repro.service import Planner, SortService

        keys = make_keys(1 << 14, seed=29)
        budget = keys.nbytes // 2  # working set = 2x nbytes > budget
        with SortService(Planner(), memory_budget=budget,
                         spill_root=str(tmp_path)) as svc:
            out = svc.sort(keys)
            assert out.sorted_keys.tobytes() == np.sort(keys).tobytes()
            assert out.decision.algorithm == "external"
            assert out.decision.source == "budget"
            report = svc.report()
        assert report.degraded_external == 1
        assert report.rejected_memory == 0
        assert live_spill_dirs(str(tmp_path)) == []

    def test_within_budget_stays_in_memory(self):
        from repro.service import Planner, SortService
        from repro.service.planner import EXTERNAL_BACKEND

        keys = make_keys(4096, seed=31)
        with SortService(Planner(),
                         memory_budget=10 * keys.nbytes) as svc:
            out = svc.sort(keys)
            assert out.decision.algorithm != "external"
            assert out.decision.backend != EXTERNAL_BACKEND
        assert svc.report().degraded_external == 0

    def test_disk_budget_rejection(self, tmp_path):
        from repro.service import Planner, SortService

        keys = make_keys(1 << 14, seed=37)
        with SortService(Planner(), memory_budget=keys.nbytes // 2,
                         disk_budget=keys.nbytes // 2,
                         spill_root=str(tmp_path)) as svc:
            with pytest.raises(MemoryBudgetError) as exc:
                svc.submit(keys)
            assert exc.value.budget_bytes == keys.nbytes // 2
            assert exc.value.required_bytes > exc.value.budget_bytes
            report = svc.report()
        assert report.rejected_memory == 1
        assert report.degraded_external == 0

    def test_per_request_budget_overrides_service(self, tmp_path):
        from repro.service import Planner, SortService

        keys = make_keys(1 << 13, seed=41)
        with SortService(Planner(), spill_root=str(tmp_path)) as svc:
            out = svc.sort(keys, memory_budget=keys.nbytes // 2)
            assert out.decision.algorithm == "external"
            assert out.sorted_keys.tobytes() == np.sort(keys).tobytes()

    def test_external_report_describes_budget_lane(self, tmp_path):
        from repro.service import Planner, SortService

        keys = make_keys(1 << 13, seed=43)
        with SortService(Planner(), memory_budget=keys.nbytes // 2,
                         spill_root=str(tmp_path)) as svc:
            svc.sort(keys)
            text = svc.report().describe()
        assert "degraded to external" in text


class TestPlannerRegime:
    def _disk_profile(self):
        from dataclasses import replace

        from repro.service import HostProfile

        return replace(
            HostProfile.default(), source="calibrated",
            disk_read_bytes_per_s=1e9, disk_write_bytes_per_s=5e8,
        )

    def test_budget_degradation(self):
        from repro.service import Planner

        d = Planner().plan(1 << 16, memory_budget=1 << 10)
        assert d.algorithm == "external"
        assert d.P == 1
        assert d.source == "budget"
        assert "budget-clamped" not in d.explain()  # nothing was forced

    def test_budget_clamps_forced_shape(self):
        from repro.service import Planner

        d = Planner().plan(1 << 16, backend="threads", P=4,
                           memory_budget=1 << 10)
        assert d.algorithm == "external"
        assert d.clamped
        assert "budget-clamped" in d.explain()

    def test_within_budget_is_unaffected(self):
        from repro.service import Planner

        free = Planner().plan(1 << 12)
        budgeted = Planner().plan(1 << 12, memory_budget=1 << 30)
        assert budgeted.algorithm == free.algorithm
        assert budgeted.P == free.P

    def test_faults_refuse_the_external_path(self):
        from repro.faults import FaultPlan
        from repro.service import Planner

        plan = FaultPlan(drop=0.01, seed=1)
        with pytest.raises(ConfigurationError):
            Planner().plan(1 << 16, memory_budget=1 << 10, faults=plan)
        with pytest.raises(ConfigurationError):
            Planner().plan(1 << 12, algorithm="external", faults=plan)

    def test_no_auto_external_without_disk_evidence(self):
        from repro.service import Planner

        # The default profile has no measured disk; even absurd sizes
        # must not route to the external regime unforced.
        d = Planner().plan(1 << 20)
        assert d.algorithm != "external"
        assert "external:localx1" not in d.candidates

    def test_external_never_joins_the_auto_race(self):
        """Measured disk rates price a forced external request, but the
        external sort never enters an auto race: it pays the in-memory
        plan's ``np.sort`` plus a merge sweep and the I/O."""
        from repro.service import Planner

        measured = Planner(profile=self._disk_profile())
        for N in (1 << 4, 1 << 16, 1 << 24):
            assert "external:localx1" not in measured.plan(N).candidates
        forced = measured.plan(1 << 16, algorithm="external")
        assert forced.est_seconds < Planner().plan(
            1 << 16, algorithm="external"
        ).est_seconds

    def test_forced_external_runs_without_evidence(self):
        from repro.service import Planner

        d = Planner().plan(1 << 12, algorithm="external")
        assert (d.algorithm, d.P) == ("external", 1)
        assert d.source == "model"

    def test_decision_table_shows_regime_split(self):
        from repro.service import Planner

        table = Planner().decision_table(
            sizes=(1 << 10, 1 << 20), memory_budget=1 << 14
        )
        lines = table.splitlines()
        assert "external" not in lines[1]
        assert "external" in lines[2]


class TestApiRouting:
    def test_forced_external(self):
        from repro.api import sort

        keys = make_keys(4096, seed=47)
        report = sort(keys, algorithm="external")
        assert report.sorted_keys.tobytes() == np.sort(keys).tobytes()
        assert (report.algorithm, report.backend, report.P) == (
            "external", "local", 1
        )

    def test_budget_degrades_forced_world(self):
        from repro.api import sort

        keys = make_keys(1 << 14, seed=53)
        report = sort(keys, P=4, backend="threads",
                      memory_budget=keys.nbytes // 2)
        assert report.algorithm == "external"
        assert report.sorted_keys.tobytes() == np.sort(keys).tobytes()

    def test_within_budget_keeps_requested_path(self):
        from repro.api import sort

        keys = make_keys(4096, seed=59)
        report = sort(keys, P=4, memory_budget=10 * keys.nbytes)
        assert report.algorithm != "external"

    def test_external_refuses_faults(self):
        from repro.api import sort
        from repro.faults import FaultPlan

        keys = make_keys(4096, seed=61)
        with pytest.raises(ConfigurationError):
            sort(keys, algorithm="external",
                 faults=FaultPlan(drop=0.01, seed=1))

    def test_traced_external_carries_spill_spans(self):
        from repro.api import sort

        keys = make_keys(4096, seed=67)
        report = sort(keys, algorithm="external", trace=True)
        assert report.tracers
        counters = report.tracers[0].counters
        assert counters.get("algo.external", 0) == 1
        assert counters.get("ext.runs", 0) > 0
        assert counters.get("ext.spill_bytes", 0) > 0
        names = {
            (cat, str(name))
            for cat, name, _s, _e, _p in report.tracers[0].spans
        }
        assert ("spill", "write") in names
        assert ("spill", "read") in names
        assert ("merge", "external") in names


class TestPredictExternal:
    def test_closed_form_scales_with_input(self):
        from repro.theory import predict_external

        small = predict_external(1 << 16)
        large = predict_external(1 << 20)
        assert 0 < small.total < large.total

    def test_smaller_budget_never_cheaper(self):
        from repro.theory import predict_external

        tight = predict_external(1 << 20, memory_budget=1 << 16)
        loose = predict_external(1 << 20, memory_budget=1 << 24)
        assert tight.total >= loose.total


@settings(max_examples=30, deadline=None)
@given(
    keys=hnp.arrays(np.uint32, st.integers(1, 400),
                    elements=st.integers(0, 2**32 - 1)),
    budget=st.integers(16, 512),
)
def test_property_byte_equality_under_tiny_budgets(keys, budget):
    # The default spill root; SpillDir removes its directory on exit.
    out, _report = external_sort(keys, budget)
    assert out.tobytes() == np.sort(keys).tobytes()
