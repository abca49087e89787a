"""Online adaptation (PR 9): the self-recalibrating planner loop.

Pins the contracts behind :mod:`repro.service.adapt` and the
queue-driven :class:`~repro.service.pool.WorldPool` autoscaler:

* correction factors never escape the ``[0.25, 4.0]`` clamp and decay
  toward the neutral 1.0 without traffic (hypothesis properties over
  arbitrary sample streams and clock skips);
* ``plan(adapt=False)`` and armed fault plans are *byte-identical* to a
  planner with no adapter at all — adaptation is opt-in per request and
  never leaks into the fault-clamped path;
* an unobserved key's adapted price equals its static price (adaptation
  moves decisions on evidence only), while sustained slow observations
  flip the decision away from the mispriced candidate;
* the whole adapter state round-trips through the persisted profile
  schema (older /1 and /2 files are rejected, while a /3 file written
  before the overlap pipeline's removal still loads);
* the pool prespawns on sustained backlog, shrinks on sustained quiet
  (one hysteresis violation in either direction must not thrash), and
  reaps TTL-expired idle worlds on acquire — not only on release.
"""

import json
import math
import warnings
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.service import (
    BenchHistory,
    HostProfile,
    Planner,
    RequestAdapter,
    SortService,
    WorldPool,
)
from repro.service.adapt import CLAMP, CorrectionState
from repro.service.profile import PROFILE_SCHEMA
from repro.trace.recorder import Tracer


class FakeClock:
    """Injectable monotonic clock for deterministic decay tests."""

    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make_adapter(**kw):
    kw.setdefault("clock", FakeClock())
    return RequestAdapter(HostProfile.default(), **kw)


# -- hypothesis properties: the clamp and the decay ---------------------


class TestCorrectionProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=1e-9, max_value=1e9,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=20,
        ),
        alpha=st.floats(min_value=0.05, max_value=1.0),
        dts=st.floats(min_value=0.0, max_value=1e5),
    )
    def test_factor_stays_inside_clamp(self, samples, alpha, dts):
        """No stream of measurements — however absurd — pushes a
        correction outside the BenchHistory bias clamp."""
        state = CorrectionState()
        now = 0.0
        for s in samples:
            now += dts
            value = state.update(s, now, alpha, decay_s=600.0)
            assert CLAMP[0] <= value <= CLAMP[1]
            assert CLAMP[0] <= state.effective(now, 600.0) <= CLAMP[1]

    @settings(max_examples=50, deadline=None)
    @given(
        value=st.floats(min_value=CLAMP[0], max_value=CLAMP[1]),
        age=st.floats(min_value=0.0, max_value=1e7),
        decay_s=st.floats(min_value=1.0, max_value=1e4),
    )
    def test_decay_moves_toward_neutral(self, value, age, decay_s):
        """The effective factor always lies between the stored EWMA and
        1.0, and the distance to 1.0 shrinks monotonically with age."""
        state = CorrectionState(value=value, stamp_s=0.0, updates=1)
        eff = state.effective(age, decay_s)
        lo, hi = min(value, 1.0), max(value, 1.0)
        assert lo - 1e-12 <= eff <= hi + 1e-12
        assert abs(eff - 1.0) <= abs(value - 1.0) + 1e-12
        later = state.effective(age + decay_s, decay_s)
        assert abs(later - 1.0) <= abs(eff - 1.0) + 1e-12

    def test_decay_reaches_neutral(self):
        """A key that stops seeing traffic relaxes to (numerically) 1.0:
        ten time constants leave < 0.01% of the correction."""
        state = CorrectionState(value=4.0, stamp_s=0.0, updates=3)
        assert state.effective(10 * 600.0, 600.0) == pytest.approx(
            1.0, abs=1e-3
        )

    def test_unobserved_state_is_neutral(self):
        assert CorrectionState().effective(123.0, 600.0) == 1.0


# -- byte-identity: adapt=False and armed faults ------------------------


class TestByteIdentity:
    def _trained(self):
        clock = FakeClock()
        adapter = RequestAdapter(HostProfile.default(), clock=clock)
        # Bias the adapter hard so any leak into the static path shows.
        for _ in range(6):
            adapter.observe(N=1 << 14, backend="threads", P=1,
                            algorithm="smart", measured_s=10.0)
            adapter.observe(N=1 << 14, backend="threads", P=4,
                            algorithm="smart", measured_s=1e-5)
        return Planner(adapter=adapter)

    @settings(max_examples=30, deadline=None)
    @given(
        n_log2=st.integers(min_value=8, max_value=18),
        warm=st.booleans(),
    )
    def test_adapt_false_matches_plain_planner(self, n_log2, warm):
        plain = Planner().plan(1 << n_log2, warm=warm)
        frozen = self._trained().plan(1 << n_log2, warm=warm, adapt=False)
        assert frozen == plain

    @settings(max_examples=30, deadline=None)
    @given(n_log2=st.integers(min_value=8, max_value=18))
    def test_armed_faults_match_plain_planner(self, n_log2):
        """The fault clamp prices the clamped transport; live corrections
        measured the unclamped fast path and must not apply."""
        plain = Planner().plan(1 << n_log2, faults=True)
        adapted = self._trained().plan(1 << n_log2, faults=True)
        assert adapted == plain

    def test_unobserved_keys_price_statically(self):
        """With an attached but empty adapter every candidate's adapted
        price equals its static price — no gratuitous divergence."""
        d = Planner(adapter=make_adapter()).plan(1 << 14)
        assert d.static_candidates
        for name, static in d.static_candidates.items():
            assert d.candidates[name] == static
        plain = Planner().plan(1 << 14)
        assert (d.algorithm, d.backend, d.P) == (
            plain.algorithm, plain.backend, plain.P
        )


# -- the feedback loop actually moves decisions -------------------------


class TestAdaptedPlanning:
    def test_slow_observations_flip_the_decision(self):
        adapter = make_adapter()
        planner = Planner(backends=("threads",), adapter=adapter)
        before = planner.plan(1 << 14)
        key = (before.backend, before.P, before.algorithm)
        prefix = "" if before.algorithm == "smart" else f"{before.algorithm}:"
        static = before.static_candidates[
            f"{prefix}{before.backend}x{before.P}"
        ]
        # The chosen candidate keeps measuring 4x its static price.
        for _ in range(8):
            adapter.observe(N=1 << 14, backend=key[0], P=key[1],
                            algorithm=key[2], measured_s=static * 4.0)
        after = planner.plan(1 << 14)
        assert (after.backend, after.P, after.algorithm) != key
        assert after.source == "adapted"
        assert after.static_candidates  # both columns on the decision

    def test_explain_shows_both_columns(self):
        adapter = make_adapter()
        adapter.observe(N=1 << 14, backend="threads", P=1,
                        algorithm="smart", measured_s=10.0)
        text = Planner(adapter=adapter).plan(1 << 14).explain()
        assert "static" in text and "adapted" in text

    def test_observe_returns_clamped_factor(self):
        adapter = make_adapter(alpha=1.0)  # each sample fully adopted
        f = adapter.observe(N=1 << 14, backend="threads", P=1,
                            algorithm="smart", measured_s=1e6)
        assert f == CLAMP[1]
        assert adapter.correction("threads", 1, "smart") == CLAMP[1]
        assert adapter.correction("threads", 2, "smart") is None

    def test_correction_decays_to_neutral_without_traffic(self):
        clock = FakeClock()
        adapter = RequestAdapter(
            HostProfile.default(), decay_s=100.0, clock=clock
        )
        for _ in range(5):
            adapter.observe(N=1 << 14, backend="threads", P=1,
                            algorithm="smart", measured_s=100.0)
        assert adapter.correction("threads", 1, "smart") > 1.5
        clock.advance(100.0 * 50)
        assert adapter.correction("threads", 1, "smart") == pytest.approx(
            1.0, abs=1e-6
        )

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            RequestAdapter(alpha=0.0)
        with pytest.raises(ConfigurationError):
            RequestAdapter(alpha=1.5)


# -- persistence: profile schema /2 -------------------------------------


class TestPersistence:
    def _warm_adapter(self, clock):
        adapter = RequestAdapter(HostProfile.default(), clock=clock)
        for _ in range(4):
            adapter.observe(N=1 << 14, backend="threads", P=1,
                            algorithm="smart", measured_s=5.0)
            adapter.observe(N=1 << 14, backend="threads", P=2,
                            algorithm="smart", measured_s=1e-5)
        return adapter

    def test_state_blob_round_trip(self, tmp_path):
        clock = FakeClock(1000.0)
        adapter = self._warm_adapter(clock)
        path = str(tmp_path / "profile.json")
        adapter.profile.save(path, adapt=adapter.state_blob())

        profile, blob = HostProfile.load_with_state(path)
        assert blob is not None
        clock2 = FakeClock(7.0)  # a *fresh* monotonic origin
        restored = RequestAdapter.restore(blob, profile, clock=clock2)
        assert restored.updates == adapter.updates
        for key in (("threads", 1, "smart"), ("threads", 2, "smart")):
            assert restored.correction(*key) == pytest.approx(
                adapter.correction(*key), abs=1e-9
            )

    def test_saved_doc_is_schema_2(self, tmp_path):
        path = str(tmp_path / "profile.json")
        HostProfile.default().save(path, adapt={"updates": 0})
        doc = json.loads(open(path).read())
        assert doc["schema"] == PROFILE_SCHEMA
        assert "adapt" in doc

    @pytest.mark.parametrize("schema", ["repro-bitonic-profile/1",
                                        "repro-bitonic-profile/2"])
    def test_legacy_schema_is_rejected(self, tmp_path, schema):
        path = str(tmp_path / "profile.json")
        HostProfile.default().save(path)
        doc = json.loads(open(path).read())
        doc["schema"] = schema
        doc.pop("adapt", None)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ConfigurationError, match="re-run"):
            HostProfile.load_with_state(path)

    def test_parent_schema_3_file_still_loads(self):
        """A /3 file carrying the removed ``overlap_efficiency`` field
        and adapt ``waits`` entries loads: unknown keys are skipped."""
        path = str(Path(__file__).parent / "data" / "profile_v3_parent.json")
        profile, blob = HostProfile.load_with_state(path)
        assert profile.source == "calibrated"
        assert profile.spin_budget == 64
        assert profile.has_disk_evidence
        assert not hasattr(profile, "overlap_efficiency")
        assert blob["waits"]
        adapter = RequestAdapter.restore(blob, profile, clock=FakeClock())
        assert adapter.updates == 3
        assert adapter.correction("threads", 2, "smart") == pytest.approx(
            1.0 + 1.53 * math.exp(-30.0 / 600.0)
        )
        assert "overlap_efficiency" not in adapter.stats()

    def test_unknown_schema_raises(self, tmp_path):
        path = str(tmp_path / "profile.json")
        HostProfile.default().save(path)
        doc = json.loads(open(path).read())
        doc["schema"] = "repro-bitonic-profile/99"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ConfigurationError):
            HostProfile.load(path)

    def test_unreadable_blob_yields_fresh_adapter(self):
        adapter = RequestAdapter.restore(
            {"corrections": [{"backend": "threads"}]},  # missing keys
            clock=FakeClock(),
        )
        assert adapter.updates == 0
        assert adapter.correction("threads", 1, "smart") is None

    def test_restore_resumes_decay_from_age(self):
        """Ages, not timestamps, cross the snapshot: a correction that
        was 50s old keeps decaying from 50s on the new clock."""
        blob = {
            "decay_s": 100.0,
            "updates": 1,
            "corrections": [{
                "backend": "threads", "P": 1, "algorithm": "smart",
                "value": 3.0, "age_s": 50.0, "updates": 1,
            }],
        }
        clock = FakeClock(5.0)
        adapter = RequestAdapter.restore(blob, clock=clock)
        expected = 1.0 + 2.0 * math.exp(-50.0 / 100.0)
        assert adapter.correction("threads", 1, "smart") == pytest.approx(
            expected, abs=1e-9
        )


# -- the autoscaling pool -----------------------------------------------


def make_pool(**kw):
    kw.setdefault("tick_interval_s", 0.0)  # drive ticks by hand
    kw.setdefault("autoscale", True)
    kw.setdefault("scale_up_after", 2)
    kw.setdefault("scale_down_after", 3)
    kw.setdefault("max_worlds_per_key", 3)
    return WorldPool(**kw)


class TestAutoscale:
    def test_sustained_backlog_prespawns(self):
        with make_pool() as pool:
            for _ in range(2):
                pool.note_arrival("threads", 2)
            pool._autoscale_tick()  # tick 1: hot, below hysteresis
            assert pool.scaled_up == 0
            pool._autoscale_tick()  # tick 2: prespawn
            assert pool.scaled_up == 2
            assert pool.idle_count() == 2
            assert pool.live_count("threads", 2) == 2

    def test_one_hot_tick_does_not_scale(self):
        with make_pool() as pool:
            pool.note_arrival("threads", 2)
            pool._autoscale_tick()
            pool.note_done("threads", 2)
            pool._autoscale_tick()  # backlog gone: hysteresis resets
            pool.note_arrival("threads", 2)
            pool._autoscale_tick()  # hot again, but the streak restarted
            assert pool.scaled_up == 0

    def test_prespawn_respects_world_cap(self):
        with make_pool(max_worlds_per_key=2) as pool:
            for _ in range(8):
                pool.note_arrival("threads", 2)
            pool._autoscale_tick()
            pool._autoscale_tick()
            assert pool.live_count("threads", 2) == 2
            # Still hot, but the cap holds on further ticks.
            pool._autoscale_tick()
            pool._autoscale_tick()
            assert pool.live_count("threads", 2) == 2

    def test_sustained_quiet_shrinks_one_per_tick(self):
        with make_pool() as pool:
            pool.prewarm("threads", 2, count=2)
            pool.note_arrival("threads", 2)
            pool.note_done("threads", 2)
            for _ in range(2):  # quiet ticks below hysteresis
                pool._autoscale_tick()
            assert pool.scaled_down == 0
            pool._autoscale_tick()  # tick 3 >= scale_down_after
            assert pool.scaled_down == 1
            pool._autoscale_tick()  # one more world per further tick
            assert pool.scaled_down == 2
            assert pool.idle_count() == 0
            assert pool.live_count("threads", 2) == 0

    def test_batch_drain_is_count_aware(self):
        """k batched requests share one dispatch: note_done(count=k)
        must clear all k arrivals, or pending grows without bound."""
        with make_pool() as pool:
            for _ in range(4):
                pool.note_arrival("threads", 2)
            pool.note_done("threads", 2, count=4)
            stats = pool.stats()
            assert stats["demand"]["threadsx2"]["pending"] == 0
            pool._autoscale_tick()
            pool._autoscale_tick()
            assert pool.scaled_up == 0

    def test_counters_reach_tracer(self):
        tracer = Tracer()
        with make_pool(tracer=tracer, scale_down_after=1) as pool:
            for _ in range(2):
                pool.note_arrival("threads", 2)
            pool._autoscale_tick()
            pool._autoscale_tick()
            pool.note_done("threads", 2, count=2)
            pool._autoscale_tick()
            assert tracer.counters.get("pool.scale_up", 0) >= 1
            assert tracer.counters.get("pool.scale_down", 0) >= 1

    def test_stats_exposes_demand(self):
        with make_pool() as pool:
            pool.note_arrival("threads", 1)
            pool.note_arrival("threads", 1)
            demand = pool.stats()["demand"]["threadsx1"]
            assert demand["pending"] == 2
            assert demand["rate_hz"] >= 0.0

    def test_bad_hysteresis_rejected(self):
        with pytest.raises(ConfigurationError):
            WorldPool(scale_up_after=0, tick_interval_s=0.0)
        with pytest.raises(ConfigurationError):
            WorldPool(max_worlds_per_key=0, tick_interval_s=0.0)


class TestPoolReaping:
    def test_acquire_reaps_expired_idle(self):
        """PR 9 fix: TTL used to bind only on release — a pool whose
        traffic pattern never released would hold expired worlds
        forever.  Acquire now sweeps first."""
        with WorldPool(idle_ttl_s=0.0, tick_interval_s=0.0) as pool:
            pool.prewarm("threads", 1, count=2)
            assert pool.idle_count() == 2
            world = pool.acquire("threads", 2)  # different shape
            try:
                assert pool.reaped == 2
                assert pool.idle_count() == 0
            finally:
                pool.release(world)

    def test_background_tick_reaps_without_traffic(self):
        import time as _time

        pool = WorldPool(idle_ttl_s=0.0, tick_interval_s=0.05)
        try:
            pool.prewarm("threads", 1, count=1)
            deadline = _time.monotonic() + 5.0
            while pool.idle_count() and _time.monotonic() < deadline:
                _time.sleep(0.05)
            assert pool.idle_count() == 0
            assert pool.reaped == 1
        finally:
            pool.close()


# -- service integration ------------------------------------------------


class TestServiceIntegration:
    def test_served_requests_feed_the_adapter(self):
        adapter = RequestAdapter(HostProfile.default())
        planner = Planner(
            backends=("threads",), candidate_P=(1, 2),
            history=BenchHistory(()), adapter=adapter,
        )
        service = SortService(
            planner=planner,
            pool=WorldPool(tick_interval_s=0.0),
            queue_depth=8, batch_max=2,
        )
        try:
            rng = np.random.default_rng(0)
            for _ in range(4):
                keys = rng.integers(0, 1 << 32, 1 << 12, dtype=np.uint32)
                out = service.sort(keys)
                assert bool(np.all(np.diff(out.sorted_keys) >= 0))
            report = service.report()
        finally:
            service.close()
        assert adapter.updates >= 4
        assert report.adapt["updates"] == adapter.updates
        assert report.adapt["factors"]  # at least the served key

    def test_fault_requests_do_not_train_the_adapter(self):
        adapter = RequestAdapter(HostProfile.default())
        planner = Planner(
            backends=("threads",), candidate_P=(1, 2),
            history=BenchHistory(()), adapter=adapter,
        )
        service = SortService(
            planner=planner,
            pool=WorldPool(tick_interval_s=0.0),
            queue_depth=8, batch_max=1,
        )
        try:
            rng = np.random.default_rng(1)
            keys = rng.integers(0, 1 << 32, 1 << 12, dtype=np.uint32)
            out = service.sort(keys, faults=FaultPlan(seed=3, drop=0.05),
                               P=2)
            assert bool(np.all(np.diff(out.sorted_keys) >= 0))
        finally:
            service.close()
        assert adapter.updates == 0

    def test_adapt_counter_reaches_trace(self):
        adapter = RequestAdapter(HostProfile.default())
        planner = Planner(
            backends=("threads",), candidate_P=(1,),
            history=BenchHistory(()), adapter=adapter,
        )
        service = SortService(
            planner=planner,
            pool=WorldPool(tick_interval_s=0.0),
            queue_depth=8, batch_max=1,
        )
        try:
            rng = np.random.default_rng(2)
            keys = rng.integers(0, 1 << 32, 1 << 12, dtype=np.uint32)
            out = service.sort(keys, trace=True)
        finally:
            service.close()
        assert out.tracers is not None
        lane = out.tracers[-1]  # the service-lane tracer, after the ranks
        assert lane.counters.get("adapt.updates", 0) >= 1
