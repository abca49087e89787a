"""Tests for the persistent sort service (:mod:`repro.service`).

Covers the warm world pool, the LogGP request planner (including the
fault-safety clamp pinned as a hypothesis property) and its decision
memo, admission control, first-in first-out dispatch whether a request
runs in the dispatcher or on its caller's thread, per-request tracing
with the queue-wait
span, the calibrated host profile round-trip (older files included), and
the ``sort(service=...)`` front door bridge.
"""

import json
import sys
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admit import admit
from repro.api import sort
from repro.errors import (
    AdmissionError,
    CommunicationError,
    ConfigurationError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceError,
    SizeError,
)
from repro.faults import FaultPlan
from repro.runtime.driver import BACKENDS, spawn_world
from repro.service import (
    HostProfile,
    PlanDecision,
    Planner,
    ServiceReport,
    SortService,
    WorldPool,
)
from repro.service import service as service_mod
from repro.service.jobs import sort_shards_job
from repro.service.planner import _DEFAULT_CANDIDATE_P
from repro.service.profile import DEFAULT_NP_SORT_NS_PER_KEY
from repro.service.service import REQUEST_LOG
from repro.utils.rng import make_keys


#: A /3 profile as the release before the overlap pipeline's removal
#: wrote it (see data/README.md).
_PARENT_PROFILE = Path(__file__).parent / "data" / "profile_v3_parent.json"


@pytest.fixture(scope="module")
def service():
    """One shared service for the read-only request tests (module-scoped:
    world spawning is the expensive part)."""
    svc = SortService()
    yield svc
    svc.close()


class TestWorldPool:
    def test_acquire_release_reuses(self):
        with WorldPool() as pool:
            w1 = pool.acquire("threads", 2)
            pool.release(w1)
            w2 = pool.acquire("threads", 2)
            assert w2 is w1
            pool.release(w2)
            assert pool.stats()["reused"] == 1

    def test_distinct_shapes_distinct_worlds(self):
        with WorldPool() as pool:
            a = pool.acquire("threads", 2)
            b = pool.acquire("threads", 4)
            assert a is not b and (a.size, b.size) == (2, 4)
            pool.release(a)
            pool.release(b)
            assert pool.idle_count() == 2

    def test_dead_world_replaced_on_acquire(self):
        """Satellite (c): a dead pooled world is closed and replaced
        without the caller ever seeing it."""
        with WorldPool() as pool:
            w = pool.acquire("threads", 2)
            pool.release(w)
            # The world dies while it idles: a job run on it behind the
            # pool's back fails.
            with pytest.raises(ZeroDivisionError):
                w.run(lambda c: 1 // 0)
            assert not w.healthy()
            fresh = pool.acquire("threads", 2)
            try:
                assert fresh is not w
                assert fresh.healthy()
            finally:
                pool.release(fresh)
            assert pool.stats()["restarts"] == 1

    def test_overflow_beyond_max_idle_closed(self):
        with WorldPool(max_idle_per_key=1) as pool:
            a = pool.acquire("threads", 2)
            b = pool.acquire("threads", 2)
            pool.release(a)
            pool.release(b)
            assert pool.idle_count() == 1

    def test_ttl_reaps_idle_worlds(self):
        with WorldPool(idle_ttl_s=0.0) as pool:
            a = pool.acquire("threads", 2)
            pool.release(a)  # TTL 0: reaped by the release-side sweep
            assert pool.idle_count() == 0
            assert pool.stats()["reaped"] == 1

    def test_closed_pool_refuses(self):
        pool = WorldPool()
        pool.close()
        with pytest.raises(ConfigurationError, match="closed"):
            pool.acquire("threads", 2)

    @staticmethod
    def _shelve(pool, count):
        """Put ``count`` idle one-rank worlds on ``pool``'s shelf."""
        worlds = [pool.acquire("threads", 1) for _ in range(count)]
        for world in worlds:
            pool.release(world)
        assert pool.idle_count() == count

    def test_acquire_reaps_expired_idle(self):
        """TTL binds on acquire too, not only on release: a pool whose
        traffic never releases must not hold expired worlds forever."""
        with WorldPool(tick_interval_s=0.0) as pool:
            self._shelve(pool, 2)
            pool._ttl = 0.0  # the shelved worlds have now expired
            world = pool.acquire("threads", 2)  # different shape
            try:
                assert pool.reaped == 2
                assert pool.idle_count() == 0
            finally:
                pool.release(world)

    def test_background_tick_reaps_without_traffic(self):
        pool = WorldPool(tick_interval_s=0.05)
        try:
            self._shelve(pool, 1)
            pool._ttl = 0.0  # expired; only the tick runs from here
            deadline = time.monotonic() + 5.0
            while pool.idle_count() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.idle_count() == 0
            assert pool.reaped == 1
        finally:
            pool.close()


class TestPlanner:
    def test_plans_are_runnable(self):
        d = Planner().plan(1 << 12)
        assert d.backend == "threads"
        assert d.P >= 1 and (1 << 12) % d.P == 0
        assert d.est_seconds > 0
        assert d.candidates  # the margins are visible

    def test_forced_overrides_respected(self):
        d = Planner().plan(1 << 12, backend="threads", P=4)
        assert (d.backend, d.P, d.source) == ("threads", 4, "forced")

    def test_indivisible_P_rejected(self):
        with pytest.raises(ConfigurationError, match="do not divide"):
            Planner().plan(1 << 12, P=3)

    def test_faulty_plan_keeps_the_default_flags(self):
        d = Planner().plan(1 << 12, faults=True)
        assert d.backend == "threads"
        assert d.clamped is False
        assert d == Planner().plan(1 << 12)

    # The fused remap's views travel through ReliableComm like any
    # payload, so an armed fault plan changes nothing the planner
    # decides: over any size and any forced P, the faulty plan equals the
    # fault-free one field for field.
    @given(
        log_n=st.integers(min_value=2, max_value=20),
        forced_P=st.sampled_from([None, 1, 2, 4]),
    )
    def test_property_faults_do_not_change_the_plan(self, log_n, forced_P):
        N = 1 << log_n
        if forced_P is not None and (N % forced_P or 0 < N // forced_P < 2):
            forced_P = None
        planner = Planner()
        plans = [
            planner.plan(N, faults=faults, P=forced_P)
            for faults in (True, False)
        ]
        assert plans[0] == plans[1]

    def test_decision_table_renders(self):
        table = Planner().decision_table(sizes=(1 << 10, 1 << 12))
        assert "backend" in table and "1,024" in table

    def test_explain_marks_choice(self):
        d = Planner().plan(1 << 12)
        assert f"{d.backend} x {d.P}" in d.explain()

    def test_default_prices_both_algorithms(self):
        d = Planner().plan(1 << 12)
        assert d.algorithm in ("smart", "sample")
        assert any(key.startswith("sample:") for key in d.candidates)
        assert any(not key.startswith("sample:") for key in d.candidates)

    def test_auto_is_the_default_spelling(self):
        a = Planner().plan(1 << 12, algorithm="auto")
        b = Planner().plan(1 << 12)
        assert (a.algorithm, a.backend, a.P) == (b.algorithm, b.backend, b.P)

    def test_forced_algorithm_respected(self):
        d = Planner().plan(1 << 12, algorithm="sample", backend="threads",
                           P=4)
        assert d.algorithm == "sample"
        assert (d.backend, d.P, d.source) == ("threads", 4, "forced")

    def test_unplannable_algorithm_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot schedule"):
            Planner().plan(1 << 12, algorithm="radix")

    @pytest.mark.parametrize("N", [1 << 12, 1 << 14, 1 << 16])
    def test_one_candidate_per_algorithm_backend_and_P(self, N):
        """Every (algorithm, backend, P) is priced once: there is no
        second, overlapped twin per configuration."""
        planner = Planner()
        cands = planner.plan(N).candidates
        assert not [name for name in cands if name.endswith("+ov")]
        keys = set()
        for name in cands:
            algo, _, shape = name.rpartition(":")
            backend, P = shape.split("x")
            keys.add((algo or "smart", backend, int(P)))
        assert len(keys) == len(cands)
        assert keys == {
            (algo, backend, P)
            for algo in ("smart", "sample")
            for backend in BACKENDS
            for P in _DEFAULT_CANDIDATE_P
        }


#: One profile shared by every example of the memo property: its price
#: memo fills across examples, so a memo key missing anything the closed
#: form reads would hand a later example a stale price.
_SHARED_PROFILE = HostProfile.default()


def _planned(profile, N, kwargs):
    """``Planner.plan`` on ``profile``, or the message of the
    ``ConfigurationError`` it raises."""
    try:
        return Planner(profile=profile).plan(N, **kwargs)
    except ConfigurationError as exc:
        return str(exc)


class TestPriceMemo:
    @settings(max_examples=100, deadline=None)
    @given(
        log_n=st.integers(min_value=2, max_value=24),
        dtype_size=st.sampled_from([4, 8]),
        faults=st.booleans(),
        algorithm=st.sampled_from([None, "smart", "sample", "external"]),
        P=st.sampled_from([None, 1, 2, 4, 8]),
        memory_budget=st.sampled_from([None, 1 << 12, 1 << 20, 1 << 28]),
    )
    def test_memoized_plans_match_fresh_ones(
        self, log_n, dtype_size, faults, algorithm, P, memory_budget,
    ):
        N = 1 << log_n
        kwargs = dict(
            dtype_size=dtype_size, faults=faults, algorithm=algorithm, P=P,
            memory_budget=memory_budget,
        )
        memoized = _planned(_SHARED_PROFILE, N, kwargs)
        assert _planned(_SHARED_PROFILE, N, kwargs) == memoized
        assert _planned(HostProfile.default(), N, kwargs) == memoized

    def test_second_plan_builds_no_schedule(self, monkeypatch):
        import importlib

        schedule_mod = importlib.import_module("repro.layouts.schedule")
        predict_mod = importlib.import_module("repro.theory.predict")
        calls = []
        real = schedule_mod.build_schedule

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(schedule_mod, "build_schedule", counting)
        monkeypatch.setattr(predict_mod, "build_schedule", counting)
        planner = Planner()
        first = planner.plan(1 << 16)
        assert calls  # the first plan of a shape runs the closed forms
        calls.clear()
        assert planner.plan(1 << 16) == first
        assert calls == []

    def test_replacing_the_profile_reprices(self):
        planner = Planner()
        before = planner.plan(1 << 14).candidates
        planner.profile = replace(
            planner.profile,
            np_sort_ns_per_key=planner.profile.np_sort_ns_per_key * 10,
        )
        after = planner.plan(1 << 14).candidates
        assert set(after) == set(before)
        assert all(after[name] > before[name] for name in before)
        assert after == Planner(profile=planner.profile).plan(
            1 << 14
        ).candidates

    def test_second_decide_prices_nothing(self, monkeypatch):
        calls = []
        real = HostProfile.estimate

        def counting(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(HostProfile, "estimate", counting)
        planner = Planner()
        first = planner.decide(admit(1 << 14, 4))
        assert calls
        calls.clear()
        assert planner.decide(admit(1 << 14, 4)) is first
        assert calls == []
        # A new profile plans afresh.
        planner.profile = replace(planner.profile)
        assert planner.decide(admit(1 << 14, 4)) == first
        assert calls

    def test_decision_memo_is_bounded(self):
        from repro.service.profile import PRICE_MEMO_LIMIT

        planner = Planner()
        for i in range(PRICE_MEMO_LIMIT + 10):  # distinct requests
            planner.decide(admit(1 << 12, 4, P=1,
                                 memory_budget=(1 << 40) + i))
        assert 0 < len(planner._plans[1]) <= PRICE_MEMO_LIMIT

    def test_memo_is_bounded(self):
        from repro.service.profile import PRICE_MEMO_LIMIT

        profile = HostProfile.default()
        for shape in range(PRICE_MEMO_LIMIT + 10):  # distinct memo keys
            profile.estimate(1 << 12, 1, "threads", dtype_size=shape + 1)
        assert 0 < len(profile._prices) <= PRICE_MEMO_LIMIT

    def test_one_rank_price_has_no_dispatch(self):
        """P=1 runs in the service's dispatcher: its price is the local
        sort alone, whatever a world's job dispatch costs."""
        p = HostProfile.default()
        sort_s = (1 << 16) * p.np_sort_ns_per_key / 1e9
        assert p.estimate(1 << 16, 1, "threads") == pytest.approx(sort_s)
        slow = p.with_backend(
            "threads", replace(p.backends["threads"], job_overhead_s=1.0)
        )
        assert slow.estimate(1 << 16, 1, "threads") == (
            p.estimate(1 << 16, 1, "threads")
        )
        assert slow.estimate(1 << 16, 2, "threads") > 1.0


class TestHostProfile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "profile.json")
        profile = HostProfile.default()
        profile.save(path)
        loaded = HostProfile.load(path)
        assert loaded == profile

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "wrong/0", "profile": {}}')
        with pytest.raises(ConfigurationError, match="schema"):
            HostProfile.load(str(path))

    def test_estimates_are_monotone_in_n(self):
        p = HostProfile.default()
        assert p.estimate(1 << 16, 2, "threads") > p.estimate(
            1 << 12, 2, "threads"
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="no backend"):
            HostProfile.default().estimate(1 << 12, 2, "mpi")

    @pytest.mark.parametrize("schema", ["repro-bitonic-profile/1",
                                        "repro-bitonic-profile/2"])
    def test_legacy_schema_is_rejected(self, tmp_path, schema):
        path = tmp_path / "profile.json"
        HostProfile.default().save(str(path))
        doc = json.loads(path.read_text())
        doc["schema"] = schema
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="re-run"):
            HostProfile.load(str(path))

    def test_parent_schema_3_file_still_loads(self, tmp_path):
        """A /3 file carrying the removed ``overlap_efficiency`` field,
        the removed world spawn cost, the removed procs backend's lane,
        ``spin_budget``, ``ship_bytes_per_s``, ``fsync_s`` and
        ``pack_us``, and an ``adapt`` blob from the removed online
        adapter loads: unknown keys and backends are skipped, and the
        blob is ignored."""
        doc = json.loads(_PARENT_PROFILE.read_text())
        assert doc["adapt"]["corrections"]
        profile = HostProfile.load(str(_PARENT_PROFILE))
        assert profile.source == "calibrated"
        assert profile.disk_read_bytes_per_s and profile.disk_write_bytes_per_s
        assert not hasattr(profile, "fsync_s")
        assert not hasattr(profile, "pack_us")
        assert not hasattr(profile, "overlap_efficiency")
        assert not hasattr(profile, "spin_budget")
        assert set(profile.backends) == {"threads"}
        assert set(asdict(profile.backends["threads"])) == {
            "L", "o", "g", "G", "job_overhead_s"
        }
        assert profile.backends["threads"].job_overhead_s == 0.001
        # The file loads exactly as it does without the blob.
        del doc["adapt"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc))
        assert HostProfile.load(str(bare)) == profile

    def test_parent_file_prices_with_the_builtin_sort_rate(self):
        """The parent /3 file's radix-era ``radix_pass_us``/``merge_us``
        are skipped; without ``np_sort_ns_per_key`` it prices local sorts
        and merges at the built-in ``np.sort`` rate."""
        raw = json.loads(_PARENT_PROFILE.read_text())["profile"]
        assert "radix_pass_us" in raw and "np_sort_ns_per_key" not in raw
        profile = HostProfile.load(str(_PARENT_PROFILE))
        assert not hasattr(profile, "radix_pass_us")
        assert not hasattr(profile, "merge_us")
        assert profile.np_sort_ns_per_key == DEFAULT_NP_SORT_NS_PER_KEY
        costs = profile.compute_costs()
        assert costs.merge == DEFAULT_NP_SORT_NS_PER_KEY / 1e3
        assert profile.estimate(1 << 16, 1, "threads") == pytest.approx(
            (1 << 16) * DEFAULT_NP_SORT_NS_PER_KEY / 1e9
        )


class TestSortServiceRequests:
    @pytest.mark.parametrize("backend", ("threads",))
    def test_submit_sorts_correctly(self, service, backend):
        keys = make_keys(1 << 11, seed=31)
        out = service.sort(keys, backend=backend, P=2)
        assert out.sorted_keys.tobytes() == np.sort(keys).tobytes()
        assert out.decision.backend == backend
        assert out.wall_s >= out.run_s > 0

    def test_parent_profile_serves_threads_requests(self):
        """A /3 profile written before the procs backend's removal (its
        procs lane and procs-only fields included) plans and serves
        threads requests."""
        planner = Planner(profile=HostProfile.load(str(_PARENT_PROFILE)))
        keys = make_keys(1 << 12, seed=33)
        with SortService(planner) as svc:
            out = svc.sort(keys)
        assert out.decision.backend == "threads"
        assert out.sorted_keys.tobytes() == np.sort(keys).tobytes()

    def test_map_returns_outcomes_in_order(self, service):
        arrays = [make_keys(1 << 10, seed=40 + i) for i in range(5)]
        outs = service.map(arrays, backend="threads", P=2)
        for arr, out in zip(arrays, outs):
            assert out.sorted_keys.tobytes() == np.sort(arr).tobytes()
        ids = [out.request_id for out in outs]
        assert ids == sorted(ids) and len(set(ids)) == 5

    def test_traced_request_carries_queue_wait_span(self, service):
        keys = make_keys(1 << 10, seed=50)
        out = service.sort(keys, backend="threads", P=2, trace=True)
        assert out.tracers is not None and len(out.tracers) == 3
        lane = out.tracers[-1]  # service lane rides after the P ranks
        [(category, name, start, end, _parent)] = lane.spans
        assert (category, name) == ("wait", "queue")
        assert end >= start
        # The rank tracers are per-request sort traces.
        assert out.tracers[0].counters["messages"] > 0

    def test_untraced_requests_carry_no_tracers(self, service):
        out = service.sort(make_keys(1 << 10, seed=51), backend="threads", P=2)
        assert out.tracers is None

    def test_faulty_request_runs_fused_and_correct(self, service):
        keys = make_keys(1 << 11, seed=52)
        out = service.sort(keys, faults=FaultPlan(seed=9, drop=0.05), P=2,
                           trace=True)
        assert out.sorted_keys.tobytes() == np.sort(keys).tobytes()
        assert out.decision.backend == "threads"
        assert not out.decision.clamped
        assert out.fault_stats.get("decisions", 0) > 0
        for tracer in out.tracers[:2]:
            assert tracer.counters["remaps"] > 0
            assert "unpack" not in tracer.totals()

    def test_non_power_of_two_sorts_unless_smart_is_forced(self, service):
        """The planner's candidates are the (algorithm, P) pairs the
        admission contract admits: 1000 keys plan onto one rank or
        sample sort, while forced smart above one rank is refused."""
        keys = make_keys(1000, seed=53)
        out = service.sort(keys)
        assert out.sorted_keys.tobytes() == np.sort(keys).tobytes()
        with pytest.raises(SizeError, match="power-of-two"):
            service.submit(keys, algorithm="smart", backend="threads", P=2)

    def test_report_accumulates(self, service):
        report = service.report()
        assert isinstance(report, ServiceReport)
        assert report.served >= 1
        assert report.pool["spawned"] >= 1
        assert report.latency_percentile(0.5) > 0
        assert "served" in report.describe()


class TestOneRankDispatch:
    """A one-rank plan with no fault plan runs on a one-rank
    communicator, on the caller's thread or the dispatcher's: no world
    is spawned or acquired."""

    @staticmethod
    def _service(**kwargs):
        return SortService(pool=WorldPool(tick_interval_s=0.0), **kwargs)

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    def test_untraced(self, dtype):
        keys = make_keys(1 << 12, seed=200).astype(dtype)
        if dtype is np.int64:
            keys -= 1 << 31  # negative keys too
        with self._service() as svc:
            out = svc.sort(keys, P=1)
            spawned = svc.pool.stats()["spawned"]
        assert out.decision.P == 1 and out.tracers is None
        assert out.sorted_keys.tobytes() == np.sort(keys).tobytes()
        assert spawned == 0

    def test_traced(self):
        keys = make_keys(1 << 12, seed=201)
        with self._service() as svc:
            out = svc.sort(keys, P=1, trace=True)
            spawned = svc.pool.stats()["spawned"]
        assert out.sorted_keys.tobytes() == np.sort(keys).tobytes()
        assert spawned == 0
        rank, lane = out.tracers
        assert rank.rank == 0
        assert "local_sort" in [span[0] for span in rank.spans]
        assert lane.rank == 1  # the service lane, after the one rank
        assert [tuple(span[:2]) for span in lane.spans] == [("wait", "queue")]

    def test_runs_in_submission_order(self):
        """Queued requests run first in, first out, whatever their
        shapes: no later request overtakes an earlier one."""
        arrays = [make_keys(size, seed=210 + i)
                  for i, size in enumerate((4096, 1024, 4096, 1024))]
        with self._service() as svc:
            # Holding the queue's lock keeps the dispatcher from taking
            # anything until all four requests are queued.
            with svc._cond:
                tickets = [svc.submit(a, P=1) for a in arrays]
            outs = [t.result(60) for t in tickets]
            report = svc.report()
        assert [r["id"] for r in report.requests] == [
            t.request_id for t in tickets
        ]
        for arr, out in zip(arrays, outs):
            assert out.sorted_keys.tobytes() == np.sort(arr).tobytes()
        assert report.pool["spawned"] == 0

    def test_fault_armed_request_takes_a_world(self):
        keys = make_keys(1 << 12, seed=230)
        with self._service() as svc:
            out = svc.sort(keys, P=1, faults=FaultPlan(seed=9, drop=0.05))
            spawned = svc.pool.stats()["spawned"]
        assert out.decision.P == 1
        assert out.sorted_keys.tobytes() == np.sort(keys).tobytes()
        assert spawned == 1


def _until(predicate, timeout=60.0):
    """Poll ``predicate`` until it holds (a test bug if it never does)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "the condition never held"
        time.sleep(0.001)


class _JobSpy:
    """Stands in for the service's rank program: records which thread
    ran each request (told apart by key count), holds the request of
    ``hold`` keys until :attr:`gate` is set, and fails the one of
    ``fail`` keys."""

    def __init__(self, monkeypatch, hold=None, fail=None):
        self.ran = []
        self.entered = threading.Event()
        self.gate = threading.Event()
        real = service_mod.sort_shards_job

        def job(comm, shards, *args, **kwargs):
            size = shards[0].size
            self.ran.append((size, threading.current_thread().name))
            if size == hold:
                self.entered.set()
                assert self.gate.wait(60)
            if size == fail:
                raise CommunicationError("planted failure")
            return real(comm, shards, *args, **kwargs)

        monkeypatch.setattr(service_mod, "sort_shards_job", job)


class TestCallerThreadRun:
    """``sort()`` on an idle service runs a one-rank request on the
    calling thread, under the running token it shares with the
    dispatcher: requests still run one at a time, first in, first out."""

    _service = staticmethod(TestOneRankDispatch._service)
    A, B, C = (make_keys(n, seed=240 + n) for n in (1024, 2048, 4096))

    def test_idle_service_runs_on_the_calling_thread(self, monkeypatch):
        spy = _JobSpy(monkeypatch)
        with self._service() as svc:
            here = svc.sort(self.A, P=1)
            queued = svc.submit(self.A, P=1).result(60)
        assert here.sorted_keys.tobytes() == np.sort(self.A).tobytes()
        assert queued.sorted_keys.tobytes() == here.sorted_keys.tobytes()
        # submit() stays asynchronous: the dispatcher runs its request.
        assert [name for _, name in spy.ran] == [
            threading.current_thread().name, "sort-service-dispatch"
        ]

    def test_a_call_behind_a_running_request_waits_its_turn(
            self, monkeypatch):
        spy = _JobSpy(monkeypatch, hold=self.A.size)
        outs = {}
        with self._service() as svc:
            first = threading.Thread(
                target=lambda: outs.update(a=svc.sort(self.A, P=1)),
                name="caller-a",
            )
            first.start()
            assert spy.entered.wait(60)  # A runs on its caller's thread
            second = threading.Thread(
                target=lambda: outs.update(b=svc.sort(self.B, P=1)),
                name="caller-b",
            )
            second.start()
            _until(lambda: len(svc._queue) == 1)  # B queued behind A
            third = svc.submit(self.C, P=1)
            spy.gate.set()
            first.join(60)
            second.join(60)
            outs["c"] = third.result(60)
            report = svc.report()
        ids = [outs[k].request_id for k in "abc"]
        assert ids == sorted(ids)
        assert [r["id"] for r in report.requests] == ids
        assert spy.ran == [(1024, "caller-a"),
                           (2048, "sort-service-dispatch"),
                           (4096, "sort-service-dispatch")]
        for k, keys in zip("abc", (self.A, self.B, self.C)):
            assert outs[k].sorted_keys.tobytes() == np.sort(keys).tobytes()

    def test_a_call_never_overtakes_a_queued_request(self):
        with self._service() as svc:
            # Holding the queue's lock keeps the dispatcher from taking
            # B: nothing runs, but B is queued, so A must queue too.
            with svc._cond:
                queued = svc.submit(self.B, P=1)
                p, here = svc._admit(self.A, True, P=1)
            assert not here
            outs = [queued.result(60), p.ticket.result(60)]
            report = svc.report()
        assert [r["id"] for r in report.requests] == [
            o.request_id for o in outs
        ]
        assert outs[1].sorted_keys.tobytes() == np.sort(self.A).tobytes()

    def test_an_overdue_call_expires_and_never_runs(self, monkeypatch):
        spy = _JobSpy(monkeypatch, hold=self.A.size)
        with self._service() as svc:
            first = threading.Thread(target=svc.sort, args=(self.A,),
                                     kwargs={"P": 1})
            first.start()
            assert spy.entered.wait(60)
            with pytest.raises(RequestTimeoutError):
                # Queued behind A, and overdue before A lets go.
                svc.sort(self.B, P=1, deadline_s=0.05)
            spy.gate.set()
            first.join(60)
            svc.close()  # drains: the dispatcher expires B
            report = svc.report()
        assert (report.served, report.expired, report.failed) == (1, 1, 0)
        assert [size for size, _ in spy.ran] == [self.A.size]

    def test_a_raise_fails_only_that_call(self, monkeypatch):
        spy = _JobSpy(monkeypatch, fail=self.A.size)
        with self._service() as svc:
            with pytest.raises(CommunicationError, match="planted"):
                svc.sort(self.A, P=1)
            out = svc.sort(self.B, P=1)
            report = svc.report()
        assert out.sorted_keys.tobytes() == np.sort(self.B).tobytes()
        assert (report.served, report.failed) == (1, 1)
        # The token came back: the next call ran on its caller too.
        me = threading.current_thread().name
        assert spy.ran == [(1024, me), (2048, me)]

    def test_concurrent_calls_run_one_at_a_time(self, monkeypatch):
        """Eight callers on two cores, with a short switch interval:
        every call gets its own keys sorted, no two requests ever run at
        once, and the log lists ids in admission order."""
        real = service_mod.sort_shards_job
        lock = threading.Lock()
        running, overlaps = [0], []

        def job(*args, **kwargs):
            with lock:
                running[0] += 1
                if running[0] > 1:
                    overlaps.append(running[0])
            try:
                return real(*args, **kwargs)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(service_mod, "sort_shards_job", job)
        errors = []

        def caller(svc, i):
            try:
                for j in range(25):
                    keys = make_keys(256 + 8 * i, seed=1000 * i + j)
                    out = svc.sort(keys, P=1)
                    assert out.sorted_keys.tobytes() == (
                        np.sort(keys).tobytes()
                    )
            except BaseException as exc:  # noqa: BLE001 — collected
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with self._service() as svc:
                threads = [threading.Thread(target=caller, args=(svc, i))
                           for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(120)
                assert not any(t.is_alive() for t in threads)
                report = svc.report()
        finally:
            sys.setswitchinterval(switch)
        assert errors == [] and overlaps == []
        assert (report.served, report.failed) == (200, 0)
        ids = [r["id"] for r in report.requests]
        assert ids == sorted(ids)

    @pytest.mark.parametrize("queued", [False, True])
    def test_close_during_a_caller_thread_run_drains(self, monkeypatch,
                                                     queued):
        spy = _JobSpy(monkeypatch, hold=self.A.size)
        outs = {}
        svc = self._service()
        first = threading.Thread(
            target=lambda: outs.update(a=svc.sort(self.A, P=1))
        )
        first.start()
        assert spy.entered.wait(60)
        behind = svc.submit(self.B, P=1) if queued else None
        closer = threading.Thread(target=svc.close)
        closer.start()
        _until(lambda: svc._closed)
        with pytest.raises(ServiceClosedError):
            svc.sort(self.C, P=1)
        # close() returns, and the dispatcher stops, only once no
        # request runs.
        closer.join(0.2)
        assert closer.is_alive() and svc._dispatcher.is_alive()
        spy.gate.set()
        first.join(60)
        closer.join(60)
        assert not closer.is_alive() and not svc._dispatcher.is_alive()
        assert outs["a"].sorted_keys.tobytes() == np.sort(self.A).tobytes()
        if queued:
            assert behind.result(0).sorted_keys.tobytes() == (
                np.sort(self.B).tobytes()
            )
        assert svc.report().served == 1 + queued


class TestRequestLog:
    def test_report_keeps_the_last_records(self):
        total = REQUEST_LOG + 50
        with SortService(pool=WorldPool(tick_interval_s=0.0)) as svc:
            ids = [
                svc.sort(make_keys(4, seed=i), P=1).request_id
                for i in range(total)
            ]
            report = svc.report()
        assert report.served == total == 1074
        assert [r["id"] for r in report.requests] == ids[-REQUEST_LOG:]
        assert f"last {REQUEST_LOG} requests" in report.describe()


class TestAdmissionControl:
    def test_queue_full_rejects(self):
        with SortService(queue_depth=1) as svc:
            # The first request parks in the queue while the dispatcher
            # picks it up; the burst behind it must hit the bound.
            tickets, rejected = [], 0
            for i in range(20):
                try:
                    tickets.append(
                        svc.submit(make_keys(1 << 12, seed=i),
                                   backend="threads", P=2)
                    )
                except AdmissionError as exc:
                    assert exc.reason == "queue-full"
                    rejected += 1
            for t in tickets:
                t.result(60)
            assert rejected > 0
            assert svc.report().rejected_queue_full == rejected

    def test_deadline_sheds(self):
        with SortService() as svc:
            with pytest.raises(AdmissionError) as err:
                svc.submit(make_keys(1 << 14, seed=1), deadline_s=1e-12)
            assert err.value.reason == "deadline"
            assert err.value.est_seconds > 0
            assert svc.report().shed_deadline == 1

    def test_per_request_deadline_overrides_default(self):
        """The service has no deadline of its own: a request without one
        is never shed, and the caller's own deadline sheds."""
        with SortService() as svc:
            out = svc.sort(make_keys(1 << 10, seed=2), backend="threads", P=1)
            assert out.sorted_keys[0] <= out.sorted_keys[-1]
            with pytest.raises(AdmissionError):
                svc.submit(make_keys(1 << 14, seed=3), deadline_s=1e-12)

    def test_concurrent_submits_all_accounted(self):
        """Many threads on one bounded queue: every submit ends as a
        result or a typed queue-full rejection, and the counters agree."""
        outcomes = {"ok": 0, "rejected": 0}
        lock = threading.Lock()
        with SortService(queue_depth=8) as svc:
            def client(seed):
                try:
                    ticket = svc.submit(make_keys(1 << 10, seed=seed),
                                        backend="threads", P=2)
                except AdmissionError as exc:
                    assert exc.reason == "queue-full"
                    with lock:
                        outcomes["rejected"] += 1
                    return
                ticket.result(60)
                with lock:
                    outcomes["ok"] += 1

            threads = [
                threading.Thread(target=client, args=(100 + i,))
                for i in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            report = svc.report()
        assert outcomes["ok"] + outcomes["rejected"] == 12
        assert outcomes["ok"] >= 1
        assert report.served == outcomes["ok"]
        assert report.rejected_queue_full == outcomes["rejected"]

    def test_admission_errors_are_service_errors(self):
        assert issubclass(AdmissionError, ServiceError)
        assert issubclass(ServiceClosedError, ServiceError)


class TestLadderSeam:
    """``perfbench/ladder.py`` calls ``sort_shards_job`` positionally,
    ``fused``/``grouped`` and ``overlap``/``chunks`` included, and reads
    them off the plan."""

    def test_positional_call_sorts(self):
        keys = make_keys(1 << 12, seed=31)
        d = Planner().plan(keys.size)
        assert (d.fused, d.grouped, d.overlap, d.chunks) == (
            True, False, False, 1
        )
        n = keys.size // 2
        rank_args = [
            ([keys[r * n:(r + 1) * n]], d.fused, d.grouped, False, None,
             d.overlap, d.chunks, "smart")
            for r in range(2)
        ]
        with spawn_world(2, "threads") as world:
            parts = world.run(sort_shards_job, rank_args=rank_args)
        out = np.concatenate([outs[0] for outs, _tracers in parts])
        assert out.tobytes() == np.sort(keys).tobytes()

    def test_overlap_true_raises(self):
        keys = make_keys(1 << 12, seed=32)
        n = keys.size // 2
        rank_args = [
            ([keys[r * n:(r + 1) * n]], True, True, False, None, True, 4,
             "smart")
            for r in range(2)
        ]
        with spawn_world(2, "threads") as world:
            with pytest.raises(ConfigurationError, match="overlap"):
                world.run(sort_shards_job, rank_args=rank_args)


class _GatedPool(WorldPool):
    """Holds the first dispatch in ``acquire`` until ``gate`` is set,
    with ``entered`` set once the dispatcher is parked there."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.gate = threading.Event()

    def acquire(self, backend, P):
        if not self.entered.is_set():
            self.entered.set()
            assert self.gate.wait(60)
        return super().acquire(backend, P)


class TestDeadlinePropagation:
    def test_pending_ticket_times_out_typed(self):
        with SortService() as svc:
            ticket = svc.submit(make_keys(1 << 16, seed=1),
                                backend="threads", P=2)
            with pytest.raises(RequestTimeoutError) as exc:
                ticket.result(timeout=1e-6)
            assert exc.value.stage == "result-wait"
            ticket.result(60)  # the request itself still completes

    def test_overdue_request_expires_in_queue_not_on_a_world(self):
        """A request whose deadline dies while queued is failed typed at
        dispatch — it never runs after the caller gave up."""
        pool = _GatedPool()
        with SortService(pool=pool, queue_depth=8) as svc:
            # Park a request on the dispatcher so the next one ages in
            # the queue: it holds the dispatcher until released.
            slow = svc.submit(make_keys(1 << 10, seed=2),
                              backend="threads", P=2)
            assert pool.entered.wait(60)  # dispatched: the queue is empty
            # The deadline clears the admission estimate (a tiny sort)
            # and has passed before the parked request frees the
            # dispatcher.
            deadline_s = 0.03
            doomed = svc.submit(make_keys(1 << 10, seed=3),
                                backend="threads", P=4,
                                deadline_s=deadline_s)
            submitted = time.perf_counter()
            while time.perf_counter() - submitted <= deadline_s:
                time.sleep(deadline_s / 4)
            pool.gate.set()
            with pytest.raises(RequestTimeoutError) as exc:
                doomed.result(60)
            assert exc.value.stage == "dispatch"
            slow.result(120)
            report = svc.report()
            # The expired request is accounted in its own counter, not
            # silently dropped (and not double-counted as failed).
            assert report.expired == 1
            assert report.failed == 0

    def test_generous_deadline_passes_through(self):
        with SortService() as svc:
            out = svc.sort(make_keys(1 << 10, seed=4), backend="threads",
                           P=2, deadline_s=60.0)
            assert out.sorted_keys[0] <= out.sorted_keys[-1]


class TestServiceLifecycle:
    def test_close_is_idempotent_and_rejects_new_work(self):
        svc = SortService()
        svc.sort(make_keys(1 << 10, seed=60), backend="threads", P=1)
        svc.close()
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit(make_keys(1 << 10, seed=61))

    def test_close_without_drain_fails_pending(self):
        svc = SortService()
        tickets = [
            svc.submit(make_keys(1 << 12, seed=70 + i), backend="threads", P=2)
            for i in range(6)
        ]
        svc.close(drain=False)
        outcomes, closed = 0, 0
        for t in tickets:
            try:
                t.result(60)
                outcomes += 1
            except ServiceClosedError:
                closed += 1
        assert outcomes + closed == len(tickets)

    def test_context_manager(self):
        with SortService() as svc:
            out = svc.sort(make_keys(1 << 10, seed=80), backend="threads", P=1)
            assert out.sorted_keys[0] <= out.sorted_keys[-1]


class TestSortFrontDoorBridge:
    """``sort(service=...)`` routes through the service."""

    def test_explicit_args_are_forced_overrides(self, service):
        keys = make_keys(1 << 11, seed=90)
        report = sort(keys, 2, backend="threads", service=service)
        assert (report.backend, report.P) == ("threads", 2)
        assert report.sorted_keys.tobytes() == np.sort(keys).tobytes()
        assert report.verified

    def test_defaults_mean_planner_chooses(self, service):
        keys = make_keys(1 << 11, seed=91)
        report = sort(keys, service=service)
        assert report.backend == "threads"
        assert keys.size % report.P == 0

    def test_traced_bridge_builds_phase_report(self, service):
        keys = make_keys(1 << 11, seed=92)
        report = sort(keys, 2, backend="threads", trace=True, service=service)
        assert report.phases is not None
        assert report.tracers is not None

    def test_P_required_without_service(self):
        with pytest.raises(ConfigurationError, match="P is required"):
            sort(make_keys(1 << 10, seed=93))

    def test_service_runs_only_spmd_algorithms(self, service):
        with pytest.raises(ConfigurationError,
                           match="runs only the SPMD algorithms"):
            sort(make_keys(1 << 10, seed=94), 2, algorithm="radix",
                 service=service)

    def test_default_routes_across_algorithms(self, service):
        keys = make_keys(1 << 11, seed=95)
        report = sort(keys, service=service)  # algorithm resolves to auto
        assert report.algorithm in ("smart", "sample")
        assert report.sorted_keys.tobytes() == np.sort(keys).tobytes()

    def test_forced_sample_via_service(self, service):
        keys = make_keys(1 << 11, seed=96)
        report = sort(keys, 2, algorithm="sample", backend="threads",
                      service=service)
        assert report.algorithm == "sample"
        assert (report.backend, report.P) == ("threads", 2)
        assert report.sorted_keys.tobytes() == np.sort(keys).tobytes()
