"""Tests for the persistent sort service (:mod:`repro.service`).

Covers the warm world pool, the LogGP request planner (including the
fault-safety clamp pinned as a hypothesis property), admission control,
same-shape batching, per-request tracing with the queue-wait span, the
calibrated host profile round-trip, and the ``sort(service=...)`` front
door bridge.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import sort
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceError,
)
from repro.faults import FaultPlan
from repro.runtime.driver import spawn_world
from repro.service import (
    BenchHistory,
    HostProfile,
    PlanDecision,
    Planner,
    ServiceReport,
    SortService,
    TenantAdmission,
    TenantPolicy,
    WorldPool,
)
from repro.service.jobs import sort_shards_job
from repro.utils.rng import make_keys


@pytest.fixture(scope="module")
def service():
    """One shared service for the read-only request tests (module-scoped:
    world spawning is the expensive part)."""
    svc = SortService(trace=False)
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
            w = pool.acquire("procs", 2)
            pool.release(w)
            w._procs[1].terminate()  # a rank dies while the world idles
            w._procs[1].join(5.0)
            fresh = pool.acquire("procs", 2)
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

    def test_profile_spin_budget_reaches_the_pool(self):
        """A calibrated spin budget in the planner's host profile is
        passed to the worlds the service spawns."""
        from dataclasses import replace

        profile = replace(HostProfile.default(), spin_budget=123)
        with SortService(planner=Planner(profile=profile)) as svc:
            assert svc.pool._options.spin_budget == 123
        with SortService() as svc:  # default profile: no override
            assert svc.pool._options is None


class TestPlanner:
    def test_plans_are_runnable(self):
        d = Planner().plan(1 << 12)
        assert d.backend in ("threads", "procs")
        assert d.P >= 1 and (1 << 12) % d.P == 0
        assert d.est_seconds > 0
        assert d.candidates  # the margins are visible

    def test_forced_overrides_respected(self):
        d = Planner().plan(1 << 12, backend="procs", P=4)
        assert (d.backend, d.P, d.source) == ("procs", 4, "forced")

    def test_indivisible_P_rejected(self):
        with pytest.raises(ConfigurationError, match="do not divide"):
            Planner().plan(1 << 12, P=3)

    def test_fault_clamp_forces_threads_unfused(self):
        d = Planner().plan(1 << 12, faults=True)
        assert d.backend == "threads"
        assert d.fused is False and d.grouped is False
        assert d.clamped is True

    def test_fault_clamp_rejects_forced_procs(self):
        with pytest.raises(ConfigurationError, match="threads backend"):
            Planner().plan(1 << 12, faults=True, backend="procs")

    # Satellite (b): the safety property, pinned by hypothesis — over
    # any size and any attempted override, an armed fault plan never
    # yields a fused or grouped decision (ReliableComm cannot fuse; the
    # planner must never *select* a config it knows will fall back).
    @given(
        log_n=st.integers(min_value=2, max_value=20),
        fused=st.sampled_from([None, True, False]),
        grouped=st.sampled_from([None, True, False]),
        forced_P=st.sampled_from([None, 1, 2, 4]),
    )
    def test_property_faulty_plans_never_fuse(
        self, log_n, fused, grouped, forced_P
    ):
        N = 1 << log_n
        if forced_P is not None and (N % forced_P or 0 < N // forced_P < 2):
            forced_P = None
        d = Planner().plan(
            N, faults=True, fused=fused, grouped=grouped, P=forced_P
        )
        assert d.backend == "threads"
        assert d.fused is False and d.grouped is False

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
            for backend in planner.backends
            for P in planner.candidate_P
        }


class TestBenchHistory:
    def test_biases_toward_measured_backend(self):
        # History saying procs is 100x the model's estimate must push the
        # planner toward threads at the benched size.
        history = BenchHistory(
            [{"backend": "procs", "keys": 1 << 14, "best_s": 50.0}]
        )
        planner = Planner(history=history)
        d = planner.plan(1 << 14)
        assert d.backend == "threads"
        assert d.source == "history"

    def test_missing_files_are_not_errors(self):
        history = BenchHistory.load(["/nonexistent/BENCH_pr999.json"])
        assert len(history) == 0

    def test_nearest_size_within_factor_four(self):
        history = BenchHistory(
            [{"backend": "threads", "keys": 1 << 14, "best_s": 0.5}]
        )
        assert history.best("threads", 1 << 15) == (0.5, 1 << 14)
        assert history.best("threads", 1 << 20) is None


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

    def test_cold_costs_more_than_warm(self):
        p = HostProfile.default()
        assert p.estimate(1 << 14, 4, "procs", warm=False) > p.estimate(
            1 << 14, 4, "procs", warm=True
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="no backend"):
            HostProfile.default().estimate(1 << 12, 2, "mpi")


class TestSortServiceRequests:
    @pytest.mark.parametrize("backend", ("threads", "procs"))
    def test_submit_sorts_correctly(self, service, backend):
        keys = make_keys(1 << 11, seed=31)
        out = service.sort(keys, backend=backend, P=2)
        assert out.sorted_keys.tobytes() == np.sort(keys).tobytes()
        assert out.decision.backend == backend
        assert out.wall_s >= out.run_s > 0

    def test_map_batches_same_shapes(self, service):
        arrays = [make_keys(1 << 10, seed=40 + i) for i in range(5)]
        outs = service.map(arrays, backend="threads", P=2)
        for arr, out in zip(arrays, outs):
            assert out.sorted_keys.tobytes() == np.sort(arr).tobytes()
        # All five were admitted back to back with one dispatcher — at
        # least one dispatch must have coalesced multiple requests.
        assert max(out.batch_size for out in outs) > 1

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

    def test_faulty_request_runs_clamped_and_correct(self, service):
        keys = make_keys(1 << 11, seed=52)
        out = service.sort(keys, faults=FaultPlan(seed=9, drop=0.05), P=2)
        assert out.sorted_keys.tobytes() == np.sort(keys).tobytes()
        assert out.decision.backend == "threads"
        assert out.decision.fused is False and out.decision.clamped
        assert out.fault_stats.get("decisions", 0) > 0

    def test_non_power_of_two_rejected(self, service):
        with pytest.raises(ConfigurationError, match="power-of-two"):
            service.submit(np.arange(1000, dtype=np.uint32))

    def test_report_accumulates(self, service):
        report = service.report()
        assert isinstance(report, ServiceReport)
        assert report.served >= 1
        assert report.pool["spawned"] >= 1
        assert report.latency_percentile(0.5) > 0
        assert "served" in report.describe()


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
        with SortService(deadline_s=1e-12) as svc:
            with pytest.raises(AdmissionError) as err:
                svc.submit(make_keys(1 << 14, seed=1))
            assert err.value.reason == "deadline"
            assert err.value.est_seconds > 0
            assert svc.report().shed_deadline == 1

    def test_per_request_deadline_overrides_default(self):
        with SortService(deadline_s=None) as svc:
            out = svc.sort(make_keys(1 << 10, seed=2), backend="threads", P=1)
            assert out.sorted_keys[0] <= out.sorted_keys[-1]
            with pytest.raises(AdmissionError):
                svc.submit(make_keys(1 << 14, seed=3), deadline_s=1e-12)

    def test_admission_errors_are_service_errors(self):
        assert issubclass(AdmissionError, ServiceError)
        assert issubclass(ServiceClosedError, ServiceError)


class TestLadderSeam:
    """``perfbench/ladder.py`` calls ``sort_shards_job`` positionally,
    ``overlap``/``chunks`` included, and reads them off the plan."""

    def test_positional_call_sorts(self):
        keys = make_keys(1 << 12, seed=31)
        d = Planner().plan(keys.size)
        assert (d.overlap, d.chunks) == (False, 1)
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
        with SortService(pool=pool, queue_depth=8, batch_max=1) as svc:
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


class TestTenantFairness:
    """Concurrent-client admission: mixed tenants on one queue."""

    def test_tenant_accounting_in_report(self):
        adm = TenantAdmission()
        with SortService(admission=adm) as svc:
            svc.sort(make_keys(1 << 10, seed=5), backend="threads", P=2,
                     tenant="acme")
            report = svc.report()
        assert report.tenants["acme"]["admitted"] == 1
        assert "acme" in report.describe()

    def test_burst_tenant_bounded_quiet_tenant_admitted(self):
        """Under a contended queue a bursting tenant is capped near its
        fair share while a quiet tenant still gets in."""
        adm = TenantAdmission(contended_fraction=0.25)
        with SortService(queue_depth=8, batch_max=1,
                         admission=adm) as svc:
            # Stall the dispatcher with one slow request so the burst
            # really contends for queue slots.
            slow = svc.submit(make_keys(1 << 20, seed=6),
                              backend="threads", P=2)
            tickets, rejections = [], []
            for i in range(12):
                try:
                    tickets.append(
                        svc.submit(make_keys(1 << 10, seed=10 + i),
                                   backend="threads", P=4,
                                   tenant="burst")
                    )
                except AdmissionError as exc:
                    rejections.append(exc.reason)
            # The burst was shed with the *tenant* reason, not only the
            # queue-full wall, and the quiet tenant still admits.
            assert "tenant-share" in rejections
            quiet = svc.submit(make_keys(1 << 10, seed=30),
                               backend="threads", P=4, tenant="quiet")
            slow.result(120)
            for t in tickets:
                t.result(60)
            quiet.result(60)
            stats = svc.report().tenants
            assert stats["burst"]["rejected_share"] >= 1
            assert stats["quiet"]["admitted"] == 1
            # Fairness bound: the burst tenant never held more queued
            # slots than the whole queue minus the quiet share floor.
            assert stats["burst"]["admitted"] <= 8

    def test_rate_limited_tenant_rejected_typed(self):
        adm = TenantAdmission(
            {"metered": TenantPolicy(rate=0.001, burst=1.0)}
        )
        with SortService(admission=adm) as svc:
            svc.sort(make_keys(1 << 10, seed=7), backend="threads", P=2,
                     tenant="metered")
            with pytest.raises(AdmissionError) as exc:
                svc.submit(make_keys(1 << 10, seed=8), tenant="metered")
            assert exc.value.reason == "tenant-rate"

    def test_concurrent_mixed_tenants_all_accounted(self):
        """Many threads, several tenants: every submit ends as a result
        or a typed rejection, and the ledger drains to zero queued."""
        adm = TenantAdmission()
        outcomes = {"ok": 0, "rejected": 0}
        lock = threading.Lock()
        with SortService(queue_depth=8, batch_max=4,
                         admission=adm) as svc:
            def client(tenant, seed):
                try:
                    ticket = svc.submit(make_keys(1 << 10, seed=seed),
                                        backend="threads", P=2,
                                        tenant=tenant)
                except AdmissionError:
                    with lock:
                        outcomes["rejected"] += 1
                    return
                ticket.result(60)
                with lock:
                    outcomes["ok"] += 1

            threads = [
                threading.Thread(target=client,
                                 args=(f"tenant{i % 3}", 100 + i))
                for i in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = svc.report().tenants
        assert outcomes["ok"] + outcomes["rejected"] == 12
        assert outcomes["ok"] >= 1
        for tenant_stats in stats.values():
            assert tenant_stats["queued"] == 0  # every admit released


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
        report = sort(keys, 2, backend="procs", service=service)
        assert (report.backend, report.P) == ("procs", 2)
        assert report.sorted_keys.tobytes() == np.sort(keys).tobytes()
        assert report.verified

    def test_defaults_mean_planner_chooses(self, service):
        keys = make_keys(1 << 11, seed=91)
        report = sort(keys, service=service)
        assert report.backend in ("threads", "procs")
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
