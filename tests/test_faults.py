"""The seeded chaos suite: every parallel sort must survive an adversarial
network or fail fast with a typed, diagnosable error.

Covers the acceptance contract of the fault subsystem:

* drop / duplication / delay at >= 5% rates — sorts still match ``np.sort``
  element-exactly (threads runtime and simulator);
* corruption is caught by checksums and, when unrecoverable, surfaced as a
  typed error naming the rank and phase — never a silent wrong sort;
* an injected rank crash either recovers from the last checkpoint or
  raises :class:`PeerFailedError`;
* a rate-0 plan is completely free: zero retries, byte-identical R/V/M
  counts, unchanged simulated makespan.
"""

import numpy as np
import pytest

from repro.errors import (
    CommunicationError,
    ConfigurationError,
    CorruptPayloadError,
    PeerFailedError,
    SpmdTimeoutError,
)
from repro.faults import (
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    ReliableComm,
    corrupt_payload,
    run_chaos_sort,
)
from repro.faults.plan import InjectedCrash
from repro.runtime import run_spmd, spmd_bitonic_sort
from repro.sorts import CyclicBlockedBitonicSort, SmartBitonicSort
from repro.utils.rng import make_keys


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(drop=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(corrupt=-0.1)
        with pytest.raises(ConfigurationError):
            FaultPlan(delay_us=-1.0)
        with pytest.raises(ConfigurationError):
            FaultPlan(slowdown={0: 0.5})

    def test_null_plan_detection(self):
        assert FaultPlan().is_null
        assert not FaultPlan(drop=0.01).is_null
        assert not FaultPlan(crash_rank=0).is_null
        assert not FaultPlan(slowdown={1: 2.0}).is_null

    def test_decisions_deterministic(self):
        a = FaultInjector(FaultPlan(seed=9, drop=0.3, corrupt=0.2))
        b = FaultInjector(FaultPlan(seed=9, drop=0.3, corrupt=0.2))
        verdicts_a = [a.decide("phase-1", 0, 1, s, t)
                      for s in range(30) for t in range(3)]
        verdicts_b = [b.decide("phase-1", 0, 1, s, t)
                      for s in range(30) for t in range(3)]
        assert verdicts_a == verdicts_b
        assert any(v.drop for v in verdicts_a)

    def test_different_seed_different_faults(self):
        a = FaultInjector(FaultPlan(seed=1, drop=0.5))
        b = FaultInjector(FaultPlan(seed=2, drop=0.5))
        va = [a.decide(0, 0, 1, s).drop for s in range(40)]
        vb = [b.decide(0, 0, 1, s).drop for s in range(40)]
        assert va != vb

    def test_phase_targeting(self):
        inj = FaultInjector(FaultPlan(seed=0, drop=1.0, phases={"phase-2"}))
        assert not inj.decide("phase-1", 0, 1, 0).drop
        assert inj.decide("phase-2", 0, 1, 0).drop

    def test_crash_is_one_shot(self):
        inj = FaultInjector(FaultPlan(crash_rank=1, crash_phase=2))
        assert not inj.check_crash(1, 1)  # too early
        assert not inj.check_crash(0, 5)  # wrong rank
        assert inj.check_crash(1, 2)
        assert not inj.check_crash(1, 2)  # consumed
        assert inj.stats.crashes == 1

    def test_corrupt_payload_changes_bytes(self):
        rng = np.random.default_rng(0)
        data = np.arange(64, dtype=np.uint32)
        bad = corrupt_payload(data, rng)
        assert bad.shape == data.shape
        assert not np.array_equal(bad, data)
        assert np.count_nonzero(bad != data) == 1  # single-event upset


class TestCheckpointStore:
    def test_save_load_roundtrip(self):
        store = CheckpointStore()
        store.save(0, 0, np.arange(8))
        got = store.load(0, 0)
        np.testing.assert_array_equal(got, np.arange(8))
        got[0] = 99  # the store hands out copies
        np.testing.assert_array_equal(store.load(0, 0), np.arange(8))

    def test_prunes_to_keep(self):
        store = CheckpointStore(keep=2)
        for stage in range(5):
            store.save(0, stage, np.array([stage]))
        assert store.load(0, 2) is None
        assert store.load(0, 3) is not None
        assert store.latest_stage(0) == 4

    def test_resumable_is_min_over_ranks(self):
        store = CheckpointStore()
        store.save(0, 3, np.array([1]))
        store.save(1, 2, np.array([1]))
        assert store.resumable_stage() == 2
        # A rank with no snapshot forces a from-scratch restart.
        assert store.resumable_stage(ranks=[0, 1, 2]) == -1
        assert CheckpointStore().resumable_stage() == -1

    def test_keep_must_cover_resume_window(self):
        with pytest.raises(ConfigurationError):
            CheckpointStore(keep=1)


class TestReliableCommPassthrough:
    """With no injector (or a null plan) the decorator must be invisible."""

    def test_collectives_match_plain_backend(self):
        def prog(c):
            rc = ReliableComm(c, FaultInjector(FaultPlan()))
            gathered = rc.allgather(rc.rank * 10)
            root_val = rc.bcast(rc.rank + 5, root=1)
            buckets = [np.array([rc.rank * 100 + q]) for q in range(rc.size)]
            received = rc.alltoallv(buckets)
            assert rc.retry_rounds == 0 and rc.resent_elements == 0
            return gathered, root_val, [int(x[0]) for x in received]

        out = run_spmd(4, prog)
        for rank, (gathered, root_val, received) in enumerate(out):
            assert gathered == [0, 10, 20, 30]
            assert root_val == 6
            assert received == [p * 100 + rank for p in range(4)]


CHAOS_PLANS = [
    pytest.param(FaultPlan(seed=3, drop=0.10), id="drop-10%"),
    pytest.param(FaultPlan(seed=4, duplicate=0.10), id="duplicate-10%"),
    pytest.param(FaultPlan(seed=5, delay=0.10), id="delay-10%"),
    pytest.param(FaultPlan(seed=6, corrupt=0.05), id="corrupt-5%"),
    pytest.param(
        FaultPlan(seed=7, drop=0.05, duplicate=0.05, corrupt=0.05, delay=0.05),
        id="everything-5%",
    ),
]


class TestChaosSort:
    """The real SPMD sort through an adversarial network (threads backend)."""

    @pytest.mark.parametrize("plan", CHAOS_PLANS)
    def test_sorts_exactly_under_faults(self, plan):
        P, n = 4, 128
        keys = make_keys(P * n, seed=plan.seed)
        report = run_chaos_sort(keys, P, plan, timeout=30)
        np.testing.assert_array_equal(report.sorted_keys, np.sort(keys))

    def test_smoke(self):
        """Fast seeded smoke test (run standalone by CI): 5% drops survived."""
        keys = make_keys(4 * 64, seed=1)
        report = run_chaos_sort(keys, 4, FaultPlan(seed=1, drop=0.05), timeout=30)
        np.testing.assert_array_equal(report.sorted_keys, np.sort(keys))

    def test_faults_actually_fired(self):
        P, n = 4, 256
        keys = make_keys(P * n, seed=8)
        plan = FaultPlan(seed=8, drop=0.25)
        report = run_chaos_sort(keys, P, plan, timeout=30)
        assert report.fault_stats["dropped"] > 0
        assert report.retry_rounds > 0
        assert report.resent_elements > 0

    def test_deterministic_replay(self):
        keys = make_keys(4 * 128, seed=9)
        plan = FaultPlan(seed=9, drop=0.15, corrupt=0.05)
        a = run_chaos_sort(keys, 4, plan, timeout=30)
        b = run_chaos_sort(keys, 4, plan, timeout=30)
        assert a.fault_stats["dropped"] == b.fault_stats["dropped"]
        assert a.fault_stats["corrupted"] == b.fault_stats["corrupted"]
        np.testing.assert_array_equal(a.sorted_keys, b.sorted_keys)

    def test_zero_rate_plan_adds_nothing(self):
        keys = make_keys(4 * 128, seed=10)
        report = run_chaos_sort(keys, 4, FaultPlan(seed=10), timeout=30)
        stats = report.fault_stats
        assert stats["dropped"] == stats["duplicated"] == 0
        assert stats["corrupted"] == stats["delayed"] == stats["crashes"] == 0
        assert report.retry_rounds == 0
        assert report.resent_elements == 0
        assert report.restarts == 0


class TestCorruptionIsNeverSilent:
    def test_unrecoverable_corruption_raises_typed_error(self):
        """A link that corrupts every copy must surface CorruptPayloadError
        naming the sending rank and the phase — not a wrong sort."""
        keys = make_keys(4 * 64, seed=11)
        plan = FaultPlan(seed=11, corrupt=1.0)
        with pytest.raises(CorruptPayloadError) as err:
            run_chaos_sort(keys, 4, plan, timeout=30, max_retries=3)
        assert err.value.rank is not None
        assert "phase" in str(err.value)
        assert err.value.attempts > 0

    def test_moderate_corruption_recovers_by_resend(self):
        keys = make_keys(4 * 128, seed=12)
        plan = FaultPlan(seed=12, corrupt=0.2)
        report = run_chaos_sort(keys, 4, plan, timeout=30)
        assert report.fault_stats["corrupted"] > 0
        np.testing.assert_array_equal(report.sorted_keys, np.sort(keys))


class TestCrashRecovery:
    def test_crash_recovers_from_checkpoint(self):
        P, n = 4, 128
        keys = make_keys(P * n, seed=13)
        plan = FaultPlan(seed=13, crash_rank=1, crash_phase=2)
        report = run_chaos_sort(keys, P, plan, timeout=30)
        np.testing.assert_array_equal(report.sorted_keys, np.sort(keys))
        assert report.fault_stats["crashes"] == 1
        assert report.restarts == 1
        assert report.resumed_stage >= 0  # resumed, not from scratch

    @pytest.mark.parametrize("N, faults, stage", [
        (1024, dict(drop=0.0, crash_rank=1, crash_phase=2), 1),
        (2048, dict(drop=0.05, crash_rank=2, crash_phase=3), 2),
    ])
    def test_resume_stage_is_the_same_every_run(self, N, faults, stage):
        """The crash breaks the world's barriers, but never a rank that a
        barrier had already released: every peer saves the stage it
        finished, so over 30 inputs the restart resumes from one stage,
        whatever the thread timing."""
        resumed = [
            run_chaos_sort(make_keys(N, seed=s), 4,
                           FaultPlan(seed=1, **faults),
                           timeout=30).resumed_stage
            for s in range(30)
        ]
        assert set(resumed) == {stage}, resumed

    def test_crash_without_restart_budget_raises_peer_failed(self):
        keys = make_keys(4 * 64, seed=14)
        plan = FaultPlan(seed=14, crash_rank=2, crash_phase=1)
        with pytest.raises(PeerFailedError) as err:
            run_chaos_sort(keys, 4, plan, timeout=30, max_restarts=0)
        assert err.value.rank == 2

    def test_crash_recovery_without_checkpoints_restarts_from_scratch(self):
        keys = make_keys(4 * 64, seed=15)
        plan = FaultPlan(seed=15, crash_rank=0, crash_phase=1)
        report = run_chaos_sort(keys, 4, plan, timeout=30, checkpoint=False)
        np.testing.assert_array_equal(report.sorted_keys, np.sort(keys))
        assert report.restarts == 1
        assert report.resumed_stage == -1
        assert report.checkpoint_saves == 0

    def test_injected_crash_is_typed(self):
        """The crashing rank's own error names it and the phase."""
        inj = FaultInjector(FaultPlan(crash_rank=3, crash_phase=0))
        assert inj.check_crash(3, 0)
        exc = InjectedCrash(3, "phase-0")
        assert exc.rank == 3 and exc.phase == "phase-0"


class TestSimulatorFaultPlane:
    """The same injector wired into Machine.exchange: faults must show up
    in simulated time and V/M, and a null plan must be byte-identical."""

    def test_null_plan_byte_identical(self):
        keys = make_keys(8 * 1024, seed=16)
        base = SmartBitonicSort().run(keys, 8, verify=True).stats
        inj = FaultInjector(FaultPlan(seed=16))
        armed = SmartBitonicSort().run(keys, 8, verify=True, injector=inj).stats
        assert armed.elapsed_us == base.elapsed_us
        assert armed.remaps == base.remaps
        assert armed.volume_per_proc == base.volume_per_proc
        assert armed.messages_per_proc == base.messages_per_proc
        assert inj.stats.retries == 0

    @pytest.mark.parametrize("algo_cls", [SmartBitonicSort, CyclicBlockedBitonicSort])
    def test_sorts_survive_drops_with_makespan_penalty(self, algo_cls):
        keys = make_keys(8 * 1024, seed=17)
        base = algo_cls().run(keys, 8, verify=True).stats
        inj = FaultInjector(FaultPlan(seed=17, drop=0.05))
        st = algo_cls().run(keys, 8, verify=True, injector=inj).stats
        assert inj.stats.dropped > 0
        assert inj.stats.retries > 0
        assert st.elapsed_us > base.elapsed_us  # retransmissions cost time
        assert st.messages_per_proc > base.messages_per_proc  # M delta
        assert st.volume_per_proc > base.volume_per_proc  # V delta

    def test_corruption_and_duplication_survive_and_cost(self):
        keys = make_keys(4 * 2048, seed=18)
        base = SmartBitonicSort().run(keys, 4, verify=True).stats
        inj = FaultInjector(FaultPlan(seed=18, corrupt=0.05, duplicate=0.1))
        st = SmartBitonicSort().run(keys, 4, verify=True, injector=inj).stats
        assert inj.stats.corrupted > 0 and inj.stats.duplicated > 0
        assert st.elapsed_us > base.elapsed_us

    def test_delay_inflates_makespan_only(self):
        keys = make_keys(4 * 2048, seed=19)
        base = SmartBitonicSort().run(keys, 4, verify=True).stats
        inj = FaultInjector(FaultPlan(seed=19, delay=0.3, delay_us=2000.0))
        st = SmartBitonicSort().run(keys, 4, verify=True, injector=inj).stats
        assert inj.stats.delayed > 0
        assert st.elapsed_us > base.elapsed_us
        assert st.messages_per_proc == base.messages_per_proc  # no resends

    def test_slowdown_inflates_compute(self):
        keys = make_keys(4 * 2048, seed=20)
        base = SmartBitonicSort().run(keys, 4, verify=True).stats
        inj = FaultInjector(FaultPlan(seed=20, slowdown={0: 3.0}))
        st = SmartBitonicSort().run(keys, 4, verify=True, injector=inj).stats
        assert st.elapsed_us > base.elapsed_us

    def test_simulated_crash_raises_typed_error(self):
        keys = make_keys(4 * 1024, seed=21)
        inj = FaultInjector(FaultPlan(seed=21, crash_rank=2, crash_phase=1))
        with pytest.raises(PeerFailedError) as err:
            SmartBitonicSort().run(keys, 4, injector=inj)
        assert err.value.rank == 2
        assert err.value.phase is not None

    def test_short_message_mode_survives_drops(self):
        keys = make_keys(4 * 256, seed=22)
        inj = FaultInjector(FaultPlan(seed=22, drop=0.01))
        res = SmartBitonicSort(mode="short", fused=False).run(
            keys, 4, verify=True, injector=inj
        )
        np.testing.assert_array_equal(res.sorted_keys, np.sort(keys))


class TestWatchdogEscalation:
    def test_silent_peer_raises_peer_failed(self):
        """A link that drops every copy is reported as a dead peer."""
        keys = make_keys(4 * 64, seed=23)
        plan = FaultPlan(seed=23, drop=1.0)
        with pytest.raises((PeerFailedError, SpmdTimeoutError)) as err:
            run_chaos_sort(keys, 4, plan, timeout=30, max_retries=3,
                           max_restarts=0)
        assert isinstance(err.value, CommunicationError)

    def test_error_carries_retry_history(self):
        keys = make_keys(4 * 64, seed=24)
        plan = FaultPlan(seed=24, drop=1.0)
        try:
            run_chaos_sort(keys, 4, plan, timeout=30, max_retries=2,
                           max_restarts=0)
        except (PeerFailedError, SpmdTimeoutError) as exc:
            assert exc.phase is not None
            assert len(exc.retries) > 0
        else:  # pragma: no cover
            pytest.fail("total loss must not sort")


class TestChaosExperiment:
    def test_chaos_sweep_runs_and_rate0_is_free(self):
        from repro.harness import run_experiment

        res = run_experiment("chaos-sweep", sizes=(2,), P=4,
                             rates=(0.0, 0.1))
        rate0 = res.rows["0%"]
        assert rate0[1] == 0.0  # overhead %
        assert rate0[2] == 0  # retries
        assert rate0[3] == 0  # resent elements
        assert rate0[4] == 0  # extra messages

    def test_cli_chaos_subcommand(self, capsys):
        from repro.harness.cli import main

        assert main(["chaos", "--keys", "512", "--procs", "4",
                     "--drop", "0.1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "verified against np.sort" in out

    def test_cli_chaos_crash_recovery(self, capsys):
        from repro.harness.cli import main

        assert main(["chaos", "--keys", "512", "--procs", "4",
                     "--drop", "0", "--crash-rank", "1",
                     "--crash-phase", "2"]) == 0
        out = capsys.readouterr().out
        assert "restarts=1" in out
