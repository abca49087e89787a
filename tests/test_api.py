"""The unified front door (`repro.api.sort`)."""

import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest

import repro
from repro.api import SORT_ALGORITHMS, SORT_BACKENDS, SortReport, sort
from repro.errors import ConfigurationError, VerificationError
from repro.faults import FaultPlan
from repro.runtime import jobs, run_spmd, spawn_world
from repro.service import SortService
from repro.sorts import base
from repro.utils.rng import make_keys


@pytest.fixture
def svc():
    with SortService() as service:
        yield service


def _spy_partitions(monkeypatch, name: str) -> dict:
    """Record the partition each rank's SPMD sort returns, by rank."""
    parts = {}
    real = getattr(jobs, name)

    def spy(comm, shard, **kwargs):
        parts[comm.rank] = real(comm, shard, **kwargs)
        return parts[comm.rank]

    monkeypatch.setattr(jobs, name, spy)
    return parts


def _offset(view: np.ndarray, whole: np.ndarray) -> int:
    """Where ``view`` starts inside ``whole``, in keys."""
    start = view.__array_interface__["data"][0]
    return (start - whole.__array_interface__["data"][0]) // whole.itemsize


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
    @pytest.mark.parametrize("backend", ["threads"])
    def test_sorts_and_verifies(self, backend):
        keys = make_keys(1 << 10, seed=7)
        report = sort(keys, 4, backend=backend)
        np.testing.assert_array_equal(report.sorted_keys, np.sort(keys))
        assert report.backend == backend
        assert report.wall_seconds > 0
        assert report.stats is None  # nothing simulated on a real run

    @pytest.mark.parametrize("backend", ["threads"])
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


class TestOverlappedVerification:
    """The exact reference sorts on the calling thread while the ranks
    (or the service) sort, and still catches a wrong answer."""

    def _door(self, door, svc, P=2):
        if door == "sort":
            return lambda keys, **kw: sort(keys, P, backend="threads", **kw)
        return lambda keys, **kw: sort(
            keys, P, backend="threads", algorithm="smart", service=svc, **kw
        )

    @pytest.mark.parametrize("door", ["sort", "service"])
    def test_planted_wrong_answer_is_caught(self, monkeypatch, svc, door):
        real = jobs.spmd_bitonic_sort

        def reversed_on_rank_1(comm, shard, **kwargs):
            part = real(comm, shard, **kwargs)
            if comm.rank == 1:
                part[...] = part[::-1].copy()
            return part

        monkeypatch.setattr(jobs, "spmd_bitonic_sort", reversed_on_rank_1)
        keys = make_keys(1 << 12, seed=21)
        expected = np.sort(keys)
        n = keys.size // 2
        planted = expected.copy()
        planted[n:] = planted[n:][::-1]
        bad = int(np.argmax(planted != expected))
        with pytest.raises(
            VerificationError,
            match=f"first mismatch at index {bad}: got {planted[bad]}, "
                  f"expected {expected[bad]}",
        ):
            self._door(door, svc)(keys)

    @pytest.mark.parametrize("door", ["sort", "service"])
    def test_reference_only_when_verifying(self, monkeypatch, svc, door):
        calls = []
        real = base.reference_sort

        def spy(keys):
            calls.append(keys.size)
            return real(keys)

        monkeypatch.setattr(base, "reference_sort", spy)
        keys = make_keys(1 << 12, seed=22)
        run = self._door(door, svc)
        assert run(keys, verify=False).sorted_keys.tobytes() == (
            np.sort(keys).tobytes()
        )
        assert calls == []
        run(keys)
        assert calls == [keys.size]  # one reference, none inside the check

    @pytest.mark.parametrize("door,P", [
        pytest.param("sort", 2, id="sort"),
        pytest.param("service", 2, id="service"),
        pytest.param("service", 1, id="service-P1"),
    ])
    def test_reference_sorts_while_the_ranks_sort(self, monkeypatch, svc,
                                                  door, P):
        """Rank 0 cannot finish before the reference exists: a door that
        sorted its reference after the ranks would fail here after 10 s.
        At P=1 this pins that ``submit()`` stays asynchronous: the
        service's one rank runs on its dispatcher, not on the caller."""
        ready = threading.Event()
        real_reference = base.reference_sort

        def reference(keys):
            out = real_reference(keys)
            ready.set()
            return out

        real = jobs.spmd_bitonic_sort

        def gated(comm, shard, **kwargs):
            if comm.rank == 0 and not ready.wait(10):
                raise AssertionError("the reference did not overlap")
            return real(comm, shard, **kwargs)

        monkeypatch.setattr(base, "reference_sort", reference)
        monkeypatch.setattr(jobs, "spmd_bitonic_sort", gated)
        keys = make_keys(1 << 14, seed=23)
        report = self._door(door, svc, P)(keys)
        assert report.verified
        assert report.sorted_keys.tobytes() == np.sort(keys).tobytes()


class TestResultArray:
    """Every door allocates one result array, and every rank writes its
    partition into it: nothing is concatenated."""

    @pytest.mark.parametrize("N,P", [(1 << 20, 2), (1 << 16, 4)])
    def test_smart_partitions_are_views_of_the_result(self, monkeypatch,
                                                      N, P):
        parts = _spy_partitions(monkeypatch, "spmd_bitonic_sort")
        keys = make_keys(N, seed=N % 7919)
        out = sort(keys, P, backend="threads").sorted_keys
        assert out.tobytes() == np.sort(keys).tobytes()
        n = N // P
        for r in range(P):
            assert np.shares_memory(parts[r], out)
            assert parts[r].size == n and _offset(parts[r], out) == r * n

    @pytest.mark.parametrize("door", ["sort", "service"])
    def test_sample_partitions_land_at_their_offsets(self, monkeypatch, svc,
                                                     door):
        parts = _spy_partitions(monkeypatch, "spmd_sample_sort")
        keys = make_keys(1 << 14, seed=31, distribution="low-entropy")
        if door == "sort":
            report = sort(keys, 4, backend="threads", algorithm="sample")
        else:
            report = svc.sort(keys, algorithm="sample", backend="threads",
                              P=4)
        out = report.sorted_keys
        assert out.tobytes() == np.sort(keys).tobytes()
        sizes = [parts[r].size for r in range(4)]
        assert len(set(sizes)) > 1 and sum(sizes) == keys.size
        for r in range(4):
            assert np.shares_memory(parts[r], out)
            assert _offset(parts[r], out) == sum(sizes[:r])

    def test_shared_result_array_under_contention(self):
        """Sixteen ranks on a warm world write one result array per
        request, with the interpreter switching threads every
        microsecond: a rank writing at a wrong offset, or over a peer's
        partition, breaks the bytes."""
        P = 16
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with spawn_world(P) as world:
                for seed in range(6):
                    algorithm = ("smart", "sample")[seed % 2]
                    keys = make_keys(1 << 12, seed=seed,
                                     distribution="low-entropy")
                    n = keys.size // P
                    out = np.empty_like(keys)
                    rank_args = [
                        ([keys[r * n:(r + 1) * n]],) for r in range(P)
                    ]
                    world.run(
                        partial(jobs.sort_shards_job, algorithm=algorithm,
                                out=[out]),
                        rank_args=rank_args, timeout=60,
                    )
                    assert out.tobytes() == np.sort(keys).tobytes()
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.parametrize("algorithm", ["smart", "sample"])
    @pytest.mark.parametrize("door", ["sort", "service"])
    def test_one_rank_sorts_into_the_result(self, svc, door, algorithm):
        """A one-rank request is one sort into the result array: no
        second array of the keys' size is ever allocated."""
        keys = make_keys(1 << 16, seed=41)
        if door == "sort":
            def run():
                return sort(keys, 1, backend="threads", algorithm=algorithm,
                            verify=False).sorted_keys
        else:
            def run():
                return svc.sort(keys, algorithm=algorithm, backend="threads",
                                P=1).sorted_keys
        run()  # warm: imports and the planner's price of this shape
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            out = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.tobytes() == np.sort(keys).tobytes()
        assert peak - before < 1.5 * keys.nbytes


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

    def test_simulated_rejects_backend_options(self):
        """No door takes backend options: every remap runs the one
        exchange, so ``options=`` fails at the call."""
        with pytest.raises(TypeError, match="options"):
            sort(make_keys(64), 2, options=None)


class TestOptionsShim:
    def test_both_spellings_rejected(self):
        """The old ``backend_options=`` spelling is gone, not aliased."""
        with pytest.raises(TypeError, match="backend_options"):
            sort(make_keys(64), 2, backend="threads", backend_options=None)


class TestBackendOptions:
    """Loose backend options are refused before any world starts."""

    def test_legacy_kwargs_keep_threads_rejection(self):
        """Loose keyword options are not accepted: they fail at the
        call, before any world starts."""
        with pytest.raises(TypeError, match="arena_bytes"):
            run_spmd(2, lambda c: c.rank, backend="threads",
                     arena_bytes=1 << 16)

    def test_unknown_legacy_kwarg_rejected(self):
        with pytest.raises(TypeError, match="bogus"):
            run_spmd(2, lambda c: c.rank, backend="threads", bogus=1)


class TestTopLevelExports:
    def test_front_door_reexported(self):
        assert repro.sort is sort
        assert repro.SortReport is SortReport
        assert repro.SORT_BACKENDS is SORT_BACKENDS
        for name in ("Tracer", "PhaseReport", "build_phase_report",
                     "write_chrome_trace"):
            assert hasattr(repro, name)
        assert not hasattr(repro, "BackendOptions")

    def test_module_quickstart_runs(self):
        """The code from repro.__doc__'s quickstart (scaled down)."""
        keys = make_keys(1 << 10)
        report = repro.sort(keys, P=4)
        assert report.stats.us_per_key > 0
        report = repro.sort(keys, P=2, backend="threads", trace=True)
        assert "phase breakdown" in report.phases.describe()
