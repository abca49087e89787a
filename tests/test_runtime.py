"""Tests for the SPMD runtime: primitives under real concurrency, and the
message-passing implementation of Algorithm 1."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.api import sort
from repro.errors import CommunicationError, ConfigurationError, SpmdTimeoutError
from repro.layouts.schedule import smart_schedule
from repro.layouts.smart import smart_params
from repro.runtime import run_spmd, spmd_bitonic_sort
from repro.runtime.bitonic_spmd import LAST_PHASE_STEPS
from repro.runtime.threads import ThreadComm, _Barrier, _SharedState
from repro.sorts import SmartBitonicSort
from repro.utils.bits import ilog2
from repro.utils.rng import make_keys


class TestPrimitives:
    def test_allgather(self):
        out = run_spmd(4, lambda c: c.allgather(c.rank * 10))
        assert out == [[0, 10, 20, 30]] * 4

    def test_bcast(self):
        out = run_spmd(4, lambda c: c.bcast(c.rank + 99, root=2))
        assert out == [101] * 4

    def test_bcast_bad_root(self):
        with pytest.raises(CommunicationError):
            run_spmd(2, lambda c: c.bcast(1, root=5))

    def test_alltoallv_routes_by_destination(self):
        def prog(c):
            buckets = [np.array([c.rank * 10 + q]) for q in range(c.size)]
            received = c.alltoallv(buckets)
            return [int(x[0]) for x in received]

        out = run_spmd(3, prog)
        # Rank q receives p*10+q from every p.
        assert out == [[0, 10, 20], [1, 11, 21], [2, 12, 22]]

    def test_alltoallv_none_buckets(self):
        def prog(c):
            buckets = [None] * c.size
            if c.rank == 0:
                buckets[1] = np.array([7])
            received = c.alltoallv(buckets)
            return received[0] is not None

        out = run_spmd(2, prog)
        assert out == [False, True]

    def test_alltoallv_wrong_bucket_count(self):
        with pytest.raises(CommunicationError):
            run_spmd(2, lambda c: c.alltoallv([None]))

    def test_repeated_collectives_reuse_mailbox(self):
        def prog(c):
            total = 0
            for i in range(20):
                got = c.alltoallv([np.array([i]) for _ in range(c.size)])
                total += sum(int(x[0]) for x in got)
            return total

        out = run_spmd(3, prog)
        assert out == [3 * sum(range(20))] * 3

    def test_failure_propagates_and_unblocks_peers(self):
        def prog(c):
            if c.rank == 1:
                raise ValueError("rank 1 exploded")
            c.barrier()  # would deadlock if the abort didn't break it

        with pytest.raises(ValueError, match="rank 1 exploded"):
            run_spmd(3, prog)

    def test_zero_ranks_rejected(self):
        with pytest.raises(ConfigurationError):
            run_spmd(0, lambda c: None)

    def test_single_rank(self):
        assert run_spmd(1, lambda c: c.allgather("x")) == [["x"]]


class TestFailurePaths:
    """The runtime's error paths: broken barriers, bad arguments, leaks and
    the world-level timeout contract."""

    def test_broken_barrier_is_communication_error(self):
        state = _SharedState(2)
        comm = ThreadComm(0, state)
        state.barrier.abort()
        with pytest.raises(CommunicationError) as err:
            comm.barrier()
        assert isinstance(err.value.__cause__, threading.BrokenBarrierError)

    def test_abort_spares_waiters_already_released(self):
        """The last arrival releases a round; an abort right after it
        fails only the waits still pending and every later one."""
        bar = _Barrier(3)
        verdicts = []

        def waiter():
            try:
                bar.wait()
            except threading.BrokenBarrierError:
                verdicts.append("broken")
            else:
                verdicts.append("released")

        waiters = [threading.Thread(target=waiter) for _ in range(2)]
        for t in waiters:
            t.start()
        while True:  # both parked in the round
            with bar._cond:
                if bar._count == 2:
                    break
        bar.wait()
        bar.abort()
        for t in waiters:
            t.join(30)
        assert verdicts == ["released", "released"]
        pending = threading.Thread(target=waiter)
        pending.start()
        pending.join(30)
        assert verdicts[-1] == "broken" and bar.broken

    def test_barrier_holds_every_round_under_contention(self):
        """More ranks than cores and a tiny switch interval: no rank
        leaves a round before every rank has arrived in it."""
        parties, rounds = 8, 200
        bar = _Barrier(parties)
        arrived = [0] * rounds
        lock = threading.Lock()
        early = []

        def rank():
            for r in range(rounds):
                with lock:
                    arrived[r] += 1
                bar.wait()
                if arrived[r] != parties:
                    early.append(r)

        ranks = [threading.Thread(target=rank, daemon=True)
                 for _ in range(parties)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in ranks:
                t.start()
            for t in ranks:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in ranks)
        assert early == []

    def test_abort_breaks_a_pending_wait(self):
        bar = _Barrier(2)
        failed = []

        def waiter():
            with pytest.raises(threading.BrokenBarrierError):
                bar.wait()
            failed.append(True)

        t = threading.Thread(target=waiter)
        t.start()
        while True:
            with bar._cond:
                if bar._count == 1:
                    break
        bar.abort()
        t.join(30)
        assert failed == [True]

    def test_bcast_negative_root(self):
        with pytest.raises(CommunicationError, match="root"):
            run_spmd(2, lambda c: c.bcast(1, root=-1))

    def test_bcast_root_at_size(self):
        with pytest.raises(CommunicationError, match="root"):
            run_spmd(2, lambda c: c.bcast(1, root=2))

    def test_alltoallv_too_many_buckets(self):
        with pytest.raises(CommunicationError, match="buckets"):
            run_spmd(2, lambda c: c.alltoallv([None] * 3))

    def test_rank_outside_world_rejected(self):
        with pytest.raises(ConfigurationError):
            ThreadComm(2, _SharedState(2))

    def test_mailbox_cleared_after_alltoallv(self):
        """Collectives must not pin transferred arrays for the world's
        lifetime: every mailbox slot is None once the collective returns."""

        def prog(c):
            c.alltoallv([np.arange(4) for _ in range(c.size)])
            c.barrier()  # let every rank finish its pickup
            return all(
                c._state.mailbox[p][q] is None
                for p in range(c.size)
                for q in range(c.size)
            )

        assert run_spmd(3, prog) == [True, True, True]

    def test_gather_slots_cleared_after_allgather_and_bcast(self):
        def prog(c):
            c.allgather(np.arange(8))
            own_clear = c._state.gather_slots[c.rank] is None
            c.bcast(np.arange(8), root=1)
            c.barrier()  # root clears its slot after the pickup barrier
            root_clear = c._state.gather_slots[1] is None
            return own_clear and root_clear

        assert run_spmd(3, prog) == [True, True, True]

    def test_workers_are_daemon_threads(self):
        flags = run_spmd(3, lambda c: threading.current_thread().daemon)
        assert flags == [True, True, True]

    def test_timeout_is_one_world_deadline(self):
        """The join budget is shared by all ranks — a wedged world times
        out after ~timeout seconds, not size × timeout."""

        def wedge(c):
            if c.rank > 0:
                time.sleep(30)  # daemon threads: reaped at interpreter exit

        start = time.monotonic()
        with pytest.raises(SpmdTimeoutError) as err:
            run_spmd(4, wedge, timeout=0.5)
        elapsed = time.monotonic() - start
        assert elapsed < 4 * 0.5  # strictly better than per-rank budgets
        assert err.value.phase == "run_spmd"


class TestSpmdBitonicSort:
    @pytest.mark.parametrize("P,n", [(2, 64), (4, 128), (8, 256), (16, 32)])
    def test_sorts(self, P, n):
        keys = make_keys(P * n, seed=P * n + 1)

        def prog(c):
            local = keys[c.rank * n:(c.rank + 1) * n]
            return spmd_bitonic_sort(c, local)

        parts = run_spmd(P, prog)
        np.testing.assert_array_equal(np.concatenate(parts), np.sort(keys))

    def test_matches_simulator_implementation(self):
        """Two independent implementations of Algorithm 1 agree exactly,
        through every last-phase kernel: s = 1 at P = 2, s = 3 at P = 4
        and s = 6 at P = 8 (n = 512)."""
        n = 512
        for P in (2, 4, 8):
            keys = make_keys(P * n, seed=3)
            sim = SmartBitonicSort().run(keys, P).sorted_keys

            def prog(c):
                return spmd_bitonic_sort(c, keys[c.rank * n:(c.rank + 1) * n])

            spmd = np.concatenate(run_spmd(P, prog))
            np.testing.assert_array_equal(spmd, sim)

    def test_restart_lands_in_the_result_array(self):
        """A rerun that restores every phase from its checkpoints still
        writes each rank's partition into the shared result array."""
        from repro.faults.checkpoint import CheckpointStore

        P, n = 4, 256
        keys = make_keys(P * n, seed=12)
        store = CheckpointStore()
        out = np.empty_like(keys)

        def prog(c, result):
            local = keys[c.rank * n:(c.rank + 1) * n]
            return spmd_bitonic_sort(c, local, checkpoint=store, out=result)

        first = np.concatenate(run_spmd(P, lambda c: prog(c, None)))
        parts = run_spmd(P, lambda c: prog(c, out))
        assert all(np.shares_memory(part, out) for part in parts)
        assert first.tobytes() == out.tobytes() == np.sort(keys).tobytes()

    def test_duplicate_heavy_keys(self):
        P, n = 4, 256
        keys = make_keys(P * n, seed=4, distribution="low-entropy")

        def prog(c):
            return spmd_bitonic_sort(c, keys[c.rank * n:(c.rank + 1) * n])

        parts = run_spmd(P, prog)
        np.testing.assert_array_equal(np.concatenate(parts), np.sort(keys))

    def test_single_rank_sorts_locally(self):
        keys = make_keys(128, seed=5)
        parts = run_spmd(1, lambda c: spmd_bitonic_sort(c, keys))
        np.testing.assert_array_equal(parts[0], np.sort(keys))

    def test_ragged_partitions_rejected(self):
        def prog(c):
            local = make_keys(64 if c.rank == 0 else 32, seed=c.rank)
            return spmd_bitonic_sort(c, local)

        with pytest.raises(CommunicationError, match="unequal"):
            run_spmd(2, prog)

    def test_n_less_than_p(self):
        P, n = 16, 4
        keys = make_keys(P * n, seed=6)

        def prog(c):
            return spmd_bitonic_sort(c, keys[c.rank * n:(c.rank + 1) * n])

        parts = run_spmd(P, prog)
        np.testing.assert_array_equal(np.concatenate(parts), np.sort(keys))

    def test_many_concurrent_repetitions(self):
        """Stress the collectives for ordering races: many rounds, varying
        seeds, all must sort."""
        P, n = 4, 64
        for seed in range(8):
            keys = make_keys(P * n, seed=seed)

            def prog(c):
                return spmd_bitonic_sort(c, keys[c.rank * n:(c.rank + 1) * n])

            parts = run_spmd(P, prog)
            np.testing.assert_array_equal(np.concatenate(parts), np.sort(keys))


def _last_s(N: int, P: int) -> int:
    """The ``s`` of the smart schedule's last phase: the network steps
    left inside each run of ``2**s`` keys."""
    return smart_params(N, P, *smart_schedule(N, P).phases[-1].columns[0]).s


#: Every power of two from 2P to 2^16 keys at each P, plus 2^18 x 32,
#: where s = 2 at a larger partition.
LAST_PHASE_SHAPES = [
    (P, 1 << lgN)
    for P in (2, 4, 8, 16, 32, 64)
    for lgN in range(ilog2(P) + 1, 17)
] + [(32, 1 << 18)]

#: Key kinds, one per shape in turn, so that every P sees every kind.
KEY_KINDS = ("uniform", "low-entropy", "int8", "int32", "int64")


def _kind_keys(kind: str, N: int, seed: int) -> np.ndarray:
    if kind in ("uniform", "low-entropy"):
        return make_keys(N, seed=seed, distribution=kind)
    info = np.iinfo(kind)
    rng = np.random.default_rng(seed)
    return rng.integers(info.min, info.max, N, dtype=kind, endpoint=True)


class TestLastPhaseKernel:
    """The last merge phase runs only its s network steps: compare-
    exchanges while s <= LAST_PHASE_STEPS, a sort of each 2^s-key run
    above it."""

    def test_shapes_reach_every_branch(self):
        s_of = {shape: _last_s(shape[1], shape[0])
                for shape in LAST_PHASE_SHAPES}
        assert {s for (P, _N), s in s_of.items() if P == 2} == {1}
        assert s_of[(16, 1 << 12)] == 2 and s_of[(32, 1 << 18)] == 2
        for P in (4, 8):
            assert any(s > LAST_PHASE_STEPS
                       for (q, _N), s in s_of.items() if q == P)
        assert LAST_PHASE_STEPS == 2

    @pytest.mark.parametrize(
        "P,N,kind",
        [(P, N, KEY_KINDS[i % len(KEY_KINDS)])
         for i, (P, N) in enumerate(LAST_PHASE_SHAPES)],
    )
    def test_threads_sort_is_np_sort(self, P, N, kind):
        keys = _kind_keys(kind, N, seed=N + P)
        report = sort(keys, P, backend="threads")
        expected = np.sort(keys)
        assert report.sorted_keys.dtype == expected.dtype
        assert report.sorted_keys.tobytes() == expected.tobytes()


class TestSpmdFFT:
    @pytest.mark.parametrize("P,n", [(2, 64), (4, 64), (8, 32), (16, 8)])
    def test_matches_numpy(self, P, n):
        from repro.runtime import gather_natural_order, local_bitrev_slice, spmd_fft

        rng = np.random.default_rng(P * n)
        x = rng.normal(size=P * n) + 1j * rng.normal(size=P * n)

        def prog(c):
            local = local_bitrev_slice(x, c.rank, c.size)
            out = spmd_fft(c, local)
            return gather_natural_order(c, out)

        results = run_spmd(P, prog)
        for full in results:  # every rank reassembled the same spectrum
            np.testing.assert_allclose(full, np.fft.fft(x), rtol=1e-9, atol=1e-6)

    def test_inverse(self):
        from repro.runtime import gather_natural_order, local_bitrev_slice, spmd_fft

        rng = np.random.default_rng(1)
        x = rng.normal(size=256) + 1j * rng.normal(size=256)

        def prog(c):
            local = local_bitrev_slice(x, c.rank, c.size)
            return gather_natural_order(c, spmd_fft(c, local, inverse=True))

        full = run_spmd(4, prog)[0]
        np.testing.assert_allclose(full, np.fft.ifft(x) * 256, rtol=1e-9, atol=1e-6)

    def test_matches_simulator_fft(self):
        from repro.fft import ParallelFFT
        from repro.runtime import gather_natural_order, local_bitrev_slice, spmd_fft

        rng = np.random.default_rng(2)
        x = rng.normal(size=512) + 1j * rng.normal(size=512)
        sim = ParallelFFT().run(x, 8).output

        def prog(c):
            local = local_bitrev_slice(x, c.rank, c.size)
            return gather_natural_order(c, spmd_fft(c, local))

        spmd = run_spmd(8, prog)[0]
        np.testing.assert_allclose(spmd, sim, rtol=1e-12, atol=1e-12)
