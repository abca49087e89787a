"""Tests for the warm world lifecycle (spawn_world / World.run / close).

PR 5 split world construction from job execution so the serving layer
can keep worlds alive between requests.  These tests pin the lifecycle
contract: warm reuse is byte-identical to cold one-shot runs, per-job
state (tracers, counters) never bleeds between jobs, and dead worlds
refuse further work and are replaceable.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import CommunicationError, ConfigurationError, SpmdTimeoutError
from repro.runtime import (
    ThreadWorld,
    World,
    run_spmd,
    spawn_world,
    spmd_bitonic_sort,
)
from repro.runtime import threads
from repro.service.jobs import noop_job, sort_shards_job
from repro.trace.recorder import Tracer
from repro.utils.rng import make_keys

BACKENDS = ("threads",)


def _sort_job(comm, keys):
    return spmd_bitonic_sort(comm, keys)


def _traced_sort_job(comm, keys):
    comm.tracer = Tracer(comm.rank)
    spmd_bitonic_sort(comm, keys)
    return dict(comm.tracer.counters)


def _probe_tracer_job(comm):
    return comm.tracer is None


def _boom_job(comm):
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    comm.barrier()


class TestSpawnWorld:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spawn_run_close(self, backend):
        world = spawn_world(2, backend=backend)
        try:
            assert isinstance(world, World)
            assert world.backend == backend and world.size == 2
            assert world.healthy()
            assert world.run(noop_job) == [0, 1]
        finally:
            world.close()
        assert not world.healthy()

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="unknown SPMD backend"):
            spawn_world(2, backend="mpi")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_context_manager_closes(self, backend):
        with spawn_world(2, backend=backend) as world:
            assert world.run(noop_job) == [0, 1]
        assert not world.healthy()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_closed_world_refuses_jobs(self, backend):
        world = spawn_world(2, backend=backend)
        world.close()
        with pytest.raises(ConfigurationError, match="closed"):
            world.run(noop_job)

    def test_run_rank_args_length_checked(self):
        with spawn_world(2, backend="threads") as world:
            with pytest.raises(ConfigurationError, match="rank_args"):
                world.run(noop_job, rank_args=[(1,)])


class TestWarmReuse:
    """Satellite (c): world reuse is observationally identical to
    cold-start, and per-job state never bleeds."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_back_to_back_different_sizes_byte_identical(self, backend):
        sizes = [(1 << 10, 2), (1 << 12, 2), (1 << 10, 2)]
        with spawn_world(2, backend=backend) as world:
            for i, (N, P) in enumerate(sizes):
                keys = make_keys(N, seed=100 + i)
                n = N // P
                warm = np.concatenate(world.run(
                    _sort_job,
                    rank_args=[(keys[r * n : (r + 1) * n],) for r in range(P)],
                ))
                # Cold reference: the one-shot driver on a fresh world.
                cold = np.concatenate(run_spmd(
                    P,
                    lambda c: spmd_bitonic_sort(
                        c, keys[c.rank * n : (c.rank + 1) * n]
                    ),
                    backend=backend,
                ))
                assert warm.tobytes() == cold.tobytes()
                assert warm.tobytes() == np.sort(keys).tobytes()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counters_do_not_bleed_between_jobs(self, backend):
        keys = make_keys(1 << 10, seed=7)
        args = [(keys[:512],), (keys[512:],)]
        with spawn_world(2, backend=backend) as world:
            first = world.run(_traced_sort_job, rank_args=args)
            second = world.run(_traced_sort_job, rank_args=args)
        # Identical jobs must report identical counters: any bleed from
        # job 1 into job 2's tracer would double the tallies.
        assert first == second
        assert first[0]["messages"] > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tracer_cleared_after_each_job(self, backend):
        keys = make_keys(1 << 10, seed=8)
        args = [(keys[:512],), (keys[512:],)]
        with spawn_world(2, backend=backend) as world:
            world.run(_traced_sort_job, rank_args=args)
            assert world.run(_probe_tracer_job) == [True, True]

    def test_batched_requests_match_single_requests(self):
        keys_a = make_keys(1 << 10, seed=20)
        keys_b = make_keys(1 << 10, seed=21)
        with spawn_world(2, backend="threads") as world:
            outs = world.run(
                sort_shards_job,
                rank_args=[
                    ([keys_a[:512], keys_b[:512]], True, True, False, None),
                    ([keys_a[512:], keys_b[512:]], True, True, False, None),
                ],
            )
        for i, keys in enumerate((keys_a, keys_b)):
            got = np.concatenate([outs[r][0][i] for r in range(2)])
            assert got.tobytes() == np.sort(keys).tobytes()


class TestDeadWorlds:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failed_job_kills_world_replacement_works(self, backend):
        world = spawn_world(2, backend=backend)
        try:
            with pytest.raises(ValueError, match="rank 1 exploded"):
                world.run(_boom_job)
            assert not world.healthy()
            with pytest.raises(CommunicationError, match="dead"):
                world.run(noop_job)
        finally:
            world.close()
        # The replacement world is unaffected by the corpse.
        with spawn_world(2, backend=backend) as fresh:
            assert fresh.run(noop_job) == [0, 1]


class TestStartWait:
    """``run`` is ``wait(start(...))``: the caller may do work of its own
    between the two while the ranks run."""

    def test_start_returns_while_the_ranks_run(self):
        # The ranks finish only once the caller acts after start: a
        # start that waited for them would see False after 10 s.
        release = threading.Event()
        with spawn_world(2) as world:
            job = world.start(lambda comm: release.wait(10))
            release.set()
            assert world.wait(job) == [True, True]
            assert world.run(noop_job) == [0, 1]

    def test_closed_and_dead_worlds_refuse_at_start(self):
        world = spawn_world(2)
        try:
            job = world.start(_boom_job)
            with pytest.raises(ValueError, match="rank 1 exploded"):
                world.wait(job)
            with pytest.raises(CommunicationError, match="dead"):
                world.start(noop_job)
        finally:
            world.close()
        with pytest.raises(ConfigurationError, match="closed"):
            world.start(noop_job)

    def test_wedged_rank_times_out_from_start(self, monkeypatch):
        """The deadline is fixed at start: a caller whose own work
        outlasts the whole budget before it waits gets the timeout at
        once, not ``timeout`` seconds after it calls wait."""

        class Clock:  # the world's clock; the caller's work moves it on
            offset = 0.0

            @classmethod
            def monotonic(cls) -> float:
                return time.monotonic() + cls.offset

        release = threading.Event()

        def wedge(comm):
            if comm.rank == 1:
                release.wait(30)

        monkeypatch.setattr(threads, "time", Clock)
        world = spawn_world(2)
        try:
            job = world.start(wedge, timeout=5.0)
            Clock.offset = 6.0  # the caller sorted for 6 s of the 5 s
            waited = time.monotonic()
            with pytest.raises(SpmdTimeoutError, match="5.0s budget"):
                world.wait(job)
            assert time.monotonic() - waited < 2.5
            assert not world.healthy()
        finally:
            release.set()
            world.close()


class TestOneShotCompatibility:
    """The original one-shot drivers survive the refactor unchanged,
    closures included."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_closures_still_work(self, backend):
        keys = make_keys(1 << 10, seed=5)

        def prog(c):
            n = keys.size // c.size
            return spmd_bitonic_sort(c, keys[c.rank * n : (c.rank + 1) * n])

        out = np.concatenate(run_spmd(2, prog, backend=backend))
        assert out.tobytes() == np.sort(keys).tobytes()

    def test_worlds_are_exported_types(self):
        assert issubclass(ThreadWorld, World)
