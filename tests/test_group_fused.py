"""The Lemma-4 group algebra and the fused zero-copy remap path.

Covers the Lemma-4 group derivation (pure bit algebra: the paper's
result, reproduced here; the runtime does not scope its exchanges by
it), byte-equality of the one remap path against ``np.sort`` on warm
worlds, the trace-counter contracts, and the fused sort under the
fault-injection transport.
"""

import numpy as np
import pytest

from repro.api import sort
from repro.layouts import smart_schedule
from repro.layouts.base import bits_changed
from repro.remap.cache import cached_remap_plan
from repro.remap.groups import (
    destination_procs,
    remap_group,
    remap_group_partition,
)
from repro.runtime import run_spmd, spawn_world, spmd_bitonic_sort
from repro.runtime.threads import ThreadComm
from repro.service.jobs import sort_shards_job
from repro.trace import Tracer
from repro.utils.rng import make_keys

SHAPES = [(4096, 8), (16384, 16), (1024, 4)]


def _transitions(N, P):
    return smart_schedule(N, P).transitions()


class TestGroupDerivation:
    @pytest.mark.parametrize("N,P", SHAPES)
    def test_partition_sizes_are_two_to_the_changed_bits(self, N, P):
        """Lemma 4: every group of ``old -> new`` has exactly
        ``2**N_BitsChanged`` members, and the groups tile ``0..P-1``."""
        for old, new in _transitions(N, P):
            c = bits_changed(old, new)
            partition = remap_group_partition(old, new)
            seen = []
            for group in partition:
                assert len(group) == min(2 ** c, P)
                assert list(group) == sorted(group)
                seen.extend(group)
            assert sorted(seen) == list(range(P))

    @pytest.mark.parametrize("N,P", SHAPES)
    def test_plan_peers_stay_inside_the_group(self, N, P):
        """The executable plans agree with the algebra: every send and
        receive peer of every rank lies inside that rank's group."""
        for old, new in _transitions(N, P):
            for r in range(P):
                group = set(remap_group(old, new, r))
                plan = cached_remap_plan(old, new, r)
                assert set(plan.send) <= group - {r}
                assert set(plan.recv) <= group - {r}

    @pytest.mark.parametrize("N,P", SHAPES)
    def test_destination_procs_match_plan_sends(self, N, P):
        """``destination_procs`` (O(2^c) bit algebra) is a superset of the
        plan's actual destinations and never exceeds the Lemma-4 span."""
        for old, new in _transitions(N, P):
            c = bits_changed(old, new)
            for r in range(P):
                dests = destination_procs(old, new, r)
                assert len(dests) == min(2 ** c, P)
                assert r in dests
                plan = cached_remap_plan(old, new, r)
                assert set(plan.send) <= dests

    def test_group_is_memoized(self):
        old, new = _transitions(4096, 8)[0]
        assert remap_group_partition(old, new) is remap_group_partition(old, new)


class TestByteEquality:
    """The one remap path produces the byte-identical globally sorted
    output."""

    @pytest.mark.parametrize("N,P", [(1 << 14, 4), (1 << 16, 4),
                                     (1 << 20, 2)])
    def test_warm_sort_matches_np_sort(self, N, P):
        """Two sorts on one warm world through the service's rank
        program, at the shapes the serving workloads run (1 Mi x 2 is
        the library benchmark's)."""
        keys = make_keys(N, seed=N % 104729)
        expected = np.sort(keys).tobytes()
        n = N // P
        rank_args = [([keys[r * n:(r + 1) * n]],) for r in range(P)]
        with spawn_world(P) as world:
            for _ in range(2):
                parts = world.run(sort_shards_job, rank_args=rank_args)
                out = np.concatenate([outs[0] for outs, _ in parts])
                assert out.tobytes() == expected

    @pytest.mark.parametrize(
        "algorithm", ["smart", "cyclic-blocked", "blocked-merge", "radix", "sample"]
    )
    def test_simulated_sorts_unchanged(self, algorithm):
        """The fused machinery lives in the SPMD runtime; all five
        simulated algorithms still verify element-exactly."""
        keys = make_keys(2048, seed=13)
        rep = sort(keys, P=4, algorithm=algorithm, backend="simulated")
        assert rep.sorted_keys.tobytes() == np.sort(keys).tobytes()


class TestTraceContracts:
    def _tracers(self, backend, P=4, n=1024):
        keys = make_keys(P * n, seed=23)

        def prog(c):
            c.tracer = Tracer(c.rank)
            spmd_bitonic_sort(c, keys[c.rank * n : (c.rank + 1) * n])
            return c.tracer

        return run_spmd(P, prog, backend=backend)

    @pytest.mark.parametrize("backend", ["threads"])
    def test_fused_takes_the_direct_path_every_remap(self, backend,
                                                     monkeypatch):
        """The sort deposits the pack mask's views of its partition (no
        packed copy), runs one exchange per remap, and records no unpack
        pass."""
        owned = []
        real = ThreadComm.alltoallv

        def spy(self, buckets):
            owned.extend(b.flags.owndata for b in buckets if b is not None)
            return real(self, buckets)

        monkeypatch.setattr(ThreadComm, "alltoallv", spy)
        for tr in self._tracers(backend):
            assert tr.counters["coll.alltoallv"] == tr.counters["remaps"]
            assert "unpack" not in tr.totals()
        assert owned and not any(owned)


class TestFaultTransport:
    def test_fused_sort_sends_views_under_reliable_comm(self):
        """ReliableComm frames, checksums and retransmits the fused sort's
        strided views like any payload; dropped and duplicated messages
        still end in the byte-identical sort, with no unpack pass."""
        from repro.faults.plan import FaultPlan

        keys = make_keys(2048, seed=31)
        rep = sort(
            keys, P=4, backend="threads", trace=True,
            faults=FaultPlan(seed=5, drop=0.05, duplicate=0.05),
        )
        assert rep.sorted_keys.tobytes() == np.sort(keys).tobytes()
        assert sum(t.counters.get("retries", 0) for t in rep.tracers) > 0
        for tr in rep.tracers:
            assert tr.counters["remaps"] > 0
            assert "unpack" not in tr.totals()
