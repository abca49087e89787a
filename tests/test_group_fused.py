"""Group-scoped collectives (Lemma 4) and the fused zero-copy remap path.

Covers the Lemma-4 group derivation (pure bit algebra), the
``group_alltoallv`` collective on the threads backend, byte-equality of
every fused × grouped combination against the plain world-wide path, the
trace-counter contracts, and the fused sort under the fault-injection
transport.
"""

import numpy as np
import pytest

from repro.api import sort
from repro.errors import CommunicationError
from repro.layouts import smart_schedule
from repro.layouts.base import bits_changed
from repro.remap.cache import cached_remap_plan
from repro.remap.groups import (
    destination_procs,
    remap_group,
    remap_group_partition,
)
from repro.runtime import BackendOptions, run_spmd, spmd_bitonic_sort
from repro.runtime.threads import ThreadComm
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
    """Every fused × grouped combination produces the byte-identical
    globally sorted output."""

    @pytest.mark.parametrize("backend", ["threads"])
    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("grouped", [True, False])
    def test_spmd_sort_all_modes(self, backend, fused, grouped):
        P, n = 4, 512
        keys = make_keys(P * n, seed=11)
        expect = np.sort(keys)

        def prog(c):
            return spmd_bitonic_sort(
                c, keys[c.rank * n : (c.rank + 1) * n],
                fused=fused, grouped=grouped,
            )

        out = np.concatenate(run_spmd(P, prog, backend=backend))
        assert out.tobytes() == expect.tobytes()

    @pytest.mark.parametrize(
        "algorithm", ["smart", "cyclic-blocked", "blocked-merge", "radix", "sample"]
    )
    def test_simulated_sorts_unchanged(self, algorithm):
        """The group/fused machinery lives in the SPMD runtime; all five
        simulated algorithms still verify element-exactly."""
        keys = make_keys(2048, seed=13)
        rep = sort(keys, P=4, algorithm=algorithm, backend="simulated")
        assert rep.sorted_keys.tobytes() == np.sort(keys).tobytes()

    @pytest.mark.parametrize("backend", ["threads"])
    def test_front_door_flags(self, backend):
        keys = make_keys(2048, seed=17)
        expect = np.sort(keys).tobytes()
        for opts in (
            None,
            BackendOptions(fused=False),
            BackendOptions(grouped=False),
            BackendOptions(fused=False, grouped=False),
        ):
            rep = sort(keys, P=4, backend=backend, options=opts)
            assert rep.sorted_keys.tobytes() == expect


class TestTraceContracts:
    def _tracers(self, backend, fused, grouped, P=4, n=1024):
        keys = make_keys(P * n, seed=23)

        def prog(c):
            c.tracer = Tracer(c.rank)
            spmd_bitonic_sort(
                c, keys[c.rank * n : (c.rank + 1) * n],
                fused=fused, grouped=grouped,
            )
            return c.tracer

        return run_spmd(P, prog, backend=backend)

    @pytest.mark.parametrize("backend", ["threads"])
    def test_group_size_bounded_by_lemma4(self, backend):
        """Summed group membership never exceeds the Lemma-4 bound
        ``2**max(N_BitsChanged)`` per group collective, and grouping
        strictly reduces descriptor-slot work against the world run."""
        P, n = 4, 1024
        max_changed = max(
            bits_changed(old, new) for old, new in _transitions(P * n, P)
        )
        grouped_trs = self._tracers(backend, fused=False, grouped=True)
        world_trs = self._tracers(backend, fused=False, grouped=False)
        for tr in grouped_trs:
            calls = tr.counters.get("coll.group_alltoallv", 0)
            size_sum = tr.counters.get("coll.group_size", 0)
            assert calls > 0, "grouping never engaged"
            assert size_sum <= calls * 2 ** max_changed
            assert size_sum >= 2 * calls  # groups have at least a pair
        grouped_slots = sum(t.counters["coll.slots"] for t in grouped_trs)
        world_slots = sum(t.counters["coll.slots"] for t in world_trs)
        assert grouped_slots < world_slots

    @pytest.mark.parametrize("backend", ["threads"])
    def test_fused_takes_the_direct_path_every_remap(self, backend,
                                                     monkeypatch):
        """The fused sort deposits the pack mask's views of its partition
        (no packed copy), runs one exchange per remap, and records no
        unpack pass; unfused, every message is a packed copy."""
        owned = {True: [], False: []}
        fused_now = [True]

        def spy(method):
            def wrapper(self, buckets, *rest):
                owned[fused_now[0]].extend(
                    b.flags.owndata for b in buckets if b is not None
                )
                return method(self, buckets, *rest)
            return wrapper

        monkeypatch.setattr(ThreadComm, "alltoallv",
                            spy(ThreadComm.alltoallv))
        monkeypatch.setattr(ThreadComm, "group_alltoallv",
                            spy(ThreadComm.group_alltoallv))
        for tr in self._tracers(backend, fused=True, grouped=True):
            exchanges = tr.counters.get("coll.alltoallv", 0) + tr.counters.get(
                "coll.group_alltoallv", 0
            )
            assert exchanges == tr.counters["remaps"]
            assert "unpack" not in tr.totals()
        fused_now[0] = False
        for tr in self._tracers(backend, fused=False, grouped=True):
            assert "unpack" in tr.totals()
        assert owned[True] and not any(owned[True])
        assert owned[False] and all(owned[False])

    @pytest.mark.parametrize("backend", ["threads"])
    def test_fused_moves_fewer_bytes_of_copies(self, backend):
        """Fused and unfused runs transfer identical payload bytes — the
        saving is the vanished unpack pass, not smaller messages."""
        fused = self._tracers(backend, fused=True, grouped=False)
        plain = self._tracers(backend, fused=False, grouped=False)
        assert sum(t.counters["bytes_sent"] for t in fused) == sum(
            t.counters["bytes_sent"] for t in plain
        )


class TestGroupCollectiveProtocol:
    @pytest.mark.parametrize("backend", ["threads"])
    def test_group_and_world_collectives_interleave(self, backend):
        """Disjoint group exchanges, then a world collective, repeated —
        exercises the per-group barriers."""
        P = 4

        def prog(c):
            me = c.rank
            for round_ in range(4):
                g = (0, 1) if me < 2 else (2, 3)
                peer = g[1 - g.index(me)]
                buckets = [None] * P
                buckets[peer] = np.full(8, me * 100 + round_, dtype=np.int64)
                got = c.group_alltoallv(buckets, g)
                assert (got[peer] == peer * 100 + round_).all()
                assert c.allgather(me) == list(range(P))
            return True

        assert run_spmd(P, prog, backend=backend) == [True] * P

    @pytest.mark.parametrize("backend", ["threads"])
    def test_group_rejects_outside_bucket(self, backend):
        P = 4

        def prog(c):
            if c.rank == 0:
                buckets = [None] * P
                buckets[3] = np.arange(4)  # rank 3 is outside (0, 1)
                try:
                    c.group_alltoallv(buckets, (0, 1))
                except CommunicationError:
                    return "raised"
                return "no-raise"
            return "peer"

        # Rank 0 must reject before communicating, so no peer ever blocks.
        out = run_spmd(P, prog, backend=backend)
        assert out[0] == "raised"


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
