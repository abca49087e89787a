"""Group-scoped collectives (Lemma 4) and the fused zero-copy remap path.

Covers the Lemma-4 group derivation (pure bit algebra), the
``group_alltoallv`` / ``alltoallv_fused`` collectives on both SPMD
backends, byte-equality of every fused × grouped combination against the
plain world-wide path, the trace-counter contracts, the
procs-backend copy-out requirement, and the compatibility fallback under
the fault-injection transport.
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
    """Every fused × grouped combination, on both backends, produces the
    byte-identical globally sorted output."""

    @pytest.mark.parametrize("backend", ["threads", "procs"])
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

    @pytest.mark.parametrize("backend", ["threads", "procs"])
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

    @pytest.mark.parametrize("backend", ["threads", "procs"])
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

    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_fused_takes_the_direct_path_every_remap(self, backend):
        """On the bundled backends the fused collective must never fall
        back to the composed bucket path for plain integer keys — and the
        per-remap unpack copy pass disappears outright."""
        for tr in self._tracers(backend, fused=True, grouped=True):
            remaps = tr.counters["remaps"]
            assert tr.counters["coll.fused"] == remaps
            assert tr.counters["coll.fused_direct"] == remaps
            assert tr.counters.get("coll.alltoallv", 0) == 0
            assert "unpack" not in tr.totals()

    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_fused_moves_fewer_bytes_of_copies(self, backend):
        """Fused and unfused runs transfer identical payload bytes — the
        saving is the vanished unpack pass, not smaller messages."""
        fused = self._tracers(backend, fused=True, grouped=False)
        plain = self._tracers(backend, fused=False, grouped=False)
        assert sum(t.counters["bytes_sent"] for t in fused) == sum(
            t.counters["bytes_sent"] for t in plain
        )


class TestGroupCollectiveProtocol:
    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_group_and_world_collectives_interleave(self, backend):
        """Disjoint group exchanges, then a world collective, repeated —
        exercises the procs arena-reuse guard (readers outside the group
        must not be overtaken) and the threads per-group barriers."""
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

    @pytest.mark.parametrize("backend", ["threads", "procs"])
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


class TestProcsCopyRequired:
    """Satellite: the ``.copy()`` in the procs raw-ndarray receive path is
    load-bearing.  ``alltoallv`` hands the caller an array it may hold
    forever, while the sender recycles the backing arena two collectives
    later — so the returned array must own its memory, and it must stay
    intact after later collectives rewrite every arena."""

    def test_received_arrays_own_their_memory_and_survive_reuse(self):
        P = 2

        def prog(c):
            me = c.rank
            peer = 1 - me
            buckets = [None] * P
            buckets[peer] = np.full(64, 7000 + me, dtype=np.int64)
            held = c.alltoallv(buckets)[peer]
            # Owns its memory: not a view into the shared arena.
            assert held.base is None and held.flags.owndata
            snapshot = held.copy()
            # Four more collectives rewrite both parities of every arena
            # with different payloads.
            for round_ in range(4):
                buckets = [None] * P
                buckets[peer] = np.full(64, round_, dtype=np.int64)
                c.alltoallv(buckets)
            assert (held == snapshot).all()
            return True

        assert run_spmd(P, prog, backend="procs") == [True] * P

    def test_fused_path_avoids_the_copy_without_the_hazard(self):
        """The fused collective's receive windows never escape the
        collective: the caller's ``out`` buffer is a plain owned array
        filled in-place, so later collectives cannot disturb it."""
        P, n = 2, 512
        keys = make_keys(P * n, seed=29)

        def prog(c):
            out = spmd_bitonic_sort(
                c, keys[c.rank * n : (c.rank + 1) * n], fused=True
            )
            # May be a view from the merge kernel's reshape, but the root
            # of the base chain must be an owned ndarray — never a window
            # into a shared-memory arena.
            root = out
            while isinstance(root, np.ndarray) and root.base is not None:
                root = root.base
            assert isinstance(root, np.ndarray) and root.flags.owndata
            snapshot = out.copy()
            # More traffic through the same arenas.
            for _ in range(3):
                c.allgather(int(out[0]))
            assert (out == snapshot).all()
            return out

        got = np.concatenate(run_spmd(P, prog, backend="procs"))
        assert got.tobytes() == np.sort(keys).tobytes()


class TestFaultTransportFallback:
    def test_fused_sort_under_reliable_comm_falls_back_and_sorts(self):
        """ReliableComm has no zero-copy path; the fused call must compose
        through its (fault-injected) ``alltoallv`` and still sort."""
        from repro.faults.plan import FaultPlan

        keys = make_keys(2048, seed=31)
        rep = sort(
            keys, P=4, backend="threads", trace=True,
            faults=FaultPlan(seed=5, drop=0.05, duplicate=0.05),
        )
        assert rep.sorted_keys.tobytes() == np.sort(keys).tobytes()
        fused = sum(t.counters.get("coll.fused", 0) for t in rep.tracers)
        direct = sum(t.counters.get("coll.fused_direct", 0) for t in rep.tracers)
        assert fused > 0  # the fused call was made...
        assert direct == 0  # ...and composed, never claiming zero-copy
