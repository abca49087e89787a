"""The real-backend SPMD sample sort (`repro.runtime.sample_spmd`).

Byte-equality is the core contract: concatenating the per-rank output
partitions in rank order must reproduce ``np.sort`` of the whole input
exactly, on the threads backend and in agreement with the simulated
comparator that serves as the executable spec — for uniform,
duplicate-heavy, and skewed key distributions alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import CommunicationError
from repro.faults import FaultInjector, FaultPlan, ReliableComm
from repro.runtime import run_spmd, spmd_sample_sort
from repro.sorts import ParallelSampleSort
from repro.utils.rng import make_keys


def sample_sort_on(backend, keys, P, **kwargs):
    """Run the SPMD sample sort and return the rank-order concatenation."""
    n = keys.size // P

    def prog(c):
        return spmd_sample_sort(c, keys[c.rank * n:(c.rank + 1) * n], **kwargs)

    return np.concatenate(run_spmd(P, prog, backend=backend))


class TestByteEquality:
    @pytest.mark.parametrize("backend", ["threads"])
    @pytest.mark.parametrize("P", [2, 4])
    def test_matches_np_sort(self, backend, P):
        keys = make_keys(1 << 12, seed=81)
        out = sample_sort_on(backend, keys, P)
        np.testing.assert_array_equal(out, np.sort(keys))
        assert out.dtype == keys.dtype

    @pytest.mark.parametrize("P", [2, 4])
    def test_threads_and_simulated_agree(self, P):
        keys = make_keys(1 << 11, seed=82)
        threads = sample_sort_on("threads", keys, P)
        simulated = ParallelSampleSort().run(keys, P).sorted_keys
        np.testing.assert_array_equal(threads, simulated)
        np.testing.assert_array_equal(threads, np.sort(keys))

    def test_single_rank_is_a_local_sort(self):
        keys = make_keys(1 << 10, seed=83)
        out = sample_sort_on("threads", keys, 1)
        np.testing.assert_array_equal(out, np.sort(keys))


class TestDistributions:
    """The §5.5 sensitivity: output partitions track the key distribution,
    the concatenation stays exact regardless."""

    @pytest.mark.parametrize("backend", ["threads"])
    def test_all_equal_keys(self, backend):
        # Every key identical: searchsorted(side="right") ships the whole
        # world to rank 0 and the others go home empty — still sorted.
        keys = np.full(1 << 10, 7, dtype=np.uint32)
        n = keys.size // 4

        def prog(c):
            return spmd_sample_sort(c, keys[c.rank * n:(c.rank + 1) * n])

        parts = run_spmd(4, prog, backend=backend)
        assert sum(p.size for p in parts) == keys.size
        np.testing.assert_array_equal(np.concatenate(parts), keys)

    def test_duplicate_heavy(self):
        rng = np.random.default_rng(84)
        keys = rng.choice(
            np.array([0, 1, 2, 0xFFFFFFFF], dtype=np.uint32), size=1 << 12
        )
        out = sample_sort_on("threads", keys, 4)
        np.testing.assert_array_equal(out, np.sort(keys))

    def test_skewed_distribution_unequal_partitions(self):
        # Heavily skewed toward small keys: rank 0's bucket dominates.
        rng = np.random.default_rng(85)
        keys = (rng.zipf(1.5, size=1 << 12) % (1 << 16)).astype(np.uint32)
        n = keys.size // 4

        def prog(c):
            return spmd_sample_sort(c, keys[c.rank * n:(c.rank + 1) * n])

        parts = run_spmd(4, prog, backend="threads")
        sizes = [p.size for p in parts]
        assert sum(sizes) == keys.size
        assert len(set(sizes)) > 1  # data-dependent, not blocked-equal
        np.testing.assert_array_equal(np.concatenate(parts), np.sort(keys))

    def test_presorted_and_reversed(self):
        base = np.arange(1 << 11, dtype=np.uint32)
        for keys in (base, base[::-1].copy()):
            out = sample_sort_on("threads", keys, 4)
            np.testing.assert_array_equal(out, np.sort(keys))


class TestContract:
    def test_ragged_partitions_rejected(self):
        def prog(c):
            local = np.arange(4 + c.rank, dtype=np.uint32)
            return spmd_sample_sort(c, local)

        with pytest.raises(CommunicationError, match="unequal partitions"):
            run_spmd(2, prog, backend="threads")

    def test_input_left_untouched(self):
        keys = make_keys(1 << 10, seed=86)
        before = keys.copy()

        def prog(c):
            n = keys.size // 2
            return spmd_sample_sort(c, keys[c.rank * n:(c.rank + 1) * n])

        run_spmd(2, prog, backend="threads")
        np.testing.assert_array_equal(keys, before)

    def test_composes_with_fault_transport(self):
        # sample sort speaks only allgather/alltoallv/barrier, all of
        # which ReliableComm retries — a lossy transport must converge
        # to the identical bytes.
        keys = make_keys(1 << 10, seed=87)

        def prog(c):
            rc = ReliableComm(c, FaultInjector(FaultPlan(seed=3, drop=0.1)))
            n = keys.size // 4
            return spmd_sample_sort(rc, keys[c.rank * n:(c.rank + 1) * n])

        parts = run_spmd(4, prog, backend="threads")
        np.testing.assert_array_equal(np.concatenate(parts), np.sort(keys))


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(
        keys=hnp.arrays(
            dtype=np.uint32,
            shape=st.integers(1, 64).map(lambda m: 4 * m),
            elements=st.integers(0, 2**32 - 1),
        )
    )
    def test_arbitrary_uint32_arrays(self, keys):
        out = sample_sort_on("threads", keys, 4)
        np.testing.assert_array_equal(out, np.sort(keys))
