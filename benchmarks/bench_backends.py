"""Benchmarks of the SPMD runtime's threads backend (wall-clock,
pytest-benchmark).

The backend runs :func:`~repro.runtime.spmd_bitonic_sort`; these benches
time it against the collective it is built on and the fixed cost of
launching a world.  The end-to-end counterpart is the repo's
benchmark, ``perfbench/``.
"""

import numpy as np
import pytest

from repro.runtime import run_spmd, spmd_bitonic_sort
from repro.utils.rng import make_keys

N_SORT = 1 << 16
P = 4


@pytest.fixture(scope="module")
def keys():
    return make_keys(N_SORT, seed=7)


def _sort_world(keys):
    n = keys.size // P

    def prog(c):
        return spmd_bitonic_sort(c, keys[c.rank * n : (c.rank + 1) * n])

    return np.concatenate(run_spmd(P, prog))


def test_spmd_sort_backend(benchmark, keys):
    out = benchmark.pedantic(
        _sort_world, args=(keys,), rounds=3, iterations=1, warmup_rounds=1
    )
    np.testing.assert_array_equal(out, np.sort(keys))


def test_alltoallv_collective(benchmark):
    """The raw collective: every rank scatters 64K keys to every peer."""
    bucket = np.arange(1 << 16, dtype=np.uint32)

    def world():
        def prog(c):
            got = c.alltoallv([bucket for _ in range(c.size)])
            return sum(int(x[0]) for x in got)

        return run_spmd(P, prog)

    out = benchmark.pedantic(world, rounds=3, iterations=1, warmup_rounds=1)
    assert out == [0] * P


def test_world_launch_overhead(benchmark):
    """Spin up a world that does nothing: the backend's fixed cost."""
    out = benchmark.pedantic(
        run_spmd,
        args=(P, lambda c: c.rank),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert out == list(range(P))
