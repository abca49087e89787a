"""Module-level job functions run on warm worlds.

The sort itself is :func:`repro.runtime.jobs.sort_shards_job`, imported
here because perfbench/ladder.py imports it from this module; the rest
are the calibration jobs of ``scripts/calibrate_loggp.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.runtime.jobs import sort_shards_job

__all__ = ["sort_shards_job", "noop_job", "pingpong_job"]


# -- calibration jobs (scripts/calibrate_loggp.py) -------------------------


def noop_job(comm) -> int:
    """Measures pure job dispatch/collect overhead on a warm world."""
    return comm.rank


def pingpong_job(comm, nbytes: int, rounds: int) -> float:
    """Mean seconds per ``alltoallv`` round in which each rank of a
    2-rank world sends its peer an ``nbytes`` payload: the exchange every
    remap runs, used to fit the backend's ``o`` and ``G``.  Run it on
    worlds of exactly 2 ranks; on larger worlds every rank returns 0.0
    without exchanging."""
    if comm.size != 2:
        return 0.0
    buckets = [None, None]
    buckets[1 - comm.rank] = np.zeros(max(nbytes // 4, 1), dtype=np.uint32)
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(rounds):
        comm.alltoallv(buckets)
    elapsed = time.perf_counter() - t0
    comm.barrier()
    return elapsed / rounds
