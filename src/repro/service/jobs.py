"""Module-level job functions run on warm worlds.

Per-request data (this rank's shards) arrives via ``world.run``'s
``rank_args``, so each rank receives only its own slice of each
request.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.bitonic_spmd import spmd_bitonic_sort
from repro.runtime.sample_spmd import spmd_sample_sort
from repro.trace.recorder import Tracer

__all__ = ["sort_shards_job", "noop_job", "pingpong_job"]


def sort_shards_job(
    comm,
    shards: Sequence[np.ndarray],
    fused: bool,
    grouped: bool,
    trace: bool,
    injector: Optional[Any] = None,
    # overlap/chunks: positional slots perfbench/ladder.py still fills.
    overlap: bool = False,
    chunks: int = 1,
    algorithm: str = "smart",
) -> Tuple[List[np.ndarray], List[Optional[Tracer]]]:
    """Sort each of this rank's shards in turn.

    ``shards[i]`` is *this rank's* partition of request ``i``; the
    service passes one, and perfbench/ladder.py calls with the list.
    Returns the rank's output partitions and (when ``trace``) one
    :class:`Tracer` per shard.  ``injector`` wraps the comm in the
    fault-tolerant transport for every shard.  ``algorithm`` picks
    the SPMD sort: ``"smart"`` bitonic (honours the schedule flags) or
    ``"sample"`` (one splitter-driven redistribution; the flags do not
    apply).  ``overlap=True`` raises
    :class:`~repro.errors.ConfigurationError`; ``chunks`` is ignored.
    """
    if overlap:
        raise ConfigurationError(
            "the overlapped remap pipeline was removed; only the "
            "synchronous schedule runs"
        )
    base = comm
    if injector is not None:
        from repro.faults.transport import ReliableComm

        comm = ReliableComm(base, injector)
    outs: List[np.ndarray] = []
    tracers: List[Optional[Tracer]] = []
    for shard in shards:
        tracer = Tracer(base.rank) if trace else None
        base.tracer = tracer
        if algorithm == "sample":
            outs.append(spmd_sample_sort(comm, shard))
        else:
            outs.append(
                spmd_bitonic_sort(comm, shard, fused=fused, grouped=grouped)
            )
        base.tracer = None
        tracers.append(tracer)
    return outs, tracers


# -- calibration jobs (scripts/calibrate_loggp.py) -------------------------


def noop_job(comm) -> int:
    """Measures pure job dispatch/collect overhead on a warm world."""
    return comm.rank


def pingpong_job(comm, nbytes: int, rounds: int) -> float:
    """Mean seconds per sendrecv round of an ``nbytes`` payload between
    the ranks of a 2-rank world; used to fit the backend's ``o`` and
    ``G``.  Run it on worlds of exactly 2 ranks; on larger worlds every
    rank returns 0.0 without exchanging."""
    if comm.size != 2:
        return 0.0
    payload = np.zeros(max(nbytes // 4, 1), dtype=np.uint32)
    peer = 1 - comm.rank
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(rounds):
        comm.sendrecv(payload, dst=peer, src=peer)
    elapsed = time.perf_counter() - t0
    comm.barrier()
    return elapsed / rounds
