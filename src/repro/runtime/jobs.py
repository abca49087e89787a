"""The rank program every door runs.

:func:`repro.sort` runs it on a one-shot world, the sort service on its
pooled warm worlds (per-request data arrives through ``world.run``'s
``rank_args``, so each rank receives only its own slice), and
perfbench/ladder.py on both.  It lives in the runtime package so the
front door's first call imports no serving code.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.bitonic_spmd import spmd_bitonic_sort
from repro.runtime.sample_spmd import spmd_sample_sort
from repro.trace.recorder import Tracer

__all__ = ["sort_shards_job"]


def sort_shards_job(
    comm,
    shards: Sequence[np.ndarray],
    # fused/grouped, overlap/chunks: positional slots perfbench/ladder.py
    # still fills; every remap runs one fused world-wide alltoallv.
    fused: Any = None,
    grouped: Any = None,
    trace: bool = False,
    injector: Optional[Any] = None,
    overlap: bool = False,
    chunks: int = 1,
    algorithm: str = "smart",
    out: Optional[Sequence[np.ndarray]] = None,
) -> Tuple[List[np.ndarray], List[Optional[Tracer]]]:
    """Sort each of this rank's shards in turn: the one rank program of
    every door (:func:`repro.sort`, the service and the ladder).

    ``shards[i]`` is *this rank's* partition of request ``i``; the doors
    pass one, and perfbench/ladder.py calls with the list.  Returns the
    rank's output partitions and (when ``trace``) one :class:`Tracer`
    per shard.  ``out[i]``, when given, is request ``i``'s whole result
    array, shared by every rank; each rank writes its partition into it
    and returns that view, so the doors concatenate nothing.
    ``injector`` wraps the comm in the fault-tolerant transport for
    every shard.  ``algorithm`` picks the SPMD sort: ``"smart"``
    bitonic or ``"sample"`` (one splitter-driven redistribution).
    ``fused``, ``grouped`` and ``chunks`` are ignored; ``overlap=True``
    raises :class:`~repro.errors.ConfigurationError`.
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
    for i, shard in enumerate(shards):
        tracer = Tracer(base.rank) if trace else None
        base.tracer = tracer
        result = None if out is None else out[i]
        if algorithm == "sample":
            outs.append(spmd_sample_sort(comm, shard, out=result))
        else:
            outs.append(spmd_bitonic_sort(comm, shard, out=result))
        base.tracer = None
        tracers.append(tracer)
    return outs, tracers
