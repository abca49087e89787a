"""The [AISS95] sample sort as a genuine SPMD message-passing program.

This is the real-backend twin of the simulated comparator
(:class:`~repro.sorts.sample_parallel.ParallelSampleSort`), which serves
as its executable spec: local sort, gathered splitter selection
(oversampling — the evenly spaced per-rank sample of the arXiv
2204.04599 single-round scheme), histogram partition at the splitters,
one all-to-all bucket exchange, and a local merge of the received runs.
Both local steps run ``np.sort``, the merge one over the concatenated
runs (the simulator charges a radix sort and a p-way merge).  One data
redistribution total, against the bitonic sort's ``lg P``-ish remaps —
which is exactly the crossover the paper's Figures 5.7/5.8 measure and
the service planner now prices.

Like :func:`~repro.runtime.bitonic_spmd.spmd_bitonic_sort` it shares no
execution machinery with the simulator version: only ``np.sort`` and a
:class:`~repro.runtime.api.Comm`.  It speaks nothing but
``allgather`` and ``alltoallv``, both of which every communicator —
including the fault-injection :class:`~repro.faults.transport.ReliableComm`
wrapper — implements, so chaos tests compose without a fallback switch.

Unlike the bitonic network, the *output* partition sizes are data
dependent: rank ``q`` ends up with every key in splitter interval ``q``,
so skewed inputs produce unequal partitions (the §5.5 sensitivity).  The
concatenation of the returned partitions in rank order is byte-identical
to ``np.sort`` of the concatenated input — splitters are computed from
the same allgathered sample pool by the same pure algebra on every rank,
and ``searchsorted(..., side="right")`` ships splitter-equal duplicates
to the lower rank deterministically.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import CommunicationError
from repro.runtime.api import Comm
from repro.trace.recorder import trace_span

__all__ = ["spmd_sample_sort"]


def spmd_sample_sort(
    comm: Comm,
    local_keys: np.ndarray,
    oversample: int = 32,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sort the distributed array whose rank-``r`` partition is
    ``local_keys``, returning this rank's partition of the globally
    sorted (blocked) result.

    Every rank must hold the same number of integer input keys; the
    *returned* partitions are generally unequal (bucket sizes follow the
    key distribution).  The concatenation across ranks equals
    ``np.sort`` of the whole input, element for element.  ``out``, when
    given, is that whole result array, shared by every rank: each rank
    merges its runs straight into it, at the prefix sum of the partition
    sizes (one ``allgather``, when ``P > 1``), and returns that view.

    When ``comm.tracer`` carries a :class:`~repro.trace.recorder.Tracer`
    the sort records its phase spans (``local_sort``, ``address``,
    ``pack``, ``transfer``, ``merge``) plus the ``remaps`` counter (one:
    the single redistribution) and an ``algo.sample`` marker counter —
    what lets trace gates assert that an auto-routed request really ran
    sample sort.  With no tracer the instrumentation is a
    zero-allocation no-op.
    """
    data = np.asarray(local_keys)  # every path below sorts into a copy
    P, r = comm.size, comm.rank
    n = data.size
    set_phase = getattr(comm, "set_phase", None)
    tracer = getattr(comm, "tracer", None)
    if tracer is not None:
        tracer.add("algo.sample")

    # Agree on the problem shape (and catch ragged partitions early).
    sizes = comm.allgather(n)
    if len(set(sizes)) != 1:
        raise CommunicationError(
            f"ranks hold unequal partitions: {sizes} — sample sort "
            "redistributes from a balanced input"
        )

    if set_phase is not None:
        set_phase("local-sort", 0)
    # 1. Local sort.
    with trace_span(tracer, "local_sort"):
        if P == 1 and out is not None:
            out[...] = data  # np.sort's own copy, into the result
            out.sort()
            return out
        data = np.sort(data)
    if P == 1:
        return data

    # 2. Oversampling + splitter selection.  Each rank contributes
    # ``oversample`` evenly spaced keys of its sorted partition; the
    # pool is gathered everywhere and every rank picks the same P - 1
    # splitters by the same pure algebra — no broadcast needed, and the
    # choice is deterministic (ties included).
    if set_phase is not None:
        set_phase("sample", 1)
    s = min(oversample, n)
    idx = np.linspace(0, n - 1, s).astype(np.int64)
    with trace_span(tracer, "transfer", 1):
        all_samples = comm.allgather(data[idx])
    with trace_span(tracer, "local_sort", 1):
        pool = np.sort(np.concatenate(all_samples))
        cut = np.linspace(0, pool.size, P + 1).astype(np.int64)[1:-1]
        splitters = pool[np.maximum(cut - 1, 0)]

    # 3. Histogram partition + the single all-to-all redistribution.
    # ``side="right"`` sends splitter-equal duplicates to the lower
    # bucket on every rank, so the global order of duplicates is fixed.
    if set_phase is not None:
        set_phase("redistribute", 2)
    if tracer is not None:
        tracer.add("remaps")
    with trace_span(tracer, "address", 2):
        bounds = np.searchsorted(data, splitters, side="right")
        edges = np.concatenate([[0], bounds, [n]])
    with trace_span(tracer, "pack", 2):
        buckets: List[Optional[np.ndarray]] = [None] * P
        for q in range(P):
            bucket = data[edges[q]: edges[q + 1]]
            if bucket.size:
                buckets[q] = bucket
    with trace_span(tracer, "transfer", 2):
        received = comm.alltoallv(buckets)

    # 4. Merge the received sorted runs: one sort of their concatenation,
    # in place, at this rank's offset of the result array when given.
    if set_phase is not None:
        set_phase("merge", 3)
    runs = [p for p in received if p is not None and p.size]
    m = sum(run.size for run in runs)
    if out is None:
        merged = np.empty(m, dtype=data.dtype)
    else:
        at = sum(comm.allgather(m)[:r])
        merged = out[at:at + m]
    with trace_span(tracer, "merge", 3):
        if runs:
            np.concatenate(runs, out=merged)
            merged.sort()
    return merged
