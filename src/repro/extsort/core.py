"""Spill-to-disk external sort under a hard working-set budget.

The algorithm is the run-formation + bucket-partition design of Rahn,
Sanders & Singler (*Scalable Distributed-Memory External Sorting*,
arXiv:0910.2582), collapsed onto one box:

1. **Run formation** — the input streams through fixed-budget chunks;
   each chunk is sorted by ``np.sort`` and written to the request's
   :class:`~repro.extsort.spill.SpillDir` as one sorted run.
2. **Bucket partitioning** — splitters are chosen by oversampling the
   runs (the same regular-sampling algebra as
   :mod:`repro.runtime.sample_spmd`, per arXiv:2204.04599), sized so
   every bucket's worth of run slices fits the budget; per-run bucket
   bounds come from ``np.searchsorted`` over read-only memmaps, which
   touches O(log n) pages per run, never the whole file.
3. **k-way bucket merge** — each bucket's slices are read back and
   merged by one ``np.sort`` of their concatenation, streaming the
   result straight into the output (or into the next pass's run file
   when more than ``fan_in`` runs exist).  The output is byte-identical
   to ``np.sort`` of the input.

Skew safety: a bucket that regular sampling under-split (heavy
duplicates) is re-split recursively from its own samples; a bucket that
is one repeated value — where no splitter can help — is streamed out in
budget-sized constant chunks.  Either way the working set stays bounded.

The **budget bounds the arrays this module allocates** (chunk copies,
samples, bucket slices, merged buckets) — the caller's input and the
returned output are the caller's memory, exactly as an in-place API
would have it.  :attr:`ExternalSortReport.peak_resident_bytes` is the
self-accounted high-water mark the tests assert against the budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, MemoryBudgetError
from repro.extsort.spill import SpillDir
from repro.trace.recorder import Tracer, trace_span

__all__ = [
    "ExternalSortReport",
    "external_sort",
    "estimate_spill_bytes",
    "inmem_working_set_bytes",
]

#: Working-set safety divisor: a chunk and its sort scratch must fit the
#: budget together, so chunks are ``budget / 4`` bytes.
_CHUNK_DIVISOR = 4

#: Splitter oversampling factor (samples per wanted bucket) — the
#: regular-sampling regime of arXiv:2204.04599, matching ``sample_spmd``.
_OVERSAMPLE = 32

#: Recursion ceiling for skew re-splitting before merging directly.
_MAX_RESPLIT_DEPTH = 8

#: Estimated peak working set of the in-memory SPMD sort, as a multiple
#: of the input bytes (shards + merge buffers + remap send/recv copies).
#: The admission paths compare ``N * itemsize * this`` against the
#: memory budget to decide when to degrade to the external path.
INMEM_WORKING_SET_FACTOR = 2


def inmem_working_set_bytes(N: int, dtype_size: int) -> int:
    """Estimated peak bytes the in-memory sort needs for ``N`` keys."""
    return int(N) * int(dtype_size) * INMEM_WORKING_SET_FACTOR


def estimate_spill_bytes(nbytes: int) -> int:
    """Peak spill-directory footprint for ``nbytes`` of input: one full
    generation of runs plus, during a merge pass, the half-built next
    generation alongside the not-yet-deleted previous one."""
    return 2 * int(nbytes)


@dataclass
class ExternalSortReport:
    """Everything one :func:`external_sort` call measured about itself."""

    n: int
    budget_bytes: int
    chunk_elements: int
    runs: int
    merge_passes: int
    buckets: int
    spill_bytes: int
    #: Self-accounted high-water mark of this module's own allocations
    #: (the budget's subject; input/output arrays are the caller's).
    peak_resident_bytes: int
    wall_seconds: float

    def describe(self) -> str:
        return (
            f"external sort: {self.n:,} keys under a "
            f"{self.budget_bytes:,}-byte budget — {self.runs} runs, "
            f"{self.merge_passes} merge pass(es), {self.buckets} buckets, "
            f"{self.spill_bytes:,} bytes spilled, peak resident "
            f"{self.peak_resident_bytes:,} bytes, "
            f"{self.wall_seconds:.3f}s wall"
        )


class _Ledger:
    """Self-accounting of this module's live array bytes."""

    __slots__ = ("cur", "peak")

    def __init__(self) -> None:
        self.cur = 0
        self.peak = 0

    def alloc(self, nbytes: int) -> None:
        self.cur += int(nbytes)
        if self.cur > self.peak:
            self.peak = self.cur

    def free(self, nbytes: int) -> None:
        self.cur -= int(nbytes)


class _ArraySink:
    """Streams merged buckets into a preallocated output array."""

    def __init__(self, out: np.ndarray):
        self._out = out
        self._pos = 0

    def write(self, arr: np.ndarray) -> None:
        self._out[self._pos:self._pos + arr.size] = arr
        self._pos += int(arr.size)


def external_sort(
    keys: np.ndarray,
    memory_budget: int,
    *,
    fan_in: int = 64,
    spill_root: Optional[str] = None,
    disk_budget: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[np.ndarray, ExternalSortReport]:
    """Sort ``keys`` out of core; returns ``(sorted, report)``.

    ``memory_budget`` (bytes) bounds the working-set arrays this call
    allocates; ``fan_in`` bounds how many runs one merge pass combines
    (shrink it to force multi-pass merging); ``disk_budget`` (bytes,
    optional) rejects the request up front with
    :class:`~repro.errors.MemoryBudgetError` when the estimated spill
    footprint cannot fit.  The output is byte-identical to
    ``np.sort(keys)``.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1 or keys.size < 1:
        raise ConfigurationError(
            f"external_sort sorts 1-D non-empty arrays, got shape {keys.shape}"
        )
    if memory_budget < 1:
        raise ConfigurationError(
            f"memory_budget must be a positive byte count, got {memory_budget}"
        )
    if fan_in < 2:
        raise ConfigurationError(f"fan_in must be >= 2, got {fan_in}")
    itemsize = keys.dtype.itemsize
    if disk_budget is not None:
        need = estimate_spill_bytes(keys.nbytes)
        if need > disk_budget:
            raise MemoryBudgetError(
                f"external sort of {keys.size:,} keys needs ~{need:,} "
                f"spill bytes, over the {disk_budget:,}-byte disk budget",
                required_bytes=need,
                budget_bytes=disk_budget,
            )
    chunk_elems = max(int(memory_budget) // (itemsize * _CHUNK_DIVISOR), 1)
    bucket_target = max(chunk_elems // 2, 1)
    ledger = _Ledger()
    start = time.perf_counter()
    buckets_merged = 0
    passes = 0
    with SpillDir(root=spill_root) as spill:
        # -- 1. run formation -----------------------------------------
        for lo in range(0, keys.size, chunk_elems):
            chunk = keys[lo:lo + chunk_elems]
            ledger.alloc(2 * chunk.nbytes)  # sorted copy + sort scratch
            with trace_span(tracer, "local_sort", "run-form"):
                run = np.sort(chunk)
            ledger.free(chunk.nbytes)  # scratch gone, sorted copy lives
            with trace_span(tracer, "spill", "write"):
                spill.write_run(run)
            ledger.free(run.nbytes)
            del run
        if tracer is not None:
            tracer.add("ext.runs", len(spill.runs))

        # -- 2. fan-in-limited intermediate merge passes --------------
        while len(spill.runs) > fan_in:
            passes += 1
            generation = spill.runs
            with trace_span(tracer, "merge", "external"):
                for g in range(0, len(generation), fan_in):
                    group = generation[g:g + fan_in]
                    writer = spill.open_run_writer()

                    class _FileSink:
                        def write(self, arr: np.ndarray) -> None:
                            with trace_span(tracer, "spill", "write"):
                                writer.write(arr)

                    buckets_merged += _merge_runs(
                        spill, group, _FileSink(), bucket_target,
                        ledger, tracer,
                    )
                    writer.close()
                    spill.remove_runs([r["file"] for r in group])

        # -- 3. final k-way bucket merge into the output --------------
        passes += 1
        out = np.empty(keys.size, dtype=keys.dtype)
        with trace_span(tracer, "merge", "external"):
            buckets_merged += _merge_runs(
                spill, spill.runs, _ArraySink(out), bucket_target,
                ledger, tracer,
            )
        spill_bytes = spill.bytes_written
        runs_formed = -(-keys.size // chunk_elems)
    if tracer is not None:
        # Marker counter, like sample sort's ``algo.sample``: lets trace
        # gates recognise an out-of-core run (no remaps, no messages).
        tracer.add("algo.external")
        tracer.add("ext.buckets", buckets_merged)
        tracer.add("ext.spill_bytes", spill_bytes)
    report = ExternalSortReport(
        n=int(keys.size),
        budget_bytes=int(memory_budget),
        chunk_elements=chunk_elems,
        runs=runs_formed,
        merge_passes=passes,
        buckets=buckets_merged,
        spill_bytes=spill_bytes,
        peak_resident_bytes=ledger.peak,
        wall_seconds=time.perf_counter() - start,
    )
    return out, report


# -- the bucket merge -------------------------------------------------


def _merge_runs(
    spill: SpillDir,
    runs: Sequence[dict],
    sink,
    bucket_target: int,
    ledger: _Ledger,
    tracer: Optional[Tracer],
) -> int:
    """Merge the given sorted runs through ``sink`` in ascending order;
    returns the number of leaf buckets merged."""
    ranges = [(0, int(r["length"])) for r in runs]
    names = [r["file"] for r in runs]
    return _merge_range(
        spill, names, ranges, sink, bucket_target, ledger, tracer, depth=0
    )


def _merge_range(
    spill: SpillDir,
    names: List[str],
    ranges: List[Tuple[int, int]],
    sink,
    bucket_target: int,
    ledger: _Ledger,
    tracer: Optional[Tracer],
    depth: int,
) -> int:
    total = sum(stop - start for start, stop in ranges)
    if total == 0:
        return 0
    cap = 2 * bucket_target
    if total <= cap or depth >= _MAX_RESPLIT_DEPTH:
        return _merge_leaf(spill, names, ranges, sink, ledger, tracer)
    lo, hi = _range_extrema(spill, names, ranges)
    if lo == hi:
        # One repeated value: no splitter can subdivide it, but no merge
        # is needed either — stream it out in budget-sized pieces.
        itemsize = spill.dtype.itemsize
        remaining = total
        while remaining:
            k = min(remaining, bucket_target)
            ledger.alloc(k * itemsize)
            sink.write(np.full(k, lo, dtype=spill.dtype))
            ledger.free(k * itemsize)
            remaining -= k
        return 1
    splitters = _choose_splitters(
        spill, names, ranges, total, bucket_target, ledger
    )
    buckets = 0
    # Per-run bucket bounds: binary search on the memmap slice —
    # O(buckets · log n) page touches, never a full read.
    bounds: List[np.ndarray] = []
    for name, (start, stop) in zip(names, ranges):
        mm = spill.open_run(name)
        cut = start + np.searchsorted(mm[start:stop], splitters, side="right")
        bounds.append(
            np.concatenate(([start], cut, [stop])).astype(np.int64)
        )
        del mm
    for b in range(len(splitters) + 1):
        sub = [
            (int(bd[b]), int(bd[b + 1])) for bd in bounds
        ]
        buckets += _merge_range(
            spill, names, sub, sink, bucket_target, ledger, tracer,
            depth + 1,
        )
    return buckets


def _merge_leaf(
    spill: SpillDir,
    names: List[str],
    ranges: List[Tuple[int, int]],
    sink,
    ledger: _Ledger,
    tracer: Optional[Tracer],
) -> int:
    itemsize = spill.dtype.itemsize
    slices: List[np.ndarray] = []
    read_bytes = 0
    with trace_span(tracer, "spill", "read"):
        for name, (start, stop) in zip(names, ranges):
            if stop <= start:
                continue
            arr = spill.read_slice(name, start, stop)
            slices.append(arr)
            read_bytes += arr.nbytes
    if not slices:
        return 0
    ledger.alloc(read_bytes)
    if len(slices) == 1:
        merged = slices[0]
        del slices
        sink.write(merged)
        ledger.free(read_bytes)
        return 1
    # The concatenation and its sorted copy live alongside the inputs.
    total_bytes = sum(s.nbytes for s in slices)
    ledger.alloc(2 * total_bytes)
    merged = np.sort(np.concatenate(slices))
    ledger.free(2 * total_bytes)
    ledger.alloc(merged.nbytes)
    del slices
    ledger.free(read_bytes)
    sink.write(merged)
    ledger.free(merged.nbytes)
    return 1


def _range_extrema(
    spill: SpillDir,
    names: List[str],
    ranges: List[Tuple[int, int]],
) -> Tuple:
    """Min first element / max last element over the (sorted) slices —
    two single-element reads per run."""
    lo = hi = None
    for name, (start, stop) in zip(names, ranges):
        if stop <= start:
            continue
        first = spill.read_slice(name, start, start + 1)[0]
        last = spill.read_slice(name, stop - 1, stop)[0]
        lo = first if lo is None else min(lo, first)
        hi = last if hi is None else max(hi, last)
    return lo, hi


def _choose_splitters(
    spill: SpillDir,
    names: List[str],
    ranges: List[Tuple[int, int]],
    total: int,
    bucket_target: int,
    ledger: _Ledger,
) -> np.ndarray:
    """Oversampled regular-sampling splitters, à la ``sample_spmd``:
    evenly spaced samples per run, pooled and cut at regular quantiles.
    ``side="right"`` searches then send splitter-equal duplicates
    deterministically to the lower bucket.

    The pool itself is working set, so it is capped at one chunk's worth
    of elements — under a tiny budget the splitters come out coarser and
    the recursive re-split makes up the difference."""
    num_buckets = max(-(-total // bucket_target), 2)
    pool_cap = max(2 * bucket_target, 2 * len(names))
    total_samples = min(_OVERSAMPLE * num_buckets, pool_cap)
    per_run = max(total_samples // max(len(names), 1), 1)
    samples: List[np.ndarray] = []
    sample_bytes = 0
    for name, (start, stop) in zip(names, ranges):
        n = stop - start
        if n <= 0:
            continue
        mm = spill.open_run(name)
        idx = start + np.linspace(0, n - 1, min(per_run, n)).astype(np.int64)
        s = np.asarray(mm[idx])
        del mm
        samples.append(s)
        sample_bytes += s.nbytes
    ledger.alloc(2 * sample_bytes)  # pool + its sort copy
    pool = np.sort(np.concatenate(samples))
    del samples
    cut = np.linspace(0, pool.size, num_buckets + 1).astype(np.int64)[1:-1]
    splitters = np.unique(pool[np.maximum(cut - 1, 0)])
    ledger.free(2 * sample_bytes)
    return splitters
