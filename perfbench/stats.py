"""The benchmark's own arithmetic: tail percentile, self time, ladder
deltas and failure accounting.

Nothing here imports the program under test, so ``test_stats.py`` checks
the rules on synthetic inputs.
"""

from __future__ import annotations

import statistics
import threading
from collections import Counter, defaultdict
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from config import TAIL_BLOCK

#: A tail needs this many samples beyond it to count as measured.
TAIL_BEYOND = 10


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(percentile, value, n)``: ``value`` is the sample with exactly
    ``TAIL_BEYOND`` samples above it and ``percentile`` its rank,
    ``100 * (n - TAIL_BEYOND) / n``.  With too few samples for any such
    point the maximum is returned at percentile 100, so the caller can see
    from the percentile that the tail is unsupported.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1], n
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - 1 - TAIL_BEYOND], n


def block_tail(samples: Sequence[float]) -> Tuple[float, float, int, int]:
    """``tail`` of each full block of ``TAIL_BLOCK`` consecutive samples,
    and the median over the blocks.

    Returns ``(percentile, value, block size, blocks)``.  Fewer samples
    than one block make one block of all of them.
    """
    n = len(samples)
    if n < TAIL_BLOCK:
        pct, value, size = tail(samples)
        return pct, value, size, 1
    tails = [
        tail(samples[i:i + TAIL_BLOCK])
        for i in range(0, n - TAIL_BLOCK + 1, TAIL_BLOCK)
    ]
    value = statistics.median(t[1] for t in tails)
    return tails[0][0], value, TAIL_BLOCK, len(tails)


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Tuple[float, float, int]]) -> List[float]:
    """Self time of each ``(start, end, parent_index)`` span: its duration
    minus the part of its interval that its children's intervals cover.

    Children may overlap each other (concurrent callers, ranks); the union
    is subtracted once, so self time is never negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (start, end, _parent) in enumerate(spans):
        clipped = [
            (max(s, start), min(e, end)) for s, e in children.get(i, ())
        ]
        out.append((end - start) - covered(clipped))
    return out


def ladder_deltas(
    rungs: Sequence[Tuple[str, float]], floor_ms: float
) -> List[Tuple[str, float, float, float]]:
    """``(name, ms, delta_ms, x_floor)`` per rung: each rung's cost over the
    rung below it (the first rung's delta is its own time) and its time as
    a multiple of the floor."""
    rows = []
    below = 0.0
    for name, ms in rungs:
        rows.append((name, ms, ms - below, ms / floor_ms))
        below = ms
    return rows


def same_bytes(out: np.ndarray, expected: np.ndarray) -> bool:
    """Byte-for-byte identity: same dtype, same length, same bytes."""
    out = np.asarray(out)
    return (
        out.dtype == expected.dtype
        and out.shape == expected.shape
        and np.array_equal(out.view(np.uint8), expected.view(np.uint8))
    )


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else float("nan")


class Tally:
    """Thread-safe request accounting for one closed-loop phase.

    A request counts as failed when it raised (typed error or rejection)
    or returned output that is not byte-identical to ``np.sort`` of its
    input; failed requests stay out of the latency samples.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        #: (shape, kind) -> count; kind is the error type or "wrong-output".
        self.failures: Counter = Counter()
        #: shape -> Counter of served plans ("algorithm:backendxP").
        self.plans: Dict[str, Counter] = defaultdict(Counter)
        self.latencies: List[float] = []
        #: shape -> latencies of its successful requests.
        self.by_shape: Dict[str, List[float]] = defaultdict(list)
        #: input -> np.sort times of that input, one per reply.
        self.floors: Dict[Hashable, List[float]] = defaultdict(list)
        #: input -> successful requests that sent it.
        self.served: Counter = Counter()
        self.keys = 0
        #: Per successful request: whatever the front door reported.
        self.infos: List[dict] = []

    def error(self, shape: str, kind: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            self.failures[(shape, kind)] += 1

    def reply(
        self, shape: str, latency_s: float, ok: bool, item: Hashable,
        floor_s: float, keys: int, plan: Optional[str] = None,
        info: Optional[dict] = None,
    ) -> None:
        """One reply to input ``item``: its latency, whether it was
        byte-identical to ``np.sort``, and the time ``np.sort`` of the same
        input took right after it."""
        with self._lock:
            self.attempted += 1
            self.floors[item].append(floor_s)
            if plan is not None:
                self.plans[shape][plan] += 1
            if not ok:
                self.failed += 1
                self.failures[(shape, "wrong-output")] += 1
                return
            self.latencies.append(latency_s)
            self.by_shape[shape].append(latency_s)
            self.served[item] += 1
            self.keys += keys
            if info is not None:
                self.infos.append(info)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def floor_x(self) -> float:
        """Summed latency over summed floor.  Each request's floor is the
        median ``np.sort`` time of its input over the phase, so a sort
        that waited for the interpreter lock does not count."""
        floor = sum(
            n * statistics.median(self.floors[item])
            for item, n in self.served.items()
        )
        return sum(self.latencies) / floor
