"""Spans recorded around each layer call from the benchmark's own code.

Every span carries a name, a category (the layer for the benchmark's own
spans, the phase category for spans the program recorded itself), start
and end on the ``perf_counter`` clock, its parent's index and a request
id.  Spans the program already emits with ``trace=True`` (rank phases,
client frame spans) are folded in under the benchmark span that caused
them, and everything is written out at the end as one Chrome trace.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence

from stats import self_times

#: Chrome-trace process ids: the benchmark's spans, and the program's.
BENCH_PID = 0
PROGRAM_PID = 1


class Spans:
    """Thread-safe in-memory span list; written out once at the end."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: [name, category, start, end, parent, rid, pid, lane]
        self.rows: List[list] = []

    def open(self, name: str, category: str, rid: str, parent: int = -1,
             lane: int = 0) -> int:
        with self._lock:
            self.rows.append(
                [name, category, perf_counter(), -1.0, parent, rid,
                 BENCH_PID, lane]
            )
            return len(self.rows) - 1

    def close(self, index: int) -> None:
        self.rows[index][3] = perf_counter()

    @contextmanager
    def span(self, name: str, category: str, rid: str, parent: int = -1,
             lane: int = 0) -> Iterator[int]:
        index = self.open(name, category, rid, parent, lane)
        try:
            yield index
        finally:
            self.close(index)

    def fold(self, tracer, parent: int, rid: str, lane: int) -> None:
        """Adopt one program ``Tracer``'s spans under ``parent``."""
        with self._lock:
            base = len(self.rows)
            for category, name, start, end, p in tracer.spans:
                self.rows.append([
                    category if name is None else f"{category}:{name}",
                    category, start, end,
                    parent if p < 0 else base + p, rid, PROGRAM_PID, lane,
                ])

    def write_chrome(self, path: str) -> None:
        closed = [r for r in self.rows if r[3] >= r[2]]
        origin = min((r[2] for r in closed), default=0.0)
        events: List[Dict] = [
            {"ph": "M", "name": "process_name", "pid": pid,
             "args": {"name": label}}
            for pid, label in ((BENCH_PID, "benchmark"),
                               (PROGRAM_PID, "program"))
        ]
        for i, (name, cat, start, end, parent, rid, pid, lane) in enumerate(
            self.rows
        ):
            if end < start:
                continue
            events.append({
                "name": name, "cat": cat, "ph": "X", "pid": pid, "tid": lane,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": i, "parent": parent, "request": rid},
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def phase_self_ms(tracers: Sequence, categories: Sequence[str]
                  ) -> Dict[str, float]:
    """Per category, the largest per-rank sum of span self time (ms) — the
    rank that sets the phase's time."""
    best: Dict[str, float] = {c: 0.0 for c in categories}
    for tracer in tracers:
        if tracer is None:
            continue
        spans = [(s, e if e >= s else s, p) for _c, _n, s, e, p in tracer.spans]
        sums: Dict[str, float] = defaultdict(float)
        for (category, *_rest), own in zip(tracer.spans, self_times(spans)):
            sums[category] += own
        for c in categories:
            best[c] = max(best[c], sums.get(c, 0.0) * 1e3)
    return best


def lane_for(caller: Optional[int], rank: int = -1) -> int:
    """Chrome lane: one per caller thread, one per (caller, rank) below it."""
    base = 0 if caller is None else (caller + 1) * 100
    return base if rank < 0 else base + 1 + rank
