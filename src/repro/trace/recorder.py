"""The per-rank span/counter recorder.

A :class:`Tracer` is one rank's measurement notebook: *spans* are
``(category, name, start, end)`` intervals on the host's monotonic clock
(:func:`time.perf_counter`), *counters* are named integals (bytes sent,
messages, remaps, retries).  Span categories are exactly the simulated
machine's time categories (:data:`repro.machine.metrics.CATEGORIES`), so a
measured SPMD run, a simulated run, and the LogGP closed forms can be laid
side by side phase for phase (:mod:`repro.trace.report`).

Spans nest: a ``transfer`` span opened by the sort around ``alltoallv``
contains the ``wait`` spans the communicator records at its barriers.  The
recorder keeps the parent index of every span, and :meth:`Tracer.totals`
reports *exclusive* (self) time per category, so nested categories never
double-count — per-rank category totals sum to (at most) the traced wall
time.

Overhead discipline: recording is two ``perf_counter()`` calls and one
list append per span.  When no tracer is armed the instrumented code paths
go through :func:`trace_span` with ``tracer=None``, which returns one
shared no-op context manager — **zero objects allocated** on the untraced
hot path (``tests/test_trace.py`` pins this).

Tracers are plain data (lists, dicts, ints), so they serialize cheaply,
and on Linux ``perf_counter`` is ``CLOCK_MONOTONIC``, so timestamps taken
in different processes on one host share one timebase.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.machine.metrics import CATEGORIES

__all__ = ["COUNTERS", "Tracer", "trace_span"]

_CATEGORY_SET = frozenset(CATEGORIES)

#: The counter names the instrumented runtimes emit (a tracer accepts any
#: name; these are the documented ones).
COUNTERS = (
    "messages",         # payloads actually handed to a peer
    "bytes_sent",       # payload bytes of those messages
    "coll.alltoallv",   # collective calls, by kind
    "coll.allgather",
    "coll.bcast",
    "coll.slots",       # per-destination descriptor slots written/scanned
    "remaps",           # data remaps performed by the sort
    "retries",          # retransmission rounds (reliable transport)
    "resent_elements",  # elements retransmitted across those rounds
    "ext.runs",         # sorted runs the external sort spilled to disk
    "ext.buckets",      # splitter-bounded buckets merged back out
    "ext.spill_bytes",  # bytes written to the spill directory
)

#: Shared no-op context manager for the ``tracer=None`` fast path.  It is
#: stateless, so concurrent reuse from many ranks is safe.
_NOOP = nullcontext()


class Tracer:
    """Low-overhead span/counter recorder for one rank.

    Use :meth:`span` as a context manager (or the paired
    :meth:`begin`/:meth:`end` where a ``with`` block is awkward) and
    :meth:`add` for counters.  A tracer belongs to one rank — one thread
    or process — and is never shared.
    """

    __slots__ = ("rank", "spans", "counters", "_stack")

    def __init__(self, rank: int = 0):
        self.rank = rank
        #: ``[category, name, start_s, end_s, parent_index]`` per span,
        #: in open order; ``parent_index`` is -1 for top-level spans.
        self.spans: List[List[Any]] = []
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = []

    # -- recording -----------------------------------------------------

    def begin(self, category: str, name: Any = None) -> int:
        """Open a span; returns its index for :meth:`end`."""
        if category not in _CATEGORY_SET:
            raise ConfigurationError(
                f"unknown trace category {category!r}; use one of {CATEGORIES}"
            )
        spans = self.spans
        index = len(spans)
        stack = self._stack
        spans.append(
            [category, name, perf_counter(), 0.0, stack[-1] if stack else -1]
        )
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span opened by the matching :meth:`begin` (LIFO)."""
        self.spans[index][3] = perf_counter()
        self._stack.pop()

    def span(self, category: str, name: Any = None) -> "_Span":
        """Context manager recording one span."""
        return _Span(self, category, name)

    def add(self, counter: str, value: int = 1) -> None:
        """Accumulate ``value`` into the named counter."""
        self.counters[counter] = self.counters.get(counter, 0) + value

    def absorb(self, other: "Tracer") -> None:
        """Append ``other``'s spans, their nesting kept, and add its
        counters into this tracer's: one request's tracers read as one
        timeline."""
        base = len(self.spans)
        self.spans.extend(
            [category, name, start, end, parent + base if parent >= 0 else -1]
            for category, name, start, end, parent in other.spans
        )
        for counter, value in other.counters.items():
            self.add(counter, value)

    # -- summaries -----------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Exclusive (self) seconds per category.

        A span's children are subtracted from it, so nested spans never
        double-count; categories absent from the trace are omitted.
        Unclosed spans are ignored.
        """
        sums: Dict[str, float] = {}
        spans = self.spans
        for category, _name, start, end, parent in spans:
            if end < start:
                continue  # never closed
            dur = end - start
            sums[category] = sums.get(category, 0.0) + dur
            if parent >= 0:
                pcat = spans[parent][0]
                sums[pcat] = sums.get(pcat, 0.0) - dur
        return sums

    def wall(self) -> float:
        """Seconds covered by top-level spans (the traced wall time)."""
        return sum(
            end - start
            for _c, _n, start, end, parent in self.spans
            if parent < 0 and end >= start
        )

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (
            f"Tracer(rank={self.rank}, spans={len(self.spans)}, "
            f"counters={self.counters})"
        )


class _Span:
    """Context manager recording one span on its tracer."""

    __slots__ = ("_tracer", "_category", "_name", "_index")

    def __init__(self, tracer: Tracer, category: str, name: Any):
        self._tracer = tracer
        self._category = category
        self._name = name

    def __enter__(self) -> "_Span":
        self._index = self._tracer.begin(self._category, self._name)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.end(self._index)


def trace_span(tracer: Optional[Tracer], category: str, name: Any = None):
    """A span on ``tracer``, or the shared no-op context when ``tracer``
    is ``None`` — the instrumented hot paths call this unconditionally and
    pay nothing when tracing is off."""
    return _NOOP if tracer is None else _Span(tracer, category, name)
