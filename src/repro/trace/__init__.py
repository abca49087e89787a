"""Unified tracing/metrics for the SPMD runtimes.

The simulated machine always accounted for where time goes
(:mod:`repro.machine.metrics`); the real ``threads`` backend ran
blind.  This package closes that gap:

* :mod:`repro.trace.recorder` — :class:`Tracer`: a low-overhead per-rank
  span/counter recorder using the *same category map* as the simulator
  (``local_sort``, ``merge``, ``pack``, ``transfer``, ``unpack``,
  ``wait``, ``retransmit``, …), threaded through the
  :class:`~repro.runtime.api.Comm` protocol as an optional ``tracer`` so
  the backend records collectives, the SPMD sort records phases, and
  the reliable transport records retransmissions;
* :mod:`repro.trace.report` — :class:`PhaseReport`: measured SPMD spans,
  simulated :class:`~repro.machine.metrics.RunStats`, and the LogGP
  closed forms (§3.4) aligned side by side with deviation ratios;
* :mod:`repro.trace.export` — Chrome-trace (``chrome://tracing``) and
  JSON exporters.

``repro-bitonic trace`` is the CLI face; ``repro.api.sort(trace=True)``
is the programmatic one.
"""

from repro.trace.export import (
    CHROME_TRACE_SCHEMA,
    to_chrome_trace,
    trace_to_dict,
    write_chrome_trace,
)
from repro.trace.recorder import COUNTERS, Tracer, trace_span
from repro.trace.report import PhaseReport, build_phase_report, merged_counters

__all__ = [
    "CHROME_TRACE_SCHEMA",
    "COUNTERS",
    "PhaseReport",
    "Tracer",
    "build_phase_report",
    "merged_counters",
    "to_chrome_trace",
    "trace_span",
    "trace_to_dict",
    "write_chrome_trace",
]
