"""One report aligning measurement, simulation, and theory per phase.

The paper's evaluation is phase breakdowns (Figure 5.4, Table 5.4); this
module is the apparatus that produces them from *three* independent
sources at once:

``measured``
    Exclusive per-category wall time recorded by the per-rank
    :class:`~repro.trace.recorder.Tracer` of a real SPMD run (host clock,
    reported in µs, mean over ranks — the same convention as the
    simulator's ``mean_breakdown``).

``simulated``
    The LogGP machine's :class:`~repro.machine.metrics.RunStats` category
    times for the same ``(N, P)``.

``predicted``
    The closed-form :class:`~repro.theory.predict.PredictedTime` (§3.4
    generalized to total time).

Measured numbers are *host* microseconds while simulated/predicted ones
are *Meiko CS-2* microseconds, so absolute columns are not comparable
across that boundary — the **shares** (each category's fraction of its
column's total) are, and the deviation ratio reported per phase is
``measured share / reference share`` (reference = predicted when present,
else simulated).  A deviation near 1 means the LogGP model apportions
time the way the real runtime does; a large one names the phase where
reality and model disagree — exactly what a perf PR needs to claim it
moved a specific phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

from repro.machine.metrics import CATEGORIES, COMM_CATEGORIES, COMPUTE_CATEGORIES, RunStats
from repro.trace.recorder import Tracer

__all__ = ["PhaseReport", "build_phase_report", "merged_counters"]


def merged_counters(tracers: Iterable[Tracer]) -> Dict[str, int]:
    """Sum every counter over the world's tracers."""
    out: Dict[str, int] = {}
    for tr in tracers:
        for name, value in tr.counters.items():
            out[name] = out.get(name, 0) + value
    return out


@dataclass
class PhaseReport:
    """Per-phase time from up to three sources, aligned on the category
    map of :mod:`repro.machine.metrics`.

    Each column is a ``category -> µs per processor`` dict (mean over
    ranks/processors); absent columns are ``None``.  ``counters`` holds
    the world-summed trace counters of the measured run.
    """

    P: int
    n: int
    measured_us: Optional[Dict[str, float]] = None
    simulated_us: Optional[Dict[str, float]] = None
    predicted_us: Optional[Dict[str, float]] = None
    counters: Dict[str, int] = field(default_factory=dict)
    #: Mean traced wall seconds per rank of the measured run.
    measured_wall_s: Optional[float] = None

    #: Category order of every table this report renders.
    categories: Sequence[str] = CATEGORIES

    # -- accessors -----------------------------------------------------

    def column(self, source: str) -> Optional[Dict[str, float]]:
        """One source's times by name: ``measured|simulated|predicted``."""
        return getattr(self, f"{source}_us")

    def total(self, source: str) -> float:
        col = self.column(source)
        return sum(col.values()) if col else 0.0

    def share(self, source: str, category: str) -> float:
        """``category``'s fraction of ``source``'s total time."""
        col = self.column(source)
        total = self.total(source)
        if not col or total <= 0.0:
            return 0.0
        return col.get(category, 0.0) / total

    def deviation(self, category: str) -> Optional[float]:
        """Measured share over the reference share (predicted when
        available, else simulated); ``None`` when either side is absent
        or the reference share is zero."""
        if self.measured_us is None:
            return None
        reference = "predicted" if self.predicted_us is not None else "simulated"
        if self.column(reference) is None:
            return None
        ref = self.share(reference, category)
        if ref <= 0.0:
            return None
        return self.share("measured", category) / ref

    def split(self, source: str) -> Dict[str, float]:
        """Computation / communication / other µs of one column (the
        Figure 5.4 split)."""
        col = self.column(source) or {}
        comp = sum(col.get(c, 0.0) for c in COMPUTE_CATEGORIES)
        comm = sum(col.get(c, 0.0) for c in COMM_CATEGORIES)
        return {
            "computation": comp,
            "communication": comm,
            "other": self.total(source) - comp - comm,
        }

    # -- rendering -----------------------------------------------------

    def describe(self) -> str:
        """Aligned measured / simulated / predicted per-phase table."""
        sources = [
            s for s in ("measured", "simulated", "predicted")
            if self.column(s) is not None
        ]
        header = ["phase"]
        for s in sources:
            header += [f"{s} µs", "%"]
        if self.measured_us is not None and len(sources) > 1:
            header.append("dev")
        rows = []
        for cat in self.categories:
            if not any(self.column(s).get(cat, 0.0) for s in sources):
                continue
            row = [cat]
            for s in sources:
                row.append(f"{self.column(s).get(cat, 0.0):.1f}")
                row.append(f"{100.0 * self.share(s, cat):.1f}")
            if self.measured_us is not None and len(sources) > 1:
                dev = self.deviation(cat)
                row.append("-" if dev is None else f"{dev:.2f}")
            rows.append(row)
        total_row = ["total"]
        for s in sources:
            total_row += [f"{self.total(s):.1f}", "100.0"]
        if self.measured_us is not None and len(sources) > 1:
            total_row.append("")
        rows.append(total_row)

        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows))
            for i in range(len(header))
        ]
        lines = [
            f"phase breakdown — P={self.P}, n={self.n:,} keys/rank "
            "(µs per processor; measured = host clock, "
            "simulated/predicted = LogGP model)",
            "  ".join(h.rjust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        lines += ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in rows]
        for s in sources:
            sp = self.split(s)
            lines.append(
                f"{s:>9}: computation {sp['computation']:.1f} µs, "
                f"communication {sp['communication']:.1f} µs, "
                f"other {sp['other']:.1f} µs"
            )
        if self.measured_wall_s is not None:
            lines.append(
                f"measured wall (mean per rank): {self.measured_wall_s:.4f} s"
            )
        if self.counters:
            pretty = ", ".join(
                f"{k}={v:,}" for k, v in sorted(self.counters.items())
            )
            lines.append(f"counters: {pretty}")
        return "\n".join(lines)

    def as_dict(self) -> Dict:
        """JSON-ready form (used by exporters and the CI trace gate)."""
        return {
            "P": self.P,
            "n": self.n,
            "categories": list(self.categories),
            "measured_us": self.measured_us,
            "simulated_us": self.simulated_us,
            "predicted_us": self.predicted_us,
            "deviation": {
                c: self.deviation(c)
                for c in self.categories
                if self.deviation(c) is not None
            },
            "counters": dict(self.counters),
            "measured_wall_s": self.measured_wall_s,
        }


def build_phase_report(
    tracers: Optional[Sequence[Tracer]] = None,
    stats: Optional[RunStats] = None,
    predicted=None,
    P: Optional[int] = None,
    n: Optional[int] = None,
) -> PhaseReport:
    """Assemble a :class:`PhaseReport` from whichever sources exist.

    ``tracers`` are the measured run's per-rank recorders; ``stats`` is a
    simulated :class:`~repro.machine.metrics.RunStats`; ``predicted`` is a
    :class:`~repro.theory.predict.PredictedTime`.  ``P``/``n`` default to
    whatever the given sources agree on.
    """
    measured = counters = wall = None
    if tracers:
        per_rank = [tr.totals() for tr in tracers]
        measured = {
            cat: 1e6 * sum(t.get(cat, 0.0) for t in per_rank) / len(per_rank)
            for cat in CATEGORIES
            if any(t.get(cat, 0.0) for t in per_rank)
        }
        counters = merged_counters(tracers)
        wall = sum(tr.wall() for tr in tracers) / len(tracers)
        P = P if P is not None else len(tracers)
    simulated = None
    if stats is not None:
        simulated = {
            c: v for c, v in stats.mean_breakdown.times.items() if v
        }
        P = P if P is not None else stats.P
        n = n if n is not None else stats.n
    pred_col = None
    if predicted is not None:
        pred_col = {c: v for c, v in predicted.times.items() if v}
        P = P if P is not None else predicted.P
        n = n if n is not None else predicted.n
    return PhaseReport(
        P=P or 0,
        n=n or 0,
        measured_us=measured,
        simulated_us=simulated,
        predicted_us=pred_col,
        counters=counters or {},
        measured_wall_s=wall,
    )
