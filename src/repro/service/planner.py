"""The LogGP-driven request planner.

Given a request's ``(N, dtype, faults)`` the planner chooses the cheapest
execution: **algorithm** (smart bitonic vs sample sort — the Figure
5.7/5.8 crossover, priced live), world size ``P``, and the
fused/grouped communication flags — using the paper's
closed forms priced with the host's calibrated
:class:`~repro.service.profile.HostProfile`, optionally biased by
measured bench history (``BENCH_pr*.json``).  This mirrors how
engineered distributed sorters pick algorithms from machine parameters
instead of hardcoding one.  The profile prices every local sort and
merge phase at its measured ``np.sort`` rate and memoizes each
candidate's static price, so planning a shape seen before costs a few
table lookups; a one-rank plan is priced without world dispatch, since
the service runs it in its dispatcher thread.

Every choice has a **forced-override escape hatch**: pass
``algorithm=``, ``backend=``, ``P=``, ``fused=`` or ``grouped=`` to
:meth:`Planner.plan` and the planner optimizes only the remaining free
dimensions.

One choice is a *safety clamp*, not an optimization: a request with an
armed fault plan runs with ``fused=False`` / ``grouped=False`` — the
:class:`~repro.faults.transport.ReliableComm` wrapper cannot fuse, and
while the :class:`~repro.runtime.api.Comm` ABC would fall back
transparently, the planner must never *select* a configuration it knows
will fall back.  The clamp beats a forced override and is pinned by a
property test.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.runtime.driver import BACKENDS
from repro.service.adapt import RequestAdapter
from repro.service.profile import HostProfile

__all__ = ["PlanDecision", "Planner", "BenchHistory", "EXTERNAL_BACKEND"]

#: Candidate world sizes considered when ``P`` is not forced.
_DEFAULT_CANDIDATE_P = (1, 2, 4, 8)

#: Algorithms the planner prices against each other when ``algorithm``
#: is not forced: the two the SPMD runtime implements in memory, plus
#: the out-of-core external sort (auto-considered only once the profile
#: carries measured disk evidence; always available forced or
#: budget-degraded).
PLANNABLE_ALGORITHMS = ("smart", "sample", "external")

#: The in-memory subset — what competes when the profile has no disk
#: evidence and no budget forces the request out of core.
_INMEM_ALGORITHMS = ("smart", "sample")

#: The external regime's pseudo-backend name: the request runs
#: in-process on the serving host, not on an SPMD world — the world
#: pool must never try to spawn it.
EXTERNAL_BACKEND = "local"


@dataclass(frozen=True)
class PlanDecision:
    """One request's chosen execution and why.

    ``est_seconds`` is the model's estimate for the chosen config;
    ``candidates`` maps every considered ``(backend, P)`` to its
    estimate, so callers (and the decision table in SERVING.md) can see
    the margins.  ``clamped`` is True when fault safety or the memory
    budget overrode a request's own flags; ``source`` records what the
    choice rode on (``"model"``, ``"history"``, ``"adapted"``,
    ``"forced"`` or ``"budget"`` — the last meaning the memory budget
    degraded the request to the out-of-core external sort).
    """

    backend: str
    P: int
    algorithm: str
    fused: bool
    grouped: bool
    est_seconds: float
    clamped: bool = False
    source: str = "model"
    candidates: Dict[str, float] = field(default_factory=dict)
    #: The same candidates priced by the *static* model (profile + bench
    #: history, no live corrections).  Empty unless an online
    #: :class:`~repro.service.adapt.RequestAdapter` repriced the table —
    #: then ``candidates`` holds the adapted estimates the choice rode on
    #: and this column shows what the frozen model believed, side by side
    #: in :meth:`explain`.
    static_candidates: Dict[str, float] = field(default_factory=dict)
    # Constants, not fields: perfbench/ladder.py still reads these names.
    overlap = False
    chunks = 1

    def explain(self) -> str:
        ranked = sorted(self.candidates.items(), key=lambda kv: kv[1])
        chosen = (
            ("" if self.algorithm == "smart" else f"{self.algorithm}:")
            + f"{self.backend}x{self.P}"
        )
        lines = [
            f"plan: {self.algorithm} on {self.backend} x {self.P}, "
            f"fused={self.fused} grouped={self.grouped}"
            + f" (~{self.est_seconds * 1e3:.3f} ms, source={self.source}"
            + (
                ", budget-clamped"
                if self.clamped and self.source == "budget"
                else ", fault-clamped" if self.clamped else ""
            )
            + ")"
        ]
        if self.static_candidates:
            lines.append(
                f"    {'candidate':<18} {'static':>11}  {'adapted':>11}"
            )
            for name, est in ranked:
                marker = "*" if name == chosen else " "
                static = self.static_candidates.get(name)
                static_txt = (
                    "-" if static is None else f"{static * 1e3:8.3f} ms"
                )
                lines.append(
                    f"  {marker} {name:<18} {static_txt:>11}  "
                    f"{est * 1e3:8.3f} ms"
                )
        else:
            for name, est in ranked:
                marker = "*" if name == chosen else " "
                lines.append(f"  {marker} {name:<18} ~{est * 1e3:8.3f} ms")
        return "\n".join(lines)


class BenchHistory:
    """Measured end-to-end latencies from committed bench trajectories.

    Loads the ``end_to_end`` records of ``BENCH_pr*.json`` files (schema
    ``repro-bitonic-bench/2+``) and answers "what did backend X actually
    cost near N keys on this host" — the empirical correction on top of
    the closed forms.
    """

    def __init__(self, records: Sequence[Dict[str, Any]] = ()):
        self._records = [
            r for r in records
            if "backend" in r and "keys" in r and "best_s" in r
        ]

    @classmethod
    def load(cls, paths: Optional[Sequence[str]] = None) -> "BenchHistory":
        """Load from explicit paths, or from ``BENCH_pr*.json`` in the
        current directory when none are given.  Unreadable files are
        skipped — history is a bias, never a requirement."""
        if paths is None:
            paths = sorted(glob.glob("BENCH_pr*.json"))
        records: List[Dict[str, Any]] = []
        for path in paths:
            if not os.path.exists(path):
                continue
            try:
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                records.extend(doc.get("end_to_end", []))
            except (OSError, ValueError):
                continue
        return cls(records)

    def __len__(self) -> int:
        return len(self._records)

    def best(
        self, backend: str, N: int, algorithm: str = "smart"
    ) -> Optional[Tuple[float, int]]:
        """Best measured ``(seconds, keys)`` for ``backend`` running
        ``algorithm`` at the record size nearest ``N`` (within a factor
        of 4), fused variant preferred implicitly by taking the minimum.
        Records predating the algorithm field (schema < 6) are bitonic
        trajectories and count as ``"smart"``."""
        nearby = [
            r for r in self._records
            if r["backend"] == backend
            and r.get("algorithm", "smart") == algorithm
            and N / 4 <= r["keys"] <= N * 4
        ]
        if not nearby:
            return None
        r = min(nearby, key=lambda r: (abs(r["keys"] - N), r["best_s"]))
        best = min(
            x["best_s"] for x in nearby if x["keys"] == r["keys"]
        )
        return best, int(r["keys"])


class Planner:
    """Choose (algorithm, P, flags) per request from the host profile.

    ``candidate_P`` restricts the world sizes considered.  ``history``
    supplies measured latencies used to scale the model's estimates
    (estimate × measured/modeled at the nearest benched size).
    ``adapter`` closes the online feedback loop: when a
    :class:`~repro.service.adapt.RequestAdapter` is attached, ``plan()``
    reprices every candidate with its live correction factors (unless
    the caller passes ``adapt=False`` or the fault clamp engages — those
    paths stay byte-identical to the static planner).  Without a
    ``profile`` the planner prices with the adapter's, so both read one
    price memo.
    """

    def __init__(
        self,
        profile: Optional[HostProfile] = None,
        candidate_P: Sequence[int] = _DEFAULT_CANDIDATE_P,
        history: Optional[BenchHistory] = None,
        adapter: Optional[RequestAdapter] = None,
    ):
        self.profile = profile or (
            adapter.profile if adapter is not None
            else HostProfile.default()
        )
        missing = [b for b in BACKENDS if b not in self.profile.backends]
        if missing:
            raise ConfigurationError(
                f"the host profile has no costs for backend(s) {missing} "
                f"(knows {sorted(self.profile.backends)})"
            )
        self.candidate_P = tuple(sorted(set(candidate_P)))
        self.history = history if history is not None else BenchHistory()
        self.adapter = adapter

    # -- the decision --------------------------------------------------

    def plan(
        self,
        N: int,
        *,
        dtype_size: int = 4,
        faults: bool = False,
        algorithm: Optional[str] = None,
        backend: Optional[str] = None,
        P: Optional[int] = None,
        fused: Optional[bool] = None,
        grouped: Optional[bool] = None,
        warm: bool = True,
        adapt: bool = True,
        memory_budget: Optional[int] = None,
    ) -> PlanDecision:
        """Plan one sort request of ``N`` keys.

        Keyword arguments other than ``faults``/``warm``/``adapt`` are
        forced overrides: ``None`` means "planner chooses".
        ``faults=True`` applies the safety clamp described in the module
        docstring — it wins even over forced ``fused``/``grouped``.

        ``adapt`` engages the attached
        :class:`~repro.service.adapt.RequestAdapter` (a no-op without
        one): every candidate is priced twice — statically (profile +
        bench history, exactly the computation run without an adapter)
        and with the live corrections — and the *adapted* estimates pick
        the winner, with both columns kept on the decision
        (:attr:`PlanDecision.static_candidates`).  An unobserved
        candidate's adapted price equals its static price, so adaptation
        only moves decisions on evidence.  ``adapt=False``, a missing
        adapter, or an armed fault plan (live corrections reflect the
        unclamped fast path, not the fault transport) all fall back to
        the static path, byte-identical to a planner with no adapter.

        With ``algorithm=None`` (or ``"auto"``) the planner prices both
        runnable algorithms — smart bitonic and sample sort — against
        each other, each at its own bench-history bias, and the winner's
        name lands on :attr:`PlanDecision.algorithm` (the ``sample:``-
        prefixed rows of :meth:`PlanDecision.explain`'s candidate
        table).

        ``memory_budget`` (bytes) engages the third regime: when the
        request's estimated in-memory working set
        (:func:`~repro.extsort.inmem_working_set_bytes`) exceeds the
        budget the planner degrades to the out-of-core ``"external"``
        algorithm — a single-host spill-to-disk run on the ``"local"``
        pseudo-backend at ``P=1`` — overriding even forced
        ``algorithm``/``backend``/``P`` (``clamped=True``,
        ``source="budget"``).  A budget-degraded *fault* request is a
        contradiction (the external path has no fault transport) and
        raises :class:`~repro.errors.ConfigurationError`.  Within
        budget, external competes in the auto-priced table only when the
        profile carries measured disk evidence
        (:attr:`~repro.service.profile.HostProfile.has_disk_evidence`)
        — never chosen on conservative defaults alone.
        """
        if N < 1:
            raise ConfigurationError(f"cannot plan a sort of {N} keys")
        if backend not in (None, EXTERNAL_BACKEND) + BACKENDS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; choose from {list(BACKENDS)}"
            )
        if algorithm == "auto":
            algorithm = None
        if algorithm is not None and algorithm not in PLANNABLE_ALGORITHMS:
            raise ConfigurationError(
                f"the planner cannot schedule algorithm {algorithm!r}; "
                f"choose from {PLANNABLE_ALGORITHMS} (or None for auto)"
            )
        clamped = False
        budget_forced = False
        if memory_budget is not None and memory_budget < 1:
            raise ConfigurationError(
                f"memory_budget must be >= 1 byte, got {memory_budget}"
            )
        if memory_budget is not None:
            from repro.extsort import inmem_working_set_bytes

            if inmem_working_set_bytes(N, dtype_size) > memory_budget:
                if faults:
                    raise ConfigurationError(
                        f"request of {N} keys exceeds the "
                        f"{memory_budget}-byte memory budget but carries "
                        f"an armed fault plan; the out-of-core path has "
                        f"no fault transport — raise the budget or drop "
                        f"the fault plan"
                    )
                # Budget degradation: the working set does not fit, so
                # the request runs out of core regardless of what was
                # forced — like the fault clamp, the planner must never
                # select a configuration it knows will OOM.
                budget_forced = True
                if (
                    algorithm not in (None, "external")
                    or backend not in (None, EXTERNAL_BACKEND)
                    or (P is not None and P != 1)
                ):
                    clamped = True
                algorithm = "external"
                backend = None
                P = None
        if algorithm == "external":
            if faults:
                raise ConfigurationError(
                    "the external sort runs in-process with no fault "
                    "transport; fault injection needs an SPMD algorithm"
                )
            if backend not in (None, EXTERNAL_BACKEND):
                raise ConfigurationError(
                    f"algorithm 'external' runs on the "
                    f"{EXTERNAL_BACKEND!r} pseudo-backend, not "
                    f"{backend!r}"
                )
            if P is not None and P != 1:
                raise ConfigurationError(
                    f"the external sort is single-host: P must be 1, "
                    f"got {P}"
                )
            backend = None
            P = None
        if backend == EXTERNAL_BACKEND:
            raise ConfigurationError(
                f"the {EXTERNAL_BACKEND!r} pseudo-backend runs only "
                f"algorithm='external'"
            )
        if faults:
            # Safety clamp: the fault transport cannot fuse or group
            # (ReliableComm wraps every payload in checksummed frames;
            # the transparent ABC fallback would engage on every remap).
            # Never *plan* into a fallback.
            if fused is not False or grouped is not False:
                clamped = True
            fused = False
            grouped = False
        use_fused = True if fused is None else fused
        use_grouped = True if grouped is None else grouped

        if P is not None:
            if P < 1 or N % P:
                raise ConfigurationError(
                    f"{N} keys do not divide over P={P} ranks"
                )
            if P > 1 and N // P < 2:
                raise ConfigurationError(
                    f"P={P} leaves {N // P} key(s) per rank; the smart "
                    f"schedule needs at least 2"
                )
            candidates_P = (P,)
        else:
            # Smart schedules need >= 2 keys per rank (P=1 is the
            # degenerate local sort and always valid).
            candidates_P = tuple(
                p for p in self.candidate_P
                if p == 1 or (N % p == 0 and N // p >= 2)
            ) or (1,)

        # Which algorithms compete: one when forced; otherwise every
        # runnable algorithm — the out-of-core regime only once the
        # profile carries measured disk bandwidth (conservative defaults
        # must never win an auto race).
        if algorithm is not None:
            algos: Tuple[str, ...] = (algorithm,)
        elif self.profile.has_disk_evidence:
            algos = PLANNABLE_ALGORITHMS
        else:
            algos = _INMEM_ALGORITHMS
        # Live corrections engage only when an adapter is attached, the
        # caller kept ``adapt``, and no fault clamp is armed — every
        # other path runs exactly the static computation below.
        adapter = self.adapter if (adapt and not faults) else None
        candidates: Dict[str, float] = {}
        static_candidates: Dict[str, float] = {}
        best: Optional[Tuple[float, str, str, int]] = None
        for algo in algos:
            if algo == "external":
                # The out-of-core regime is a single candidate: it runs
                # in-process on the serving host (``local`` pseudo-
                # backend, P=1), so there is no backend/P sweep — just
                # the I/O closed form, biased by its own bench history
                # and live EWMA correction like every other candidate.
                scale = self._history_scale(
                    EXTERNAL_BACKEND, N, dtype_size, "external"
                )
                est = self.profile.estimate(
                    N, 1, EXTERNAL_BACKEND, algorithm="external",
                    dtype_size=dtype_size, memory_budget=memory_budget,
                ) * scale
                name = f"external:{EXTERNAL_BACKEND}x1"
                if adapter is not None:
                    corr = adapter.correction(EXTERNAL_BACKEND, 1, "external")
                    adapted = est if corr is None else est / scale * corr
                    static_candidates[name] = est
                    candidates[name] = adapted
                    est = adapted
                else:
                    candidates[name] = est
                if best is None or est < best[0]:
                    best = (est, "external", EXTERNAL_BACKEND, 1)
                continue
            prefix = "" if algo == "smart" else f"{algo}:"
            for b in BACKENDS:
                scale = self._history_scale(b, N, dtype_size, algo)
                for p in candidates_P:
                    model = self.profile.estimate(
                        N, p, b,
                        algorithm=algo,
                        fused=use_fused, grouped=use_grouped,
                        warm=warm, dtype_size=dtype_size,
                    )
                    est = model * scale
                    name = f"{prefix}{b}x{p}"
                    if adapter is not None:
                        # Adapted price: the live measured/modeled factor
                        # replaces the bench-history scale for observed
                        # keys (live beats committed); an unobserved key
                        # keeps the static price, so adaptation never
                        # diverges without evidence.
                        corr = adapter.correction(b, p, algo)
                        adapted = est if corr is None else model * corr
                        static_candidates[name] = est
                        candidates[name] = adapted
                        est = adapted
                    else:
                        candidates[name] = est
                    if best is None or est < best[0]:
                        best = (est, algo, b, p)
        assert best is not None
        est, chosen_algo, chosen_backend, chosen_P = best
        forced = backend is not None and P is not None
        source = (
            "budget" if budget_forced
            else "forced" if forced
            else "adapted" if adapter is not None and adapter.updates
            else "history" if len(self.history) and not faults
            else "model"
        )
        return PlanDecision(
            backend=chosen_backend,
            P=chosen_P,
            algorithm=chosen_algo,
            fused=use_fused,
            grouped=use_grouped,
            est_seconds=est,
            clamped=clamped,
            source=source,
            candidates=candidates,
            static_candidates=static_candidates if adapter is not None else {},
        )

    def _history_scale(
        self, backend: str, N: int, dtype_size: int,
        algorithm: str = "smart",
    ) -> float:
        """Measured/modeled ratio at the nearest benched size: scales the
        model's estimate for ``backend`` running ``algorithm`` so
        systematic model error (GIL serialization, allocator behaviour)
        cancels out of the algorithm- and backend-vs-backend comparison.
        An algorithm with no bench records of its own falls back to the
        backend's bitonic-derived ratio — the backend-systematic share of
        the error transfers even before the algorithm is benched."""
        hit = self.history.best(backend, N, algorithm)
        if hit is None and algorithm not in ("smart", "external"):
            # An SPMD algorithm with no records of its own borrows the
            # backend's bitonic ratio; the external sort shares nothing
            # with the SPMD backends and never borrows.
            algorithm = "smart"
            hit = self.history.best(backend, N, algorithm)
        if hit is None:
            return 1.0
        measured, keys = hit
        # Bench records run cold at their recorded procs count; compare
        # against the cold model estimate at the benched size.  P is not
        # recorded per-history here, so use the bench default of 4 (the
        # external sort is always P=1 and modeled by its own form).
        try:
            modeled = self.profile.estimate(
                keys, 4, backend, algorithm=algorithm,
                warm=False, dtype_size=dtype_size,
            )
        except ConfigurationError:
            return 1.0
        if modeled <= 0 or measured <= 0:
            return 1.0
        ratio = measured / modeled
        # Clamp: history is a bias, not an oracle — a wildly off ratio
        # (different host, stale file) must not invert sane decisions.
        return min(max(ratio, 0.25), 4.0)

    # -- reporting ------------------------------------------------------

    def decision_table(
        self,
        sizes: Sequence[int] = (1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20),
        memory_budget: Optional[int] = None,
    ) -> str:
        """Human-readable table of what the planner would pick per size
        (the "planner decision table" of docs/SERVING.md).  With an
        attached adapter the table grows a static column: what the frozen
        model priced the chosen candidate at, next to the adapted
        estimate the choice actually rode on.  ``memory_budget`` shows
        the regime split: sizes whose working set exceeds it degrade to
        ``external`` rows (the planner's third regime)."""
        adapted = self.adapter is not None
        header = (
            f"{'keys':>10}  {'algorithm':<9} {'backend':<8} {'P':>2}  "
            f"{'fused':<5} {'grouped':<7}"
        )
        if adapted:
            header += f" {'static':>10} {'adapted':>10}"
        else:
            header += f" {'est':>10}"
        lines = [header]
        for N in sizes:
            d = self.plan(N, memory_budget=memory_budget)
            row = (
                f"{N:>10,}  {d.algorithm:<9} {d.backend:<8} {d.P:>2}  "
                f"{str(d.fused):<5} {str(d.grouped):<7}"
            )
            if adapted:
                chosen = (
                    ("" if d.algorithm == "smart" else f"{d.algorithm}:")
                    + f"{d.backend}x{d.P}"
                )
                static = d.static_candidates.get(chosen)
                static_txt = (
                    "-" if static is None else f"{static * 1e3:>8.3f}ms"
                )
                row += (
                    f" {static_txt:>10} {d.est_seconds * 1e3:>8.3f}ms"
                )
            else:
                row += f" {d.est_seconds * 1e3:>8.3f}ms"
            lines.append(row)
        return "\n".join(lines)
