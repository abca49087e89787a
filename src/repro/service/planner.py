"""The LogGP-driven request planner.

Given a request's ``(N, dtype, faults)`` the planner chooses the cheapest
execution: **algorithm** (smart bitonic vs sample sort — the Figure
5.7/5.8 crossover, priced live — or the out-of-core external sort),
world size ``P``, and the fused/grouped communication flags — using the
paper's closed forms priced with the host's calibrated
:class:`~repro.service.profile.HostProfile`.  This mirrors how
engineered distributed sorters pick algorithms from machine parameters
instead of hardcoding one.

:meth:`Planner.plan` runs in passes: **clamp** (validate the request,
apply the memory-budget clamp) → **candidates** (every
``(algorithm, backend, P)`` the request may run) → **price** (each
candidate's price from the profile's memo, so planning a shape
seen before costs a few table lookups; a one-rank plan is priced without
world dispatch, since the service runs it in its dispatcher thread) →
**pick** (the first minimum).

Every choice has a **forced-override escape hatch**: pass
``algorithm=``, ``backend=``, ``P=``, ``fused=`` or ``grouped=`` to
:meth:`Planner.plan` and the planner optimizes only the remaining free
dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.runtime.driver import BACKENDS
from repro.service.profile import HostProfile

__all__ = ["PlanDecision", "Planner", "EXTERNAL_BACKEND"]

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
    the margins.  ``clamped`` is True when the memory budget overrode a
    request's forced algorithm, backend or ``P``; ``source`` records what
    the choice rode on (``"model"``, ``"forced"`` or ``"budget"`` — the
    last meaning the memory budget degraded the request to the
    out-of-core external sort).
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
            + (", budget-clamped" if self.clamped else "")
            + ")"
        ]
        for name, est in ranked:
            marker = "*" if name == chosen else " "
            lines.append(f"  {marker} {name:<18} ~{est * 1e3:8.3f} ms")
        return "\n".join(lines)


class _Request(NamedTuple):
    """What the clamp pass lets take effect; ``None`` leaves the choice
    to the planner."""

    algorithm: Optional[str]
    backend: Optional[str]
    P: Optional[int]
    fused: bool
    grouped: bool
    #: The memory budget overrode the request's forced choices.
    clamped: bool
    #: The memory budget degraded the request to the external sort.
    budget: bool


class Planner:
    """Choose (algorithm, P, flags) per request from the host profile
    (the built-in one when none is given)."""

    def __init__(self, profile: Optional[HostProfile] = None):
        self.profile = profile or HostProfile.default()
        missing = [b for b in BACKENDS if b not in self.profile.backends]
        if missing:
            raise ConfigurationError(
                f"the host profile has no costs for backend(s) {missing} "
                f"(knows {sorted(self.profile.backends)})"
            )

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
        memory_budget: Optional[int] = None,
    ) -> PlanDecision:
        """Plan one sort request of ``N`` keys.

        Keyword arguments other than ``faults`` are forced overrides:
        ``None`` means "planner chooses".  ``faults=True`` marks a request
        with an armed fault plan: the plan is the same as without one,
        but the out-of-core path, which has no fault transport, is
        refused.

        With ``algorithm=None`` (or ``"auto"``) the planner prices both
        in-memory algorithms — smart bitonic and sample sort — against
        each other, and the winner's name lands on
        :attr:`PlanDecision.algorithm` (the ``sample:``-prefixed rows of
        :meth:`PlanDecision.explain`'s candidate table).

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
        req = self._clamp(N, dtype_size, faults, algorithm, backend, P,
                          fused, grouped, memory_budget)
        candidates: Dict[str, float] = {}
        best: Optional[Tuple[float, str, str, int]] = None
        for algo, b, p in self._candidates(N, req):
            name = ("" if algo == "smart" else f"{algo}:") + f"{b}x{p}"
            est = self.profile.estimate(
                N, p, b, algorithm=algo, fused=req.fused,
                grouped=req.grouped, dtype_size=dtype_size,
                memory_budget=memory_budget,
            )
            candidates[name] = est
            if best is None or est < best[0]:
                best = (est, algo, b, p)
        assert best is not None
        est, algo, b, p = best
        source = (
            "budget" if req.budget
            else "forced" if req.backend is not None and req.P is not None
            else "model"
        )
        return PlanDecision(
            backend=b,
            P=p,
            algorithm=algo,
            fused=req.fused,
            grouped=req.grouped,
            est_seconds=est,
            clamped=req.clamped,
            source=source,
            candidates=candidates,
        )

    def _clamp(
        self,
        N: int,
        dtype_size: int,
        faults: bool,
        algorithm: Optional[str],
        backend: Optional[str],
        P: Optional[int],
        fused: Optional[bool],
        grouped: Optional[bool],
        memory_budget: Optional[int],
    ) -> _Request:
        """The clamp pass: validate the request, then apply the memory
        budget.  Raises
        :class:`~repro.errors.ConfigurationError` for a request no
        candidate can run."""
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
        if memory_budget is not None and memory_budget < 1:
            raise ConfigurationError(
                f"memory_budget must be >= 1 byte, got {memory_budget}"
            )
        clamped = budget = False
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
                # forced — the planner must never select a configuration
                # it knows will OOM.
                budget = True
                clamped = (
                    algorithm not in (None, "external")
                    or backend not in (None, EXTERNAL_BACKEND)
                    or (P is not None and P != 1)
                )
                algorithm, backend, P = "external", None, None
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
            backend, P = None, None
        if backend == EXTERNAL_BACKEND:
            raise ConfigurationError(
                f"the {EXTERNAL_BACKEND!r} pseudo-backend runs only "
                f"algorithm='external'"
            )
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
        return _Request(
            algorithm=algorithm,
            backend=backend,
            P=P,
            fused=True if fused is None else fused,
            grouped=True if grouped is None else grouped,
            clamped=clamped,
            budget=budget,
        )

    def _candidates(
        self, N: int, req: _Request
    ) -> List[Tuple[str, str, int]]:
        """The candidate pass: every ``(algorithm, backend, P)`` the
        request may run, in pricing order — smart, then sample, then
        external.  The external sort is the single candidate
        ``("external", "local", 1)``: it runs in-process on the serving
        host, and it joins only when forced (or budget-degraded) or when
        the profile carries measured disk evidence — conservative
        defaults must never win an auto race."""
        if req.algorithm is not None:
            algos: Tuple[str, ...] = (req.algorithm,)
        elif self.profile.has_disk_evidence:
            algos = PLANNABLE_ALGORITHMS
        else:
            algos = _INMEM_ALGORITHMS
        if req.P is not None:
            ps: Tuple[int, ...] = (req.P,)
        else:
            # Smart schedules need >= 2 keys per rank (P=1 is the
            # degenerate local sort and always valid).
            ps = tuple(
                p for p in _DEFAULT_CANDIDATE_P
                if p == 1 or (N % p == 0 and N // p >= 2)
            ) or (1,)
        backends = BACKENDS if req.backend is None else (req.backend,)
        out: List[Tuple[str, str, int]] = []
        for algo in algos:
            if algo == "external":
                out.append((algo, EXTERNAL_BACKEND, 1))
            else:
                out.extend((algo, b, p) for b in backends for p in ps)
        return out

    # -- reporting ------------------------------------------------------

    def decision_table(
        self,
        sizes: Sequence[int] = (1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20),
        memory_budget: Optional[int] = None,
    ) -> str:
        """Human-readable table of what the planner would pick per size
        (the "planner decision table" of docs/SERVING.md).
        ``memory_budget`` shows the regime split: sizes whose working set
        exceeds it degrade to ``external`` rows (the planner's third
        regime)."""
        lines = [
            f"{'keys':>10}  {'algorithm':<9} {'backend':<8} {'P':>2}  "
            f"{'fused':<5} {'grouped':<7} {'est':>10}"
        ]
        for N in sizes:
            d = self.plan(N, memory_budget=memory_budget)
            lines.append(
                f"{N:>10,}  {d.algorithm:<9} {d.backend:<8} {d.P:>2}  "
                f"{str(d.fused):<5} {str(d.grouped):<7} "
                f"{d.est_seconds * 1e3:>8.3f}ms"
            )
        return "\n".join(lines)
