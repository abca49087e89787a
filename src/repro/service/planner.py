"""The LogGP-driven request planner.

Given a request's ``(N, dtype, faults)`` the planner chooses the cheapest
execution: **algorithm** (smart bitonic vs sample sort — the Figure
5.7/5.8 crossover, priced live; the out-of-core external sort only when
forced or when the memory budget degrades the request) and world size
``P`` — using the paper's closed forms priced with the host's calibrated
:class:`~repro.service.profile.HostProfile`.  This mirrors how
engineered distributed sorters pick algorithms from machine parameters
instead of hardcoding one.

:meth:`Planner.plan` runs in passes: **admit** (the admission contract
:func:`repro.admit.admit`, memory-budget clamp included) →
**candidates** (every ``(algorithm, backend, P)`` the contract admits)
→ **price** (each candidate's price from the profile's memo; a
one-rank plan is priced without world dispatch, since the service runs
it with no world) → **pick** (the first minimum).  The planner memoizes
each admitted request's decision, so planning a request seen before is
one lookup; assigning :attr:`Planner.profile` plans afresh.

Every choice has a **forced-override escape hatch**: pass
``algorithm=``, ``backend=`` or ``P=`` to :meth:`Planner.plan` and the
planner optimizes only the remaining free dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.admit import (
    EXTERNAL_BACKEND,
    SPMD_ALGORITHMS,
    Request,
    admit,
    spmd_refusal,
)
from repro.errors import ConfigurationError
from repro.runtime.driver import BACKENDS
from repro.service.profile import PRICE_MEMO_LIMIT, HostProfile

__all__ = ["PlanDecision", "Planner", "EXTERNAL_BACKEND"]

#: Candidate world sizes considered when ``P`` is not forced.
_DEFAULT_CANDIDATE_P = (1, 2, 4, 8)


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
    est_seconds: float
    clamped: bool = False
    source: str = "model"
    candidates: Dict[str, float] = field(default_factory=dict)
    # Constants, not fields: perfbench/ladder.py still reads these names.
    fused = True
    grouped = False
    overlap = False
    chunks = 1

    def explain(self) -> str:
        ranked = sorted(self.candidates.items(), key=lambda kv: kv[1])
        chosen = (
            ("" if self.algorithm == "smart" else f"{self.algorithm}:")
            + f"{self.backend}x{self.P}"
        )
        lines = [
            f"plan: {self.algorithm} on {self.backend} x {self.P}"
            + f" (~{self.est_seconds * 1e3:.3f} ms, source={self.source}"
            + (", budget-clamped" if self.clamped else "")
            + ")"
        ]
        for name, est in ranked:
            marker = "*" if name == chosen else " "
            lines.append(f"  {marker} {name:<18} ~{est * 1e3:8.3f} ms")
        return "\n".join(lines)


class Planner:
    """Choose (algorithm, backend, P) per request from the host profile
    (the built-in one when none is given)."""

    def __init__(self, profile: Optional[HostProfile] = None):
        self.profile = profile or HostProfile.default()
        missing = [b for b in BACKENDS if b not in self.profile.backends]
        if missing:
            raise ConfigurationError(
                f"the host profile has no costs for backend(s) {missing} "
                f"(knows {sorted(self.profile.backends)})"
            )

    @property
    def profile(self) -> HostProfile:
        return self._plans[0]

    @profile.setter
    def profile(self, profile: HostProfile) -> None:
        # The profile and the decisions planned on it, swapped as one:
        # a new profile prices afresh, so it plans afresh.
        self._plans: Tuple[HostProfile, Dict[Request, PlanDecision]] = (
            profile, {}
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
        budget, external never joins the auto-priced table: it pays the
        same ``np.sort`` for run formation as an in-memory plan, plus a
        merge sweep and the disk I/O, so it cannot win.
        """
        return self.decide(admit(
            N, dtype_size, faults=faults, algorithm=algorithm,
            backend=backend, P=P, memory_budget=memory_budget,
        ))

    def decide(self, req: Request) -> PlanDecision:
        """Plan a request the admission contract
        (:func:`repro.admit.admit`) already admitted: the candidate,
        price and pick passes, or the decision memoized for an equal
        request (at most :data:`~repro.service.profile.PRICE_MEMO_LIMIT`
        of them, cleared when full, as the price memo is).  The hit path
        takes no lock, and a racing miss plans the same decision."""
        profile, decisions = self._plans
        decision = decisions.get(req)
        if decision is None:
            decision = self._decide(profile, req)
            if len(decisions) >= PRICE_MEMO_LIMIT:
                decisions.clear()
            decisions[req] = decision
        return decision

    def _decide(self, profile: HostProfile, req: Request) -> PlanDecision:
        candidates: Dict[str, float] = {}
        best: Optional[Tuple[float, str, str, int]] = None
        for algo, b, p in self._candidates(req):
            name = ("" if algo == "smart" else f"{algo}:") + f"{b}x{p}"
            est = profile.estimate(
                req.N, p, b, algorithm=algo, dtype_size=req.dtype_size,
                memory_budget=req.memory_budget,
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
            est_seconds=est,
            clamped=req.clamped,
            source=source,
            candidates=candidates,
        )

    def _candidates(self, req: Request) -> List[Tuple[str, str, int]]:
        """The candidate pass: every ``(algorithm, backend, P)`` the
        request may run, in pricing order — smart, then sample — each
        pair one the contract's rows admit
        (:func:`repro.admit.spmd_refusal`).  A forced or budget-degraded
        external request has the single candidate
        ``("external", "local", 1)``: it runs in-process on the serving
        host."""
        algos = SPMD_ALGORITHMS if req.algorithm is None else (
            req.algorithm,
        )
        # An equal request may spell P as a NumPy integer: every memoized
        # decision carries a plain int.
        ps = _DEFAULT_CANDIDATE_P if req.P is None else (int(req.P),)
        backends = BACKENDS if req.backend is None else (req.backend,)
        out: List[Tuple[str, str, int]] = []
        for algo in algos:
            if algo == "external":
                out.append((algo, EXTERNAL_BACKEND, 1))
            else:
                out.extend(
                    (algo, b, p) for b in backends for p in ps
                    if spmd_refusal(algo, req.N, p) is None
                )
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
            f"{'est':>10}"
        ]
        for N in sizes:
            d = self.plan(N, memory_budget=memory_budget)
            lines.append(
                f"{N:>10,}  {d.algorithm:<9} {d.backend:<8} {d.P:>2}  "
                f"{d.est_seconds * 1e3:>8.3f}ms"
            )
        return "\n".join(lines)
