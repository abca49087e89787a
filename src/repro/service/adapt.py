"""Online adaptation: completed-request measurements folded back into the model.

The planner prices every request with LogGP closed forms calibrated once
by ``scripts/calibrate_loggp.py`` — but real hosts drift under load
(frequency scaling, noisy neighbours, allocator state), and the BSP
sorting studies show measured machine parameters diverging from one-shot
calibration.  :class:`RequestAdapter` closes the loop
(**monitor → model → adapt → replay**):

* after each served request the service calls :meth:`observe` with the
  measured run time;
* the adapter folds ``measured / statically-modeled`` into a
  per-``(backend, P, algorithm)`` **EWMA correction factor**, clamped to
  :data:`CLAMP` and **decaying toward 1.0** without traffic — a stale
  correction must never outlive the load pattern that produced it;
* :meth:`Planner.plan <repro.service.planner.Planner.plan>` then
  multiplies every observed candidate's static price by its factor —
  the static profile object is never mutated, and an armed fault plan
  yields decisions byte-identical to the static planner's.

State persists through the profile schema
(:meth:`~repro.service.profile.HostProfile.save` with
``adapt=adapter.state_blob()``, schema ``repro-bitonic-profile/3``), so a
restarted service resumes warm via :meth:`RequestAdapter.restore`.

``repro-bitonic adapt-replay`` is the proof harness: record a mixed-shape
load trace, replay it against a frozen-profile service and an adapting
one, and emit the ``adapted_over_static`` table CI gates at >= 1.0.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.service.profile import HostProfile

__all__ = ["AdaptKey", "CorrectionState", "RequestAdapter"]

#: One correction key: the planner candidate the factor corrects.
AdaptKey = Tuple[str, int, str]  # (backend, P, algorithm)

#: Correction clamp.  Wide enough to hold the error of a drifted model:
#: under ``repro-bitonic adapt-replay``'s drift an 8-rank world measures
#: 20x and more its price while the one-rank plan measures about 3.4x,
#: and a ceiling of 4 left the wide world priced below the one-rank plan
#: it loses to.  Narrow enough that no stream of outlier samples moves a
#: price by more than 16x either way.
CLAMP = (1.0 / 16.0, 16.0)


def _clamped(value: float, lo: float = CLAMP[0], hi: float = CLAMP[1]) -> float:
    return min(max(value, lo), hi)


@dataclass
class CorrectionState:
    """One EWMA correction around 1.0 with time-decay toward 1.0.

    ``value`` is the stored EWMA at ``stamp_s`` (the adapter clock).  The
    *effective* value at a later time has decayed exponentially toward
    1.0 with time constant ``decay_s`` — the neutral factor — so a key
    that stops seeing traffic relaxes back to the static model instead of
    pinning a stale correction forever.
    """

    value: float = 1.0
    stamp_s: float = 0.0
    updates: int = 0

    def effective(self, now_s: float, decay_s: float) -> float:
        if self.updates == 0:
            return 1.0
        age = max(0.0, now_s - self.stamp_s)
        if decay_s <= 0:
            return 1.0 if age > 0 else self.value
        return 1.0 + (self.value - 1.0) * math.exp(-age / decay_s)

    def update(self, sample: float, now_s: float, alpha: float,
               decay_s: float) -> float:
        base = self.effective(now_s, decay_s)
        self.value = _clamped(base + alpha * (sample - base))
        self.stamp_s = now_s
        self.updates += 1
        return self.value


class RequestAdapter:
    """Fold completed-request measurements into live planner corrections.

    Parameters
    ----------
    profile:
        The *static* host profile corrections are measured against (the
        same one the owning planner prices with).  Never mutated.
    alpha:
        EWMA gain per observation, in (0, 1].
    decay_s:
        Time constant of the relaxation toward the neutral factor 1.0
        when a key sees no traffic.
    clock:
        Monotonic seconds source (injectable for deterministic tests).

    Thread safety: the service's dispatcher calls :meth:`observe` while
    the submit path calls :meth:`factor`; one lock covers both.
    """

    def __init__(
        self,
        profile: Optional[HostProfile] = None,
        alpha: float = 0.3,
        decay_s: float = 600.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.profile = profile or HostProfile.default()
        self.alpha = alpha
        self.decay_s = decay_s
        self._clock = clock
        self._lock = threading.Lock()
        self._corr: Dict[AdaptKey, CorrectionState] = {}
        self.updates = 0

    # -- monitor: fold one completed request ---------------------------

    def observe(
        self,
        *,
        N: int,
        backend: str,
        P: int,
        algorithm: str,
        measured_s: float,
        dtype_size: int = 4,
        fused: bool = True,
        grouped: bool = True,
    ) -> float:
        """Fold one completed request; returns the key's updated factor.

        ``measured_s`` is the request's measured run time (queue wait
        excluded; for a batch, the per-request share of the dispatch).
        The sample is ``measured / static-model`` — always against the
        *static* profile estimate, never the adapted one, so corrections
        converge to the model's true error instead of compounding
        through their own feedback.  The static estimate comes from the
        profile's price memo, the table the planner priced the request
        from, so folding a served request costs a lookup, not a closed
        form.
        """
        try:
            static = self.profile.estimate(
                N, P, backend, algorithm=algorithm, fused=fused,
                grouped=grouped, dtype_size=dtype_size,
            )
        except ConfigurationError:
            return 1.0
        if static <= 0.0 or measured_s <= 0.0:
            return 1.0
        sample = _clamped(measured_s / static)
        key = (backend, P, algorithm)
        now = self._clock()
        with self._lock:
            state = self._corr.setdefault(key, CorrectionState())
            factor = state.update(sample, now, self.alpha, self.decay_s)
            self.updates += 1
        return factor

    # -- model: the adapted corrections the planner prices with --------

    def factor(self, backend: str, P: int, algorithm: str) -> float:
        """The key's effective correction factor (1.0 when unobserved)."""
        corr = self.correction(backend, P, algorithm)
        return 1.0 if corr is None else corr

    def correction(self, backend: str, P: int, algorithm: str) -> Optional[float]:
        """The key's effective correction factor, or ``None`` when the
        key has never been observed — the planner then keeps pricing that
        candidate exactly as the static path would (adaptation is a delta
        on evidence, never gratuitous divergence)."""
        with self._lock:
            state = self._corr.get((backend, P, algorithm))
            if state is None or not state.updates:
                return None
            return _clamped(state.effective(self._clock(), self.decay_s))

    def stats(self) -> Dict[str, Any]:
        """JSON-ready snapshot for reports and observability."""
        with self._lock:
            now = self._clock()
            return {
                "updates": self.updates,
                "factors": {
                    f"{b}:{p}:{a}": round(
                        state.effective(now, self.decay_s), 4
                    )
                    for (b, p, a), state in sorted(self._corr.items())
                },
            }

    # -- persistence: the profile-schema /2 adapted-state blob ----------

    def state_blob(self) -> Dict[str, Any]:
        """JSON-ready adapted state for ``HostProfile.save(adapt=...)``.

        Timestamps are stored as *ages* (seconds before the snapshot), so
        a restore on a fresh monotonic clock resumes the decay exactly
        where the snapshot left it.
        """
        def dump(state: CorrectionState) -> Dict[str, Any]:
            return {
                "value": state.value,
                "age_s": max(0.0, now - state.stamp_s),
                "updates": state.updates,
            }

        with self._lock:
            now = self._clock()
            return {
                "alpha": self.alpha,
                "decay_s": self.decay_s,
                "updates": self.updates,
                "corrections": [
                    {"backend": b, "P": p, "algorithm": a, **dump(s)}
                    for (b, p, a), s in sorted(self._corr.items())
                ],
            }

    @classmethod
    def restore(
        cls,
        blob: Optional[Dict[str, Any]],
        profile: Optional[HostProfile] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "RequestAdapter":
        """Rebuild an adapter from a ``state_blob`` (a fresh adapter when
        the blob is ``None`` or unreadable — adapted state is a bias,
        never a requirement).  Entries an older blob carries beyond the
        corrections, such as ``deviations`` or ``waits``, are ignored."""
        blob = blob or {}
        adapter = cls(
            profile=profile,
            alpha=float(blob.get("alpha", 0.3)),
            decay_s=float(blob.get("decay_s", 600.0)),
            clock=clock,
        )
        now = clock()

        def load(entry: Dict[str, Any]) -> CorrectionState:
            return CorrectionState(
                value=_clamped(float(entry.get("value", 1.0)), 0.0, CLAMP[1]),
                stamp_s=now - max(0.0, float(entry.get("age_s", 0.0))),
                updates=max(0, int(entry.get("updates", 0))),
            )

        try:
            for entry in blob.get("corrections", []):
                key = (str(entry["backend"]), int(entry["P"]),
                       str(entry["algorithm"]))
                adapter._corr[key] = load(entry)
            adapter.updates = max(0, int(blob.get("updates", 0)))
        except (KeyError, TypeError, ValueError):
            return cls(profile=profile, clock=clock)
        return adapter

