"""Shard routing: spread requests across sort shards, survive dead ones.

A *shard* is anything with the two-call surface ``sort(keys, **opts) ->
ClientOutcome`` and ``health() -> dict`` — in practice a
:class:`~repro.service.net.SortClient` pointed at a remote
:class:`~repro.service.net.SortServer`, or a :class:`LocalShard` wrapping
an in-process :class:`~repro.service.SortService` (useful in tests and
mixed deployments).

:class:`ShardRouter` layers three behaviors on a pool of shards:

* **spreading** — each request goes to the healthy shard with the fewest
  requests in flight (ties broken round-robin), so one slow shard does
  not back up the fleet;
* **health checking + circuit breaking** — a background thread probes
  every shard's ``HEALTH`` RPC; ``eject_after`` consecutive failures
  (probe or request) trip the breaker and the shard sits out
  ``cooldown_s``, after which it is *half-open*: it may take one request,
  and a single further failure re-trips the breaker while a success
  closes it;
* **failover** — a request that dies on the wire (shard unreachable,
  connection reset, frames corrupted beyond the client's own retries) is
  re-sent to another shard, inside the caller's deadline.  Admission
  rejections also fail over (another shard may have queue room) but do
  **not** count against the shard's health — a full queue is load, not
  sickness.

Typed-outcome guarantee, same as everywhere in this package: a routed
request either returns a :class:`~repro.service.net.ClientOutcome` or
raises one of :class:`~repro.errors.RequestTimeoutError` (the caller's
budget died, ``stage="router"``), :class:`~repro.errors.AdmissionError`
(every live shard turned it away),
:class:`~repro.errors.ConfigurationError` (the admission contract,
:mod:`repro.admit`, refused the request itself; it is raised at once and
counts against no shard), or :class:`~repro.errors.ShardUnavailableError`
(no live shard, with a per-shard status snapshot attached).  Nothing is
lost silently.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    FrameCorruptError,
    RequestTimeoutError,
    ServiceClosedError,
    ShardUnavailableError,
)
from repro.service.net import ClientOutcome
from repro.trace.recorder import Tracer, trace_span

__all__ = ["LocalShard", "ShardRouter", "HEALTH_TIMEOUT_S"]

#: How long one health probe of a shard may take, in seconds.
HEALTH_TIMEOUT_S = 2.0

#: Failures that mean "this shard, right now" rather than "this request":
#: they trigger failover to another shard and count against health.
_HARD_FAILURES = (
    ShardUnavailableError,
    FrameCorruptError,
    ConnectionError,
    OSError,
)


class LocalShard:
    """An in-process :class:`~repro.service.SortService` wearing the
    shard interface, so routers can mix local and remote capacity."""

    def __init__(self, service, name: str = "local0"):
        self.service = service
        self.name = name

    def sort(
        self,
        keys: np.ndarray,
        *,
        deadline_s: Optional[float] = None,
        algorithm: Optional[str] = None,
        backend: Optional[str] = None,
        P: Optional[int] = None,
        trace: bool = False,
    ) -> ClientOutcome:
        started = time.monotonic()
        # The synchronous door, as a SortServer's connection thread uses.
        outcome = self.service.sort(
            np.asarray(keys),
            # The wire defaults an absent algorithm to "smart"; the local
            # shard mirrors that so mixed deployments behave alike.
            algorithm=algorithm or "smart",
            backend=backend,
            P=P,
            deadline_s=deadline_s,
            trace=trace,
        )
        tracer = None
        if trace:
            # One tracer per request, as a SortClient returns: the rank
            # spans and the service's queue lane.
            tracer = Tracer(0)
            for part in outcome.tracers or ():
                tracer.absorb(part)
        return ClientOutcome(
            sorted_keys=outcome.sorted_keys,
            request_id=f"local-{outcome.request_id}",
            shard=self.name,
            wall_s=time.monotonic() - started,
            server={
                "shard": self.name,
                "algorithm": outcome.decision.algorithm,
                "backend": outcome.decision.backend,
                "P": outcome.decision.P,
                "queue_wait_s": outcome.queue_wait_s,
                "run_s": outcome.run_s,
                "batch_size": 1,  # as a SortServer's RESULT frame
                "retries": outcome.retries,
            },
            tracer=tracer,
        )

    def health(self, timeout_s: float = 5.0) -> Dict[str, Any]:
        try:
            counters = self.service.counters()
        except Exception as exc:  # noqa: BLE001 — typed for the router
            raise ShardUnavailableError(
                f"local shard {self.name} cannot report: {exc}",
                shards={self.name: "unreachable"}, attempts=1,
            ) from exc
        return {"server": self.name, "healthy": True, **counters}


@dataclass
class _ShardState:
    shard: Any
    inflight: int = 0
    served: int = 0
    failed: int = 0
    consecutive_failures: int = 0
    #: Breaker: monotonic instant the shard may take a half-open probe.
    ejected_until: Optional[float] = None
    last_health: Optional[Dict[str, Any]] = None

    def available(self, now: float) -> bool:
        return self.ejected_until is None or now >= self.ejected_until

    def status(self, now: float) -> str:
        if self.ejected_until is None:
            return "healthy" if self.consecutive_failures == 0 else "shaky"
        return "half-open" if now >= self.ejected_until else "ejected"


class ShardRouter:
    """Health-checked, failover-capable routing over a shard pool.

    Parameters
    ----------
    shards:
        ``{name: shard}``; names label statuses and error snapshots.
    eject_after:
        Consecutive hard failures (requests or probes) that trip a
        shard's breaker.
    cooldown_s:
        How long a tripped shard sits out before its half-open probe.
    health_interval_s:
        Probe period for the background health thread (started by
        :meth:`start_health_checks`; routing works without it, learning
        about dead shards from request failures only).

    A probe waits at most :data:`HEALTH_TIMEOUT_S`, and a request fails
    over to every other shard once.
    """

    def __init__(
        self,
        shards: Mapping[str, Any],
        *,
        eject_after: int = 3,
        cooldown_s: float = 2.0,
        health_interval_s: float = 0.5,
    ):
        if not shards:
            raise ShardUnavailableError(
                "a router needs at least one shard", shards={}, attempts=0
            )
        self._states: Dict[str, _ShardState] = {
            name: _ShardState(shard=shard)
            for name, shard in shards.items()
        }
        self.eject_after = eject_after
        self.cooldown_s = cooldown_s
        self.health_interval_s = health_interval_s
        self._lock = threading.Lock()
        self._rr = 0
        self._closed = False
        self._health_thread: Optional[threading.Thread] = None
        self._health_stop = threading.Event()
        #: Totals across the router's lifetime.
        self.routed = 0
        self.failovers = 0

    # -- lifecycle -------------------------------------------------------

    def start_health_checks(self) -> None:
        """Start the background prober (idempotent)."""
        if self._health_thread is not None:
            return
        self._health_stop.clear()
        self._health_thread = threading.Thread(
            target=self._health_loop, name="shard-router-health",
            daemon=True,
        )
        self._health_thread.start()

    def close(self) -> None:
        """Stop probing.  Shards are not owned and stay open."""
        self._closed = True
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=10.0)
            self._health_thread = None

    def __enter__(self) -> "ShardRouter":
        self.start_health_checks()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- health ----------------------------------------------------------

    def _health_loop(self) -> None:
        while not self._health_stop.wait(self.health_interval_s):
            self.check_health()

    def check_health(self) -> Dict[str, bool]:
        """Probe every shard once; returns ``{name: probe_ok}``."""
        results: Dict[str, bool] = {}
        for name, st in list(self._states.items()):
            try:
                answer = st.shard.health(timeout_s=HEALTH_TIMEOUT_S)
            except Exception:  # noqa: BLE001 — any probe failure counts
                self._record_failure(name)
                results[name] = False
            else:
                with self._lock:
                    st.last_health = answer
                self._record_success(name)
                results[name] = True
        return results

    def status(self) -> Dict[str, Dict[str, Any]]:
        """Per-shard routing view: breaker state, load, counters."""
        now = time.monotonic()
        with self._lock:
            return {
                name: {
                    "state": st.status(now),
                    "inflight": st.inflight,
                    "served": st.served,
                    "failed": st.failed,
                    "consecutive_failures": st.consecutive_failures,
                    "last_health": st.last_health,
                }
                for name, st in self._states.items()
            }

    def _status_summary(self) -> Dict[str, str]:
        now = time.monotonic()
        with self._lock:
            return {
                name: st.status(now) for name, st in self._states.items()
            }

    # -- breaker bookkeeping ---------------------------------------------

    def _record_success(self, name: str) -> None:
        with self._lock:
            st = self._states[name]
            st.consecutive_failures = 0
            st.ejected_until = None

    def _record_failure(self, name: str) -> None:
        with self._lock:
            st = self._states[name]
            st.consecutive_failures += 1
            if st.consecutive_failures >= self.eject_after:
                st.ejected_until = time.monotonic() + self.cooldown_s

    # -- routing ---------------------------------------------------------

    def _pick(self, exclude: set) -> Optional[str]:
        """Least-loaded available shard, round-robin among ties."""
        now = time.monotonic()
        with self._lock:
            names = [
                name for name, st in self._states.items()
                if name not in exclude and st.available(now)
            ]
            if not names:
                return None
            lightest = min(self._states[n].inflight for n in names)
            ties = [
                n for n in names if self._states[n].inflight == lightest
            ]
            self._rr += 1
            choice = ties[self._rr % len(ties)]
            self._states[choice].inflight += 1
            return choice

    def sort(
        self,
        keys: np.ndarray,
        *,
        deadline_s: Optional[float] = None,
        algorithm: Optional[str] = None,
        backend: Optional[str] = None,
        P: Optional[int] = None,
        trace: bool = False,
    ) -> ClientOutcome:
        """Sort via the pool, failing over across shards inside the
        caller's deadline.  See the module docstring for the typed-outcome
        guarantee."""
        if self._closed:
            raise ServiceClosedError("router is closed")
        started = time.monotonic()
        deadline_at = None if deadline_s is None else started + deadline_s
        tracer = Tracer(0) if trace else None
        budget = len(self._states) - 1  # every other shard once
        tried: set = set()
        failovers = 0
        hard_failures = 0
        last_exc: Optional[BaseException] = None
        while True:
            if deadline_at is not None and time.monotonic() >= deadline_at:
                raise RequestTimeoutError(
                    f"request budget ({deadline_s}s) spent after "
                    f"{failovers} failover(s)",
                    deadline_s=deadline_s or 0.0,
                    elapsed_s=time.monotonic() - started,
                    stage="router",
                )
            name = self._pick(tried)
            if name is None:
                break
            st = self._states[name]
            remaining = (
                None if deadline_at is None
                else max(1e-3, deadline_at - time.monotonic())
            )
            try:
                out = st.shard.sort(
                    keys,
                    deadline_s=remaining,
                    algorithm=algorithm,
                    backend=backend,
                    P=P,
                    trace=trace,
                )
            except (RequestTimeoutError, ConfigurationError):
                # Neither is the shard's failure, and no other shard would
                # do better: the budget is the caller's (re-sending
                # elsewhere cannot conjure time back), and the admission
                # contract refuses the same request at every shard.
                with self._lock:
                    st.inflight -= 1
                raise
            except _HARD_FAILURES as exc:
                with self._lock:
                    st.inflight -= 1
                    st.failed += 1
                self._record_failure(name)
                hard_failures += 1
                last_exc = exc
            except AdmissionError as exc:
                # Load, not sickness: no health penalty, but do try a
                # different shard — its queue may have room.
                with self._lock:
                    st.inflight -= 1
                last_exc = exc
            except BaseException:
                with self._lock:
                    st.inflight -= 1
                    st.failed += 1
                raise
            else:
                with self._lock:
                    st.inflight -= 1
                    st.served += 1
                    self.routed += 1
                self._record_success(name)
                out.failovers = failovers
                if tracer is not None and out.tracer is not None:
                    # Fold the shard-level spans under the router tracer
                    # so one request reads as one timeline.
                    tracer.absorb(out.tracer)
                out.tracer = tracer if tracer is not None else out.tracer
                return out
            tried.add(name)
            if failovers >= budget:
                break
            failovers += 1
            with self._lock:
                self.failovers += 1
            with trace_span(tracer, "retransmit", "failover"):
                pass  # the next loop iteration is the failover itself
        if isinstance(last_exc, AdmissionError) and hard_failures == 0:
            raise last_exc
        raise ShardUnavailableError(
            f"no shard could serve the request ({failovers} failover(s), "
            f"{hard_failures} hard failure(s))",
            shards=self._status_summary(),
            attempts=failovers + 1,
        ) from last_exc
