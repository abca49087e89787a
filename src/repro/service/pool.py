"""The warm world pool.

Keeps spawned SPMD worlds alive between requests, keyed by
``(backend, P)``.  Acquire hands out a healthy idle world (spawning one
when none is idle), release returns it — or replaces it when a job
killed it (crash-replacement reuses the runtime's dead-rank detection:
a dead world simply reports unhealthy and is closed here).  Idle worlds
beyond ``idle_ttl_s`` are reaped on every acquire and release *and* from
the pool's background tick, so TTL binds even for a service that goes
fully idle.

With ``autoscale=True`` the pool also scales itself from queue
pressure: the service reports every planned arrival via
:meth:`note_arrival`, the tick thread compares per-key backlog (arrivals
not yet matched by an acquire) against the idle shelf, and — with
hysteresis, so one burst or one quiet tick never thrashes —
**pre-spawns** worlds ahead of demand (hiding world spawn latency from
the requests about to need them) or **shrinks** the shelf below
``max_idle_per_key`` when a shape has gone quiet.  Scaling decisions are
counted (``scaled_up`` / ``scaled_down`` in :meth:`stats`) and exported
as trace counters (``pool.scale_up`` / ``pool.scale_down``) when a
:class:`~repro.trace.recorder.Tracer` is attached.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.runtime.driver import spawn_world
from repro.runtime.world import World

__all__ = ["WorldPool"]


@dataclass
class _KeyDemand:
    """Per-``(backend, P)`` queue pressure the autoscaler acts on."""

    #: Arrivals noted but not yet matched by an acquire — the backlog.
    pending: int = 0
    #: EWMA of the arrival rate (requests/s), for observability.
    rate_hz: float = 0.0
    last_arrival_s: Optional[float] = None
    #: Hysteresis counters: consecutive ticks of backlog / of quiet.
    hot_ticks: int = 0
    quiet_ticks: int = 0


class WorldPool:
    """A keyed pool of warm SPMD worlds.

    Parameters
    ----------
    max_idle_per_key:
        How many idle worlds to retain per ``(backend, P)`` shape; a
        released world beyond this is closed instead of cached.
    idle_ttl_s:
        Idle worlds older than this are reaped on the next acquire,
        release, or background tick.
    autoscale:
        Enable queue-driven scaling from the background tick.  Off by
        default — a pool used directly (no service feeding
        :meth:`note_arrival`) has no queue signal to act on.
    tick_interval_s:
        Background tick period (TTL sweep always; scaling when enabled).
    scale_up_after / scale_down_after:
        Hysteresis: how many *consecutive* ticks a key must show backlog
        (resp. be quiet with idle worlds) before the pool spawns
        (resp. closes one idle world per further tick).
    max_worlds_per_key:
        Hard cap on live worlds per shape the autoscaler may reach.
    tracer:
        Optional :class:`~repro.trace.recorder.Tracer` receiving
        ``pool.scale_up`` / ``pool.scale_down`` counter increments.
    """

    def __init__(
        self,
        max_idle_per_key: int = 2,
        idle_ttl_s: float = 120.0,
        autoscale: bool = False,
        tick_interval_s: float = 1.0,
        scale_up_after: int = 2,
        scale_down_after: int = 5,
        max_worlds_per_key: int = 4,
        tracer: Optional[Any] = None,
    ):
        if max_idle_per_key < 1:
            raise ConfigurationError(
                f"max_idle_per_key must be >= 1, got {max_idle_per_key}"
            )
        if scale_up_after < 1 or scale_down_after < 1:
            raise ConfigurationError(
                "scale_up_after and scale_down_after must be >= 1"
            )
        if max_worlds_per_key < 1:
            raise ConfigurationError(
                f"max_worlds_per_key must be >= 1, got {max_worlds_per_key}"
            )
        self._max_idle = max_idle_per_key
        self._ttl = idle_ttl_s
        self._lock = threading.Lock()
        #: (backend, P) -> idle worlds with their release timestamps.
        self._idle: Dict[Tuple[str, int], Deque[Tuple[World, float]]] = {}
        #: (backend, P) -> live worlds of that shape (idle + borrowed).
        self._live: Dict[Tuple[str, int], int] = {}
        self._demand: Dict[Tuple[str, int], _KeyDemand] = {}
        self._closed = False
        self.autoscale = autoscale
        self._max_worlds = max_worlds_per_key
        self._up_after = scale_up_after
        self._down_after = scale_down_after
        self.tracer = tracer
        #: Lifetime counters, surfaced in ServiceReport.
        self.spawned = 0
        self.reused = 0
        self.restarts = 0  # dead worlds replaced
        self.reaped = 0  # idle worlds expired
        self.scaled_up = 0  # worlds pre-spawned by the autoscaler
        self.scaled_down = 0  # idle worlds shrunk by the autoscaler
        self._tick_interval = tick_interval_s
        self._stop = threading.Event()
        self._ticker: Optional[threading.Thread] = None
        if tick_interval_s > 0:
            self._ticker = threading.Thread(
                target=self._tick_loop, name="worldpool-tick", daemon=True
            )
            self._ticker.start()

    # -- acquire / release ---------------------------------------------

    def acquire(self, backend: str, P: int) -> World:
        """A healthy world of the requested shape: warm if one is idle,
        freshly spawned otherwise.  Unhealthy idle worlds found on the
        way are closed and counted as restarts."""
        self._reap()
        key = (backend, P)
        while True:
            with self._lock:
                if self._closed:
                    raise ConfigurationError("pool is closed")
                bucket = self._idle.get(key)
                entry = bucket.popleft() if bucket else None
            if entry is None:
                with self._lock:
                    self.spawned += 1
                    self._live[key] = self._live.get(key, 0) + 1
                try:
                    return spawn_world(P, backend=backend)
                except BaseException:
                    with self._lock:
                        self._live[key] = max(0, self._live.get(key, 0) - 1)
                    raise
            world, _ = entry
            if world.healthy():
                with self._lock:
                    self.reused += 1
                return world
            # Crash-replacement: the previous job killed it after release
            # (or a rank died while idle) — close and look again.
            with self._lock:
                self.restarts += 1
            self._close_world(world)

    def release(self, world: World) -> None:
        """Return a world after a job.  Dead worlds are closed (counted
        as restarts — their replacement is the next acquire's spawn);
        healthy ones go back on the shelf, then the shelf is reaped."""
        if not world.healthy():
            with self._lock:
                self.restarts += 1
            self._close_world(world)
        else:
            key = (world.backend, world.size)
            overflow = None
            with self._lock:
                if self._closed:
                    overflow = world
                else:
                    bucket = self._idle.setdefault(key, deque())
                    bucket.append((world, time.monotonic()))
                    if len(bucket) > self._max_idle:
                        overflow = bucket.popleft()[0]
            if overflow is not None:
                self._close_world(overflow)
        self._reap()

    def prewarm(self, backend: str, P: int, count: int = 1) -> None:
        """Spawn ``count`` idle worlds of a shape ahead of traffic."""
        for _ in range(count):
            world = spawn_world(P, backend=backend)
            with self._lock:
                self.spawned += 1
                key = (backend, P)
                self._live[key] = self._live.get(key, 0) + 1
                self._idle.setdefault(key, deque()).append(
                    (world, time.monotonic())
                )

    # -- the queue signal ----------------------------------------------

    def note_arrival(self, backend: str, P: int) -> None:
        """Record one planned request headed for ``(backend, P)`` — the
        queue-pressure signal the autoscaler prespawns from.  Called by
        the service at submit time, *before* the dispatcher acquires."""
        now = time.monotonic()
        with self._lock:
            demand = self._demand.setdefault((backend, P), _KeyDemand())
            demand.pending += 1
            if demand.last_arrival_s is not None:
                dt = max(1e-6, now - demand.last_arrival_s)
                # EWMA of the instantaneous rate; alpha 0.3 matches the
                # adapter's gain — a few arrivals set the level.
                demand.rate_hz += 0.3 * (1.0 / dt - demand.rate_hz)
            demand.last_arrival_s = now

    def note_done(self, backend: str, P: int, count: int = 1) -> None:
        """Drain ``count`` noted arrivals — the service calls this when a
        dispatch takes requests off its queue (served, expired, or
        failed alike: they no longer exert queue pressure)."""
        with self._lock:
            demand = self._demand.get((backend, P))
            if demand is not None:
                demand.pending = max(0, demand.pending - count)

    def _reap(self) -> None:
        """Close idle worlds past their TTL."""
        horizon = time.monotonic() - self._ttl
        doomed = []
        with self._lock:
            for key, bucket in self._idle.items():
                while bucket and bucket[0][1] < horizon:
                    doomed.append(bucket.popleft()[0])
            self.reaped += len(doomed)
        for world in doomed:
            self._close_world(world)

    # -- the background tick -------------------------------------------

    def _tick_loop(self) -> None:
        while not self._stop.wait(self._tick_interval):
            try:
                self._reap()
                if self.autoscale:
                    self._autoscale_tick()
            except Exception:  # pragma: no cover — a tick must never kill
                pass  # the thread; the next tick retries.

    def _autoscale_tick(self) -> None:
        """One scaling decision per key, from queue pressure vs the idle
        shelf.  Callable directly (tests; deterministic replays) — the
        background thread calls it every ``tick_interval_s``.

        Hysteresis: a key must show backlog for ``scale_up_after``
        consecutive ticks before worlds are pre-spawned (then the
        counter resets — a fresh burst must rebuild it), and must be
        quiet for ``scale_down_after`` consecutive ticks before the
        shelf shrinks by one world per further tick."""
        ups: Dict[Tuple[str, int], int] = {}
        downs = []
        with self._lock:
            if self._closed:
                return
            for key, demand in self._demand.items():
                idle = len(self._idle.get(key, ()))
                backlog = demand.pending - idle
                if backlog > 0:
                    demand.quiet_ticks = 0
                    demand.hot_ticks += 1
                    if demand.hot_ticks >= self._up_after:
                        live = self._live.get(key, 0)
                        count = min(backlog, self._max_worlds - live)
                        if count > 0:
                            ups[key] = count
                        demand.hot_ticks = 0
                elif demand.pending == 0 and idle > 0:
                    demand.hot_ticks = 0
                    demand.quiet_ticks += 1
                    if demand.quiet_ticks >= self._down_after:
                        downs.append(self._idle[key].popleft()[0])
                else:
                    demand.hot_ticks = 0
                    demand.quiet_ticks = 0
            self.scaled_down += len(downs)
        for world in downs:
            self._close_world(world)
        if downs and self.tracer is not None:
            self.tracer.add("pool.scale_down", len(downs))
        for (backend, P), count in ups.items():
            try:
                self.prewarm(backend, P, count)
            except Exception:  # pragma: no cover — spawn failure must not
                continue  # kill the tick; acquire will surface it.
            with self._lock:
                self.scaled_up += count
            if self.tracer is not None:
                self.tracer.add("pool.scale_up", count)

    # -- lifecycle ------------------------------------------------------

    def _close_world(self, world: World) -> None:
        key = (world.backend, world.size)
        with self._lock:
            self._live[key] = max(0, self._live.get(key, 0) - 1)
        world.close()

    def idle_count(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._idle.values())

    def live_count(self, backend: str, P: int) -> int:
        """Live worlds (idle + borrowed) of one shape."""
        with self._lock:
            return self._live.get((backend, P), 0)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "spawned": self.spawned,
                "reused": self.reused,
                "restarts": self.restarts,
                "reaped": self.reaped,
                "scaled_up": self.scaled_up,
                "scaled_down": self.scaled_down,
                "idle": sum(len(b) for b in self._idle.values()),
                "demand": {
                    f"{b}x{p}": {
                        "pending": d.pending,
                        "rate_hz": round(d.rate_hz, 3),
                    }
                    for (b, p), d in sorted(self._demand.items())
                },
            }

    def close(self) -> None:
        """Close every idle world and stop the background tick.  Worlds
        currently acquired are the borrowers' to close (release after
        close closes them here)."""
        self._stop.set()
        if self._ticker is not None and self._ticker is not threading.current_thread():
            self._ticker.join(timeout=5.0)
        with self._lock:
            self._closed = True
            doomed = [w for b in self._idle.values() for w, _ in b]
            self._idle.clear()
        for world in doomed:
            self._close_world(world)

    def __enter__(self) -> "WorldPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
