"""The warm world pool.

Keeps spawned SPMD worlds alive between requests, keyed by
``(backend, P)``.  Acquire hands out a healthy idle world (spawning one
when none is idle), release returns it — or replaces it when a job
killed it (crash-replacement reuses the runtime's dead-rank detection:
a dead world simply reports unhealthy and is closed here).  Idle worlds
beyond ``idle_ttl_s`` are reaped on every acquire and release *and* from
the pool's background tick, so TTL binds even for a service that goes
fully idle.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.runtime.driver import spawn_world
from repro.runtime.world import World

__all__ = ["WorldPool"]


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
    tick_interval_s:
        Background TTL sweep period; ``0`` runs no background thread.
    """

    def __init__(
        self,
        max_idle_per_key: int = 2,
        idle_ttl_s: float = 120.0,
        tick_interval_s: float = 1.0,
    ):
        if max_idle_per_key < 1:
            raise ConfigurationError(
                f"max_idle_per_key must be >= 1, got {max_idle_per_key}"
            )
        self._max_idle = max_idle_per_key
        self._ttl = idle_ttl_s
        self._lock = threading.Lock()
        #: (backend, P) -> idle worlds with their release timestamps.
        self._idle: Dict[Tuple[str, int], Deque[Tuple[World, float]]] = {}
        self._closed = False
        #: Lifetime counters, surfaced in ServiceReport.
        self.spawned = 0
        self.reused = 0
        self.restarts = 0  # dead worlds replaced
        self.reaped = 0  # idle worlds expired
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
                return spawn_world(P, backend=backend)
            world, _ = entry
            if world.healthy():
                with self._lock:
                    self.reused += 1
                return world
            # Crash-replacement: the previous job killed it after release
            # (or a rank died while idle) — close and look again.
            with self._lock:
                self.restarts += 1
            world.close()

    def release(self, world: World) -> None:
        """Return a world after a job.  Dead worlds are closed (counted
        as restarts — their replacement is the next acquire's spawn);
        healthy ones go back on the shelf, then the shelf is reaped."""
        if not world.healthy():
            with self._lock:
                self.restarts += 1
            world.close()
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
                overflow.close()
        self._reap()

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
            world.close()

    # -- the background tick -------------------------------------------

    def _tick_loop(self) -> None:
        while not self._stop.wait(self._tick_interval):
            try:
                self._reap()
            except Exception:  # pragma: no cover — a tick must never kill
                pass  # the thread; the next tick retries.

    # -- lifecycle ------------------------------------------------------

    def idle_count(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._idle.values())

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "spawned": self.spawned,
                "reused": self.reused,
                "restarts": self.restarts,
                "reaped": self.reaped,
                "idle": sum(len(b) for b in self._idle.values()),
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
            world.close()

    def __enter__(self) -> "WorldPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
