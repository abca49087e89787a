"""Backend dispatch for the SPMD runtime.

:func:`run_spmd` is the single entry point for launching an SPMD world,
and :func:`spawn_world` builds a persistent one.  The ``backend``
argument names the substrate; the runtime has one, ``"threads"``: one
Python thread per rank (:mod:`repro.runtime.threads`).  NumPy kernels
overlap because they release the GIL; pure-Python control flow
serializes.  Any other name is rejected with
:class:`~repro.errors.ConfigurationError` before a world starts.

The contract: ``fn(comm)`` runs on every rank against the
:class:`~repro.runtime.api.Comm` interface, results come back indexed by
rank, the first rank failure is re-raised in the caller, and one
wall-clock ``timeout`` bounds the whole world.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.errors import ConfigurationError
from repro.runtime.api import Comm
from repro.runtime.world import World

__all__ = ["run_spmd", "spawn_world", "BACKENDS"]

#: Names accepted by :func:`run_spmd`'s ``backend`` argument.
BACKENDS = ("threads",)


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown SPMD backend {backend!r}; choose from {list(BACKENDS)}"
        )


def run_spmd(
    size: int,
    fn: Callable[[Comm], Any],
    timeout: float = 120.0,
    backend: str = "threads",
) -> List[Any]:
    """Run ``fn(comm)`` on ``size`` ranks of the chosen backend.

    Returns the per-rank results, indexed by rank.
    """
    _check_backend(backend)
    from repro.runtime.threads import run_spmd as run_threads

    return run_threads(size, fn, timeout=timeout)


def spawn_world(size: int, backend: str = "threads") -> World:
    """Build a persistent SPMD world of ``size`` ranks without running
    anything on it yet.

    The returned :class:`~repro.runtime.world.World` accepts repeated
    jobs via ``world.run(fn, rank_args=...)`` — rank threads and
    barriers are reused across jobs, which is what makes warm serving
    cheap (:mod:`repro.service`).  Close it (or use it as a context
    manager) when done.
    """
    _check_backend(backend)
    from repro.runtime.threads import ThreadWorld

    return ThreadWorld(size)
