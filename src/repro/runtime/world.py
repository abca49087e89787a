"""Persistent SPMD worlds: construction split from job execution.

Historically each :func:`repro.runtime.run_spmd` call built a world (rank
threads and barriers), ran exactly one ``fn(comm)`` and tore everything
down.  A serving workload pays that
construction cost per request, so the lifecycle is now split:

* :func:`repro.runtime.driver.spawn_world` builds a world once;
* :meth:`World.run` dispatches a job to the resident ranks and collects
  the per-rank results — rank threads and barriers are reused across
  jobs.  It is ``wait(start(...))``: :meth:`World.start` posts the job
  and fixes its deadline, :meth:`World.wait` collects, and a caller
  with work of its own (the front door's verification reference) does
  it in between, while the ranks sort;
* :meth:`World.close` releases the ranks.

``run_spmd`` is now a thin spawn/run/close composition, so the one-shot
contract (first failure re-raised, one wall-clock deadline per job,
broken barrier unblocking survivors) is literally the same code path.

A world on which a job failed or timed out is **dead**: collective
numbering and barrier state are unrecoverable across ranks, so the world
refuses further jobs (:class:`~repro.errors.CommunicationError`) and must
be replaced — that is the pool's job (:mod:`repro.service.pool`), not the
world's.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, List, Optional, Sequence

__all__ = ["World"]


class World(ABC):
    """A spawned SPMD world: ``size`` resident ranks awaiting jobs.

    Jobs are callables ``fn(comm, *args)`` executed SPMD-style on every
    rank.  ``rank_args`` (optional, one tuple per rank) carries per-rank
    arguments — the serving layer uses it to ship each rank only its own
    shard instead of closing over the full input.  The ``threads``
    backend passes references.
    """

    #: Backend name, matching :data:`repro.runtime.driver.BACKENDS`.
    backend: str = "?"
    size: int = 0

    def run(
        self,
        fn: Callable[..., Any],
        rank_args: Optional[Sequence[Sequence[Any]]] = None,
        timeout: float = 120.0,
    ) -> List[Any]:
        """Run one job on every rank; return per-rank results by rank.

        Mirrors the one-shot contract: the first rank failure is
        re-raised here, a broken barrier unblocks the survivors, and one
        wall-clock ``timeout`` bounds the job.  Any failure or timeout
        marks the world dead.
        """
        return self.wait(self.start(fn, rank_args, timeout))

    @abstractmethod
    def start(
        self,
        fn: Callable[..., Any],
        rank_args: Optional[Sequence[Sequence[Any]]] = None,
        timeout: float = 120.0,
    ) -> Any:
        """Post one job to every rank and return its handle at once.

        The job's one wall-clock deadline, ``timeout`` from now, is fixed
        here, however late :meth:`wait` is called.  A closed world raises
        :class:`~repro.errors.ConfigurationError` and a dead one
        :class:`~repro.errors.CommunicationError`, before any rank runs.
        One job at a time: wait for it before starting the next.
        """

    @abstractmethod
    def wait(self, job: Any) -> List[Any]:
        """Collect the per-rank results of the job :meth:`start`
        returned, under :meth:`run`'s contract."""

    @abstractmethod
    def healthy(self) -> bool:
        """Whether the world can accept another job (no rank dead, no
        prior job failed, not closed)."""

    @abstractmethod
    def close(self) -> None:
        """Release the ranks.  Idempotent."""

    def __enter__(self) -> "World":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
