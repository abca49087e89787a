"""The SPMD communicator protocol.

A deliberately small subset of the MPI interface (lower-case, object-based
— the mpi4py convention for generic payloads), enough to express the
paper's algorithms:

* ``rank`` / ``size`` — who am I, how many of us;
* ``barrier()`` — synchronize all ranks;
* ``alltoallv(buckets)`` — each rank provides one array per destination
  (``None`` or empty allowed); receives the list of arrays addressed to it,
  indexed by source;
* ``allgather(value)`` — everyone gets everyone's value, indexed by rank;
* ``bcast(value, root)`` — root's value, everywhere.

Every remap of the SPMD sorts is one world-wide ``alltoallv``: the BSP
view of a superstep, one h-relation plus a barrier.  An implementation
over ``mpi4py`` maps each method to its MPI namesake; the in-process
:class:`~repro.runtime.threads.ThreadComm` implements them with shared
memory and barriers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover — avoid a runtime->trace import cycle
    from repro.trace.recorder import Tracer

__all__ = ["Comm"]


class Comm(ABC):
    """Abstract SPMD communicator (one instance per rank)."""

    #: This rank's id, ``0 <= rank < size``.
    rank: int
    #: Number of ranks.
    size: int
    #: Optional per-rank :class:`~repro.trace.recorder.Tracer`.  When set,
    #: backends record ``wait`` spans at their barriers and message/byte
    #: counters per collective, and the SPMD algorithms record their phase
    #: spans; when ``None`` (the default) every instrumented path takes a
    #: zero-allocation no-op branch.  Assign it on the rank's communicator
    #: before the algorithm runs (``comm.tracer = Tracer(comm.rank)``).
    tracer: Optional["Tracer"] = None

    @abstractmethod
    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""

    @abstractmethod
    def alltoallv(
        self, buckets: Sequence[Optional[np.ndarray]]
    ) -> List[Optional[np.ndarray]]:
        """Personalized all-to-all.

        ``buckets[q]`` is the array this rank sends to rank ``q`` (``None``
        or empty to send nothing; ``buckets[rank]`` is returned to self).
        Returns ``received`` with ``received[p]`` the array rank ``p``
        addressed to this rank (``None`` where nothing was sent).
        """

    @abstractmethod
    def allgather(self, value: Any) -> List[Any]:
        """Gather one value from every rank, everywhere."""

    @abstractmethod
    def bcast(self, value: Any, root: int = 0) -> Any:
        """Broadcast ``root``'s value to every rank."""
