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
* ``bcast(value, root)`` — root's value, everywhere;
* ``sendrecv(send, dst, src)`` — simultaneous exchange with two peers
  (the pairwise pattern of blocked-merge and of column sort's shifts);
* ``group_alltoallv(buckets, group)`` — ``alltoallv`` scoped to a
  communication group (Lemma 4: a remap only exchanges data within groups
  of ``2**N_BitsChanged`` ranks, so synchronization and descriptor work
  need not span the world);
* ``alltoallv_fused(data, plan, out, group)`` — the §4.3 fused
  pack/transfer/unpack as one collective: gather straight from ``data``
  through the plan's indices into the transport, scatter arrivals straight
  into ``out`` — no intermediate bucket arrays on a backend's fast path.

An implementation over ``mpi4py`` maps each method to its MPI namesake
(``group_alltoallv`` to an ``alltoallv`` on a split communicator,
``alltoallv_fused`` to ``alltoallw`` with derived datatypes); the
in-process :class:`~repro.runtime.threads.ThreadComm` implements them with
shared memory and barriers.  The group/fused methods carry default
implementations composed from :meth:`Comm.alltoallv`, so wrappers such as
:class:`~repro.faults.transport.ReliableComm` stay correct automatically —
they just do not get the zero-copy fast path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover — avoid a runtime->trace import cycle
    from repro.remap.plan import RemapPlan
    from repro.trace.recorder import Tracer

__all__ = ["Comm"]


class Comm(ABC):
    """Abstract SPMD communicator (one instance per rank)."""

    #: This rank's id, ``0 <= rank < size``.
    rank: int
    #: Number of ranks.
    size: int
    #: Whether every rank of this world shares the caller's address space.
    #: Cross-process backends (:class:`~repro.runtime.procs.ProcComm`)
    #: override this to ``False``; layers that rely on shared in-process
    #: state (e.g. the fault-injection transport) must check it.
    in_process: bool = True
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

    def sendrecv(
        self, send: Optional[np.ndarray], dst: int, src: int
    ) -> Optional[np.ndarray]:
        """Send ``send`` to ``dst`` while receiving from ``src``.

        The exchange pattern must be *matched*: when this rank names
        ``src``, rank ``src`` must concurrently call :meth:`sendrecv`
        with its ``dst`` set to this rank (possibly with ``send=None``) —
        the simultaneous pairwise pattern of blocked-merge and of column
        sort's shifts.  Sends to self are dropped and receives from self
        return ``None``, matching the fallback's behaviour.

        This default implementation pays a full ``size``-wide
        :meth:`alltoallv` for what is a 2-peer exchange; both bundled
        backends override it with a genuinely pairwise path (the trace
        counters ``coll.slots`` / ``coll.alltoallv`` make the difference
        observable).
        """
        buckets: List[Optional[np.ndarray]] = [None] * self.size
        if send is not None and dst != self.rank:
            buckets[dst] = send
        received = self.alltoallv(buckets)
        return received[src]

    # -- group-scoped and fused collectives ----------------------------

    def _check_group(
        self, buckets: Sequence[Optional[np.ndarray]], group: Sequence[int]
    ) -> Tuple[int, ...]:
        """Validate a communication group against this rank and its
        buckets; returns the group as a tuple."""
        from repro.errors import CommunicationError

        g = tuple(group)
        members = set(g)
        if len(members) != len(g):
            raise CommunicationError(
                f"rank {self.rank}: group {g} repeats a member"
            )
        if self.rank not in members:
            raise CommunicationError(
                f"rank {self.rank}: not a member of its own group {g}"
            )
        if not all(0 <= m < self.size for m in members):
            raise CommunicationError(
                f"rank {self.rank}: group {g} outside world of {self.size}"
            )
        if len(buckets) != self.size:
            raise CommunicationError(
                f"rank {self.rank}: group_alltoallv needs {self.size} "
                f"world-indexed buckets, got {len(buckets)}"
            )
        for q, payload in enumerate(buckets):
            if payload is not None and q not in members:
                raise CommunicationError(
                    f"rank {self.rank}: bucket addressed to rank {q}, "
                    f"outside its communication group {g} (Lemma 4 would "
                    "be violated — the remap plan and group disagree)"
                )
        return g

    def group_alltoallv(
        self,
        buckets: Sequence[Optional[np.ndarray]],
        group: Sequence[int],
    ) -> List[Optional[np.ndarray]]:
        """Personalized all-to-all within a communication group.

        ``group`` is the sorted tuple of ranks (including this one) that
        exchange data in this collective — for a remap, the Lemma-4 group
        from :func:`repro.remap.groups.remap_group`.  ``buckets`` stays
        *world-indexed* (length ``size``); entries outside the group must
        be ``None``.  Returns a world-indexed ``received`` list, ``None``
        outside the group — a drop-in replacement for :meth:`alltoallv`.

        Every member of a group must call this collective with the same
        group at the same point of the program; distinct groups of the
        same partition proceed independently (no world-wide barrier).
        This default implementation validates the group but still pays a
        world-wide :meth:`alltoallv`; the bundled backends override it
        with genuinely group-scoped synchronization and descriptor work
        (observable via the ``coll.group_size`` / ``coll.slots`` trace
        counters).
        """
        self._check_group(buckets, group)
        return self.alltoallv(buckets)

    def alltoallv_fused(
        self,
        data: np.ndarray,
        plan: "RemapPlan",
        out: np.ndarray,
        group: Optional[Sequence[int]] = None,
    ) -> None:
        """Fused pack/transfer/unpack (§4.3) as one collective.

        Gathers ``data[idx]`` for every outgoing message of ``plan`` into
        the transport, exchanges within ``group`` (the world when
        ``None``), and scatters each arrival straight into ``out`` through
        the plan's receive indices.  The caller moves its kept elements
        (``out[plan.keep_dst] = data[plan.keep_src]``) itself — that is
        the fused surcharge that remains of the pack phase.

        Backends override this with a zero-copy path (elements written
        once, straight into send windows, and merged straight out of
        receive windows); this default composes the same semantics from
        :meth:`group_alltoallv` / :meth:`alltoallv`, so any communicator —
        including wrappers like the fault-injection transport — supports
        the fused call, just without the copy savings.
        """
        from repro.errors import CommunicationError

        if self.tracer is not None:
            self.tracer.add("coll.fused")
        buckets: List[Optional[np.ndarray]] = [None] * self.size
        for q, idx in plan.send_sorted:
            buckets[q] = data[idx]
        if group is not None and len(group) < self.size:
            received = self.group_alltoallv(buckets, group)
        else:
            received = self.alltoallv(buckets)
        for p, slots in plan.recv_sorted:
            payload = received[p]
            if payload is None or payload.size != slots.size:
                raise CommunicationError(
                    f"rank {self.rank}: expected {slots.size} keys from "
                    f"rank {p}, got "
                    f"{0 if payload is None else payload.size}"
                )
            out[slots] = payload
        for p, payload in enumerate(received):
            if p != self.rank and payload is not None and p not in plan.recv:
                raise CommunicationError(
                    f"rank {self.rank}: unexpected payload of "
                    f"{payload.size} keys from rank {p}"
                )
