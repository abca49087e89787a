"""A fault-tolerant transport decorator for any :class:`~repro.runtime.api.Comm`.

:class:`ReliableComm` wraps an unreliable communicator (in practice the
threads backend with a :class:`~repro.faults.plan.FaultInjector` mangling
envelopes) and restores exactly-once, integrity-checked delivery:

* every payload travels in an envelope ``(seq, checksum, data)`` — the
  checksum is computed by the sender over the *true* payload, so in-flight
  corruption is detected on arrival and the copy discarded;
* sequence numbers (one per collective) make retransmission idempotent:
  late and duplicated copies of an already-accepted envelope are dropped;
* delivery runs in collective retry rounds: a control-plane allgather first
  announces who sends how much to whom, then data rounds repeat — with
  capped exponential backoff plus jitter between rounds — until every rank
  has both received everything it was promised and had its own sends
  acknowledged;
* a watchdog converts persistent silence into typed errors: a peer whose
  sends never validate raises :class:`~repro.errors.CorruptPayloadError`, a
  peer that stops acknowledging raises
  :class:`~repro.errors.PeerFailedError`, and a drained retry budget with
  no single culprit raises :class:`~repro.errors.SpmdTimeoutError` — each
  carrying the rank, the phase, and the per-round retry history;
* a collapsed barrier (a peer died mid-collective) is translated from the
  backend's generic :class:`~repro.errors.CommunicationError` into
  :class:`~repro.errors.PeerFailedError` so callers can trigger recovery.

With no injector — or a :class:`~repro.faults.plan.FaultPlan` whose rates
are all zero — every method is a straight passthrough to the wrapped
communicator: zero extra rounds, zero retries, zero overhead.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import (
    CommunicationError,
    CorruptPayloadError,
    PeerFailedError,
    SpmdTimeoutError,
)
from repro.faults.plan import FaultInjector, InjectedCrash, NO_FAULT
from repro.runtime.api import Comm
from repro.trace.recorder import trace_span

__all__ = ["ReliableComm"]

#: (seq, checksum, payload) — what actually travels per message copy.
_Envelope = Tuple[int, int, np.ndarray]


def _checksum(payload: np.ndarray) -> int:
    """CRC-32 over the payload bytes and dtype (dtype confusion is
    corruption too)."""
    return zlib.crc32(str(payload.dtype).encode() + payload.tobytes())


class ReliableComm(Comm):
    """Reliable, integrity-checked view over an unreliable communicator.

    Parameters
    ----------
    inner:
        The transport to wrap (any :class:`~repro.runtime.api.Comm`).
    injector:
        Fault source consulted per envelope per attempt; ``None`` (or a
        null plan) short-circuits every method to a passthrough.
    max_retries:
        Data rounds attempted per collective before the watchdog escalates.
    base_backoff / backoff_cap / jitter:
        Sleep between retry rounds: ``min(cap, base * 2**round)`` scaled by
        ``1 + jitter * U[0,1)`` (seconds).  Tiny by default — the threads
        backend's rounds are already barrier-paced.
    """

    def __init__(
        self,
        inner: Comm,
        injector: Optional[FaultInjector] = None,
        max_retries: int = 16,
        base_backoff: float = 0.0005,
        backoff_cap: float = 0.02,
        jitter: float = 0.5,
    ):
        self._inner = inner
        self.rank = inner.rank
        self.size = inner.size
        self._injector = injector
        self._max_retries = max_retries
        self._base_backoff = base_backoff
        self._backoff_cap = backoff_cap
        self._jitter = jitter
        self._phase: Any = "init"
        self._collective = 0
        seed = injector.plan.seed if injector is not None else 0
        self._sleep_rng = random.Random((seed << 8) ^ inner.rank)
        #: Per-instance recovery counters (also mirrored into the injector).
        self.retry_rounds = 0
        self.resent_elements = 0

    @property
    def tracer(self):
        """The wrapped communicator's tracer: spans recorded here and by
        the backend land in one per-rank timeline."""
        return self._inner.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self._inner.tracer = value

    # -- phase bookkeeping ---------------------------------------------

    def set_phase(self, name: Any, index: int) -> None:
        """Label the current algorithm phase (for error reports and fault
        targeting) and honour a planned crash of this rank."""
        self._phase = name
        if self._injector is not None and self._injector.check_crash(
            self.rank, index
        ):
            raise InjectedCrash(self.rank, name)

    @property
    def _armed(self) -> bool:
        return self._injector is not None and not self._injector.plan.is_null

    # -- collectives ----------------------------------------------------

    def barrier(self) -> None:
        self._guarded(self._inner.barrier)

    def allgather(self, value: Any) -> List[Any]:
        return self._guarded(self._inner.allgather, value)

    def bcast(self, value: Any, root: int = 0) -> Any:
        return self._guarded(self._inner.bcast, value, root)

    def alltoallv(
        self, buckets: Sequence[Optional[np.ndarray]]
    ) -> List[Optional[np.ndarray]]:
        if len(buckets) != self.size:
            raise CommunicationError(
                f"rank {self.rank}: alltoallv needs {self.size} buckets, "
                f"got {len(buckets)}"
            )
        if not self._armed:
            return self._guarded(self._inner.alltoallv, buckets)
        return self._reliable_alltoallv(buckets)

    # -- the retry-round protocol ---------------------------------------

    def _reliable_alltoallv(
        self, buckets: Sequence[Optional[np.ndarray]]
    ) -> List[Optional[np.ndarray]]:
        me, P = self.rank, self.size
        inj = self._injector
        seq = self._collective
        self._collective += 1
        phase = self._phase

        # Control plane (kept fault-free: a real implementation piggybacks
        # these few ints on the barrier): announce per-destination sizes.
        sizes = [
            -1 if (b is None or np.asarray(b).size == 0) else int(np.asarray(b).size)
            for b in buckets
        ]
        meta = self._guarded(self._inner.allgather, sizes)
        expected: Dict[int, int] = {
            p: meta[p][me] for p in range(P)
            if p != me and meta[p][me] >= 0
        }

        pending: Dict[int, Tuple[np.ndarray, int]] = {}  # dst -> (payload, attempt)
        for q in range(P):
            if q != me and sizes[q] >= 0:
                pending[q] = (np.asarray(buckets[q]), 0)

        received: Dict[int, np.ndarray] = {}
        corrupt_from: Dict[int, int] = {}
        history: List[str] = []

        tr = self.tracer
        for round_no in range(self._max_retries + 1):
            rows: List[Optional[List[_Envelope]]] = [None] * P
            for q, (payload, attempt) in list(pending.items()):
                verdict = inj.decide(phase, me, q, seq, attempt)
                pending[q] = (payload, attempt + 1)
                if attempt > 0:
                    inj.note_retry(int(payload.size))
                    self.resent_elements += int(payload.size)
                    if tr is not None:
                        tr.add("resent_elements", int(payload.size))
                if verdict.drop or verdict.delay:
                    continue  # lost (or late): the next round retransmits
                wire = payload
                if verdict.corrupt:
                    wire = inj.corrupt(payload, phase, me, q, seq, attempt)
                env: _Envelope = (seq, _checksum(payload), wire)
                rows[q] = [env, env] if verdict.duplicate else [env]

            # Rounds after the first are pure recovery traffic: span them
            # as ``retransmit`` so phase totals separate first-attempt
            # transfer cost from fault-recovery cost.
            with trace_span(
                tr if round_no > 0 else None, "retransmit", round_no
            ):
                arrivals = self._guarded(self._inner.alltoallv, rows)
            for p in range(P):
                envs = arrivals[p]
                if p == me or not envs:
                    continue
                for got_seq, chk, wire in envs:
                    if p in received or got_seq != seq:
                        continue  # duplicate or stale copy: idempotent drop
                    wire = np.asarray(wire)
                    if _checksum(wire) != chk or wire.size != expected.get(p, -1):
                        corrupt_from[p] = corrupt_from.get(p, 0) + 1
                        continue
                    received[p] = wire

            # Acknowledgements: everyone announces which sources have
            # validated.  Because the size matrix ``meta`` is global
            # knowledge, every rank derives the same global completion
            # verdict from this one allgather — all ranks exit together.
            acks: List[Set[int]] = self._guarded(
                self._inner.allgather, frozenset(received)
            )
            for q in list(pending):
                if me in acks[q]:
                    del pending[q]
            if all(
                s in acks[d]
                for s in range(P)
                for d in range(P)
                if s != d and meta[s][d] >= 0
            ):
                break
            self.retry_rounds += 1
            if tr is not None:
                tr.add("retries")
            history.append(
                f"round {round_no}: got {sorted(received)}/{sorted(expected)}, "
                f"unacked -> {sorted(pending)}, corrupt from "
                f"{ {p: c for p, c in sorted(corrupt_from.items())} }"
            )
            self._sleep(round_no)
        else:
            self._escalate(expected, received, pending, corrupt_from, history)

        out: List[Optional[np.ndarray]] = [None] * P
        out[me] = buckets[me]
        for p, payload in received.items():
            out[p] = payload
        return out

    def _escalate(
        self,
        expected: Dict[int, int],
        received: Dict[int, np.ndarray],
        pending: Dict[int, Tuple[np.ndarray, int]],
        corrupt_from: Dict[int, int],
        history: List[str],
    ) -> None:
        """Retry budget drained: raise the most specific typed error."""
        phase = self._phase
        missing = sorted(set(expected) - set(received))
        for p in missing:
            if corrupt_from.get(p, 0) > 0:
                raise CorruptPayloadError(
                    f"rank {self.rank}: every payload from rank {p} in phase "
                    f"{phase!r} arrived corrupt ({corrupt_from[p]} rejected "
                    f"copies in {self._max_retries + 1} rounds)",
                    rank=p,
                    phase=str(phase),
                    attempts=corrupt_from[p],
                )
        if missing:
            raise PeerFailedError(
                f"rank {self.rank}: rank {missing[0]} went silent in phase "
                f"{phase!r} ({self._max_retries + 1} rounds without a valid "
                "payload)",
                rank=missing[0],
                phase=str(phase),
                retries=history,
            )
        if pending:
            culprit = sorted(pending)[0]
            raise PeerFailedError(
                f"rank {self.rank}: rank {culprit} stopped acknowledging in "
                f"phase {phase!r}",
                rank=culprit,
                phase=str(phase),
                retries=history,
            )
        raise SpmdTimeoutError(
            f"rank {self.rank}: collective in phase {phase!r} did not "
            f"converge within {self._max_retries + 1} rounds",
            rank=self.rank,
            phase=str(phase),
            retries=history,
        )

    # -- helpers --------------------------------------------------------

    def _sleep(self, round_no: int) -> None:
        delay = min(self._backoff_cap, self._base_backoff * (2.0 ** round_no))
        time.sleep(delay * (1.0 + self._jitter * self._sleep_rng.random()))

    def _guarded(self, fn, *args):
        """Run an inner-comm operation, translating a collapsed barrier
        (a peer died mid-collective) into a typed PeerFailedError."""
        try:
            return fn(*args)
        except CommunicationError as exc:
            if isinstance(exc.__cause__, threading.BrokenBarrierError):
                raise PeerFailedError(
                    f"rank {self.rank}: a peer failed during phase "
                    f"{self._phase!r} (barrier collapsed)",
                    rank=None,
                    phase=str(self._phase),
                ) from exc
            raise
