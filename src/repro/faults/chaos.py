"""Chaos harness: run the SPMD bitonic sort under an adversarial network.

:func:`run_chaos_sort` executes the real message-passing sort
(:func:`~repro.runtime.bitonic_spmd.spmd_bitonic_sort`) on the threads
backend, whose shared address space lets every rank draw from one
injector — with every rank's communicator wrapped in a
:class:`~repro.faults.transport.ReliableComm` driven by one shared
:class:`~repro.faults.plan.FaultInjector`.  Message drop / duplication /
corruption / delay are absorbed by the transport's retransmission
protocol; an injected rank crash tears the world down, and the driver
restarts it — resuming from the phase-level
:class:`~repro.faults.checkpoint.CheckpointStore` snapshots, so completed
sort stages are never recomputed.  The output is verified element-exactly
against :func:`numpy.sort` before the report is returned: a chaos run can
fail loudly, but never lie.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.admit import admit_direct
from repro.errors import PeerFailedError
from repro.faults.checkpoint import CheckpointStore
from repro.faults.plan import FaultInjector, FaultPlan, InjectedCrash
from repro.faults.transport import ReliableComm
from repro.runtime.bitonic_spmd import spmd_bitonic_sort
from repro.runtime.driver import run_spmd
from repro.sorts.base import verify_sorted

__all__ = ["ChaosReport", "run_chaos_sort"]


@dataclass
class ChaosReport:
    """Outcome of one chaos run: the verified result plus the cost of
    surviving the injected faults."""

    sorted_keys: np.ndarray
    P: int
    n: int
    wall_seconds: float
    restarts: int
    resumed_stage: int  # newest checkpointed stage a restart resumed from (-1: none)
    fault_stats: Dict[str, int] = field(default_factory=dict)
    checkpoint_saves: int = 0
    retry_rounds: int = 0
    resent_elements: int = 0

    def describe(self) -> str:
        s = self.fault_stats
        lines = [
            f"chaos sort: {self.P * self.n:,} keys on {self.P} ranks — "
            f"verified against np.sort in {self.wall_seconds:.2f}s wall",
            f"  injected   drop={s.get('dropped', 0)} dup={s.get('duplicated', 0)} "
            f"corrupt={s.get('corrupted', 0)} delay={s.get('delayed', 0)} "
            f"crash={s.get('crashes', 0)}",
            f"  recovery   retry rounds={self.retry_rounds}  "
            f"resent={self.resent_elements:,} elements  "
            f"restarts={self.restarts}"
            + (
                f" (resumed from checkpoint stage {self.resumed_stage})"
                if self.restarts and self.resumed_stage >= 0
                else ""
            ),
            f"  checkpoints {self.checkpoint_saves} snapshots",
        ]
        return "\n".join(lines)


def run_chaos_sort(
    keys: np.ndarray,
    P: int,
    plan: FaultPlan,
    max_restarts: int = 2,
    timeout: float = 60.0,
    checkpoint: bool = True,
    max_retries: int = 16,
) -> ChaosReport:
    """Sort ``keys`` on ``P`` concurrent ranks while ``plan``'s faults fire.

    Message-level faults are survived in place by the reliable transport; a
    planned rank crash kills the world, which is then restarted up to
    ``max_restarts`` times, resuming from the last checkpointed stage when
    ``checkpoint`` is on.  Raises the transport's typed error
    (:class:`~repro.errors.PeerFailedError` et al.) when the budget is
    exhausted; on success the output has been verified element-exactly.
    A request the threads smart row of :mod:`repro.admit` refuses is
    refused before any rank starts.
    """
    keys, _ = admit_direct(keys, P, "smart", "threads")
    n = keys.size // P
    injector = FaultInjector(plan)
    store = CheckpointStore() if checkpoint else None
    start = time.perf_counter()
    restarts = 0
    resumed_stage = -1

    def prog(comm):
        rc = ReliableComm(comm, injector, max_retries=max_retries)
        local = keys[comm.rank * n : (comm.rank + 1) * n]
        return spmd_bitonic_sort(rc, local, checkpoint=store)

    while True:
        try:
            parts = run_spmd(P, prog, timeout=timeout)
            break
        except (InjectedCrash, PeerFailedError) as exc:
            if restarts >= max_restarts:
                if isinstance(exc, InjectedCrash):
                    raise PeerFailedError(
                        f"rank {exc.rank} crashed in phase {exc.phase!r} and "
                        "the restart budget is exhausted",
                        rank=exc.rank,
                        phase=str(exc.phase),
                    ) from exc
                raise
            restarts += 1
            if store is not None:
                resumed_stage = max(resumed_stage, store.resumable_stage())

    out = np.concatenate(parts)
    verify_sorted(keys, out, "chaos-bitonic")
    rc_rounds = injector.stats.retries
    return ChaosReport(
        sorted_keys=out,
        P=P,
        n=n,
        wall_seconds=time.perf_counter() - start,
        restarts=restarts,
        resumed_stage=resumed_stage,
        fault_stats=injector.stats.as_dict(),
        checkpoint_saves=store.saves if store is not None else 0,
        retry_rounds=rc_rounds,
        resent_elements=injector.stats.resent_elements,
    )
