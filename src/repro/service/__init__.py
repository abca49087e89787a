"""``repro.service`` — the persistent sort service.

A serving layer over the SPMD runtime: a warm :class:`WorldPool` keeps
spawned worlds alive between requests, a LogGP-driven :class:`Planner`
prices each request with the paper's closed forms calibrated to the host
(:class:`HostProfile`), and :class:`SortService` fronts it all with a
bounded queue, deadline admission and per-request tracing.

Over the network, :mod:`repro.service.net` frames requests over TCP
(:class:`SortServer` / :class:`SortClient`, with same-host shm payloads
and idempotent retries), and :mod:`repro.service.router` spreads them
across shards with health-checked circuit breaking and failover
(:class:`ShardRouter`).  See ``docs/SERVING.md``.
"""

from repro.service.net import ClientOutcome, SortClient, SortServer
from repro.service.planner import PlanDecision, Planner
from repro.service.pool import WorldPool
from repro.service.profile import PROFILE_SCHEMA, BackendCosts, HostProfile
from repro.service.router import LocalShard, ShardRouter
from repro.service.service import ServiceReport, SortOutcome, SortService, Ticket

__all__ = [
    "BackendCosts",
    "ClientOutcome",
    "HostProfile",
    "LocalShard",
    "PROFILE_SCHEMA",
    "PlanDecision",
    "Planner",
    "ServiceReport",
    "ShardRouter",
    "SortClient",
    "SortServer",
    "SortOutcome",
    "SortService",
    "Ticket",
    "WorldPool",
]
