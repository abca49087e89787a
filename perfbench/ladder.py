"""The traced run's per-layer ladder.

Each layer's public functions are timed from outside, at the workload's
inputs: one rung per call, from ``np.sort`` up to the workload's own front
door.  A rung's delta over the rung below it is that layer's cost.  Every
rung runs on every workload, so each workload reports every per-layer
metric at its own shapes; the ladder table printed for a workload is the
one of its front door:

* wire:    np.sort -> radix_sort -> World.run -> Planner.plan +
           SortService.sort -> SortClient.sort -> ShardRouter.sort
* library: np.sort -> radix_sort -> run_spmd -> repro.sort(verify=False)
           -> repro.sort(verify=True)
* spill:   np.sort -> external_sort -> repro.sort(memory_budget=...)

The SPMD rungs run at the plan the workload's requests run at: the
library door's own ``P`` and backend, else ``Planner().plan(N)``, the
plan a shard's service chooses.  Rank phases are traced at that plan, or
on two ranks when it has one.  Each rung is repeated (after one
untimed warm-up call) and its median kept; per-shape values are averaged
with the weight each shape has in the workload's request cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro.extsort import external_sort
from repro.localsort import p_way_merge, radix_sort
from repro.runtime.driver import run_spmd, spawn_world
from repro.service import Planner, ShardRouter, SortClient, SortService
from repro.service.jobs import noop_job, sort_shards_job
from repro.service.net import FrameType, decode_frame, encode_frame

from config import Workload, spill_budget
from doors import ShardProcess, WireDoor
from spans import Spans, lane_for, phase_self_ms
from stats import mean, median, same_bytes

#: A rung repeats until it has run this long, at least ``MIN_REPS`` and at
#: most ``MAX_REPS`` times.
RUNG_S = 0.2
MIN_REPS = 3
MAX_REPS = 40

#: Rank phases whose self time the runtime reports (max over ranks).
PHASES = ("local_sort", "merge", "pack", "transfer", "wait")

#: Health probes timed at the end of the run.
HEALTH_PROBES = 5


@dataclass(frozen=True)
class Plan:
    """The SPMD shape a request runs at."""

    algorithm: str
    backend: str
    P: int
    fused: bool = True
    grouped: bool = True
    overlap: bool = False
    chunks: int = 4

    def rank_args(self, keys: np.ndarray, trace: bool) -> List[tuple]:
        """``sort_shards_job`` arguments per rank, as the service builds
        them for a batch of one."""
        n = keys.size // self.P
        return [
            ([keys[r * n:(r + 1) * n]], self.fused, self.grouped, trace, None,
             self.overlap, self.chunks, self.algorithm)
            for r in range(self.P)
        ]


def one_shot_job(comm, keys: np.ndarray, plan: Plan) -> np.ndarray:
    """One rank of a one-shot sort: the service's job on a fresh world."""
    args = plan.rank_args(keys, False)[comm.rank]
    outs, _tracers = sort_shards_job(comm, *args)
    return outs[0]


def breakdown(infos: Sequence[dict]) -> Dict[str, float]:
    """Service and wire metrics from the timings in each reply."""
    return {
        "service.queue_wait_ms":
            median(i["queue_wait_s"] for i in infos) * 1e3,
        "service.run_ms": median(i["run_s"] for i in infos) * 1e3,
        "service.batch_size": mean(i["batch_size"] for i in infos),
        "net.attempts": mean(i["attempts"] for i in infos),
        "net.shm_share": mean(float(i["via_shm"]) for i in infos),
    }


def router_breakdown(infos: Sequence[dict], router: ShardRouter
                     ) -> Dict[str, float]:
    served = [s["served"] for s in router.status().values()]
    return {
        "router.overhead_ms": median(i["router_s"] for i in infos) * 1e3,
        "router.failovers": float(sum(i["failovers"] for i in infos)),
        "router.imbalance": max(served) / max(1, min(served)),
    }


class Ladder:
    """Times every rung at one workload's inputs.

    Uses the door's shard and clients when the door is on the wire, and
    starts one shard of its own otherwise.
    """

    def __init__(self, w: Workload, door, spans: Spans, src: str):
        self.w = w
        self.spans = spans
        self.ok = True
        self.planner = Planner()
        self.service = SortService(Planner())
        self.worlds: Dict[Tuple[str, int], object] = {}
        self.shard: Optional[ShardProcess] = None
        if w.door == "wire":
            self.client = door.clients[0]
        else:
            self.shard = ShardProcess(src, "ladder0")
            self.client = SortClient(self.shard.address())
        self.door_router = getattr(door, "router", None)
        self.router = self.door_router or ShardRouter({"shard0": self.client})
        self.client_infos: List[dict] = []
        self.router_infos: List[dict] = []

    def close(self) -> None:
        for world in self.worlds.values():
            world.close()
        self.service.close()
        if self.router is not self.door_router:
            self.router.close()
        if self.shard is not None:
            self.client.close()
            self.shard.stop()

    # -- timing ----------------------------------------------------------

    def repeat(
        self, name: str, layer: str, rid: str, fn: Callable[[], object],
        expected: Optional[np.ndarray] = None,
        out: Callable[[object], np.ndarray] = lambda v: v,
        keep: Optional[Callable[[object], object]] = None,
        fold: Optional[Callable[[object, int], None]] = None,
    ) -> Tuple[List[float], List[object]]:
        """Per-call ms of ``fn`` after one untimed warm-up call, and
        ``keep`` of each value.  The first timed value's output is checked
        against ``expected`` outside the timed region."""
        fn()
        times: List[float] = []
        kept: List[object] = []
        begun = perf_counter()
        while len(times) < MIN_REPS or (
            len(times) < MAX_REPS and perf_counter() - begun < RUNG_S
        ):
            with self.spans.span(name, layer, rid) as index:
                t0 = perf_counter()
                value = fn()
                times.append((perf_counter() - t0) * 1e3)
            if expected is not None and len(times) == 1:
                self.ok &= same_bytes(out(value), expected)
            if keep is not None:
                kept.append(keep(value))
            if fold is not None:
                fold(value, index)
        return times, kept

    def world(self, plan: Plan):
        key = (plan.backend, plan.P)
        if key not in self.worlds:
            self.worlds[key] = spawn_world(plan.P, plan.backend)
        return self.worlds[key]

    def plan_for(self, keys: np.ndarray) -> Plan:
        if self.w.door == "library":
            return Plan("smart", self.w.backend, self.w.P)
        d = self.planner.plan(keys.size, dtype_size=keys.dtype.itemsize)
        return Plan(d.algorithm, d.backend, d.P, d.fused, d.grouped,
                    d.overlap, d.chunks)

    # -- one input -------------------------------------------------------

    def measure(self, keys: np.ndarray, expected: np.ndarray, rid: str
                ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``(rung ms, per-layer metrics)`` at one input."""
        plan = self.plan_for(keys)
        P, n = plan.P, keys.size // plan.P
        ms = lambda *a, **k: median(self.repeat(*a, **k)[0])  # noqa: E731
        rung: Dict[str, float] = {}

        rung["np.sort"] = ms("np.sort", "localsort", rid,
                             lambda: np.sort(keys))
        rung["radix_sort"] = ms("radix_sort", "localsort", rid,
                                lambda: radix_sort(keys[:n]))
        runs = [np.sort(keys[r * n:(r + 1) * n]) for r in range(P)]
        merge_ms = ms("p_way_merge", "localsort", rid,
                      lambda: p_way_merge(runs), expected)

        spawn = []
        for _ in range(MIN_REPS):
            with self.spans.span("spawn_world", "runtime", rid):
                t0 = perf_counter()
                fresh = spawn_world(P, plan.backend)
                spawn.append((perf_counter() - t0) * 1e3)
            fresh.close()
        world = self.world(plan)
        dispatch_ms = ms("World.run(noop_job)", "runtime", rid,
                         lambda: world.run(noop_job))
        joined = lambda parts: np.concatenate(  # noqa: E731
            [outs[0] for outs, _t in parts]
        )
        rung["World.run"] = ms(
            "World.run(sort_shards_job)", "runtime", rid,
            lambda: world.run(sort_shards_job,
                              rank_args=plan.rank_args(keys, False)),
            expected, joined,
        )
        # Rank phases need ranks to talk to: a single-rank plan is traced
        # on the smallest world that exchanges keys.
        phase_plan = plan if P > 1 else replace(plan, P=2)
        phase_world = self.world(phase_plan)
        traced_args = phase_plan.rank_args(keys, True)

        def fold_ranks(parts, index: int) -> None:
            for rank, (_outs, tracers) in enumerate(parts):
                self.spans.fold(tracers[0], index, rid, lane_for(None, rank))

        _t, phases = self.repeat(
            "World.run(sort_shards_job, trace)", "runtime", rid,
            lambda: phase_world.run(sort_shards_job, rank_args=traced_args),
            keep=lambda parts: phase_self_ms(
                [tracers[0] for _outs, tracers in parts], PHASES
            ),
            fold=fold_ranks,
        )
        rung["run_spmd"] = ms(
            "run_spmd", "runtime", rid,
            lambda: run_spmd(P, partial(one_shot_job, keys=keys, plan=plan),
                             backend=plan.backend),
            expected, np.concatenate,
        )

        budget = spill_budget(keys.nbytes)
        ext_times, ext = self.repeat(
            "external_sort", "extsort", rid,
            lambda: external_sort(keys, budget), expected,
            out=lambda v: v[0], keep=lambda v: v[1],
        )
        rung["external_sort"] = median(ext_times)
        if self.w.door == "spill":
            front = {"memory_budget": budget}
            below = rung["external_sort"]
        else:
            front = {"P": P, "backend": plan.backend,
                     "algorithm": plan.algorithm}
            below = rung["run_spmd"]
        sorted_by = lambda v: v.sorted_keys  # noqa: E731
        rung["repro.sort(verify=False)"] = ms(
            "repro.sort(verify=False)", "api", rid,
            lambda: repro.sort(keys, verify=False, **front),
            expected, sorted_by,
        )
        rung["repro.sort(verify=True)"] = ms(
            "repro.sort(verify=True)", "api", rid,
            lambda: repro.sort(keys, **front), expected, sorted_by,
        )
        if self.w.door == "spill":
            rung["repro.sort(memory_budget=...)"] = rung[
                "repro.sort(verify=True)"
            ]

        plan_ms = ms("Planner.plan", "service.planner", rid,
                     lambda: self.planner.plan(
                         keys.size, dtype_size=keys.dtype.itemsize))
        rung["Planner.plan + SortService.sort"] = ms(
            "SortService.sort", "service", rid,
            lambda: self.service.sort(keys), expected, sorted_by,
        )

        def light(outcome):
            """The reply without its keys, so reps do not pile up arrays."""
            return replace(outcome, sorted_keys=outcome.sorted_keys[:0])

        times, outcomes = self.repeat(
            "SortClient.sort", "service.net", rid,
            lambda: self.client.sort(keys, algorithm="auto"),
            expected, sorted_by, keep=light,
        )
        rung["SortClient.sort"] = median(times)
        self.client_infos += [
            WireDoor.info(o, t / 1e3) for o, t in zip(outcomes, times)
        ]
        times, outcomes = self.repeat(
            "ShardRouter.sort", "service.router", rid,
            lambda: self.router.sort(keys, algorithm="auto"),
            expected, sorted_by, keep=light,
        )
        rung["ShardRouter.sort"] = median(times)
        self.router_infos += [
            WireDoor.info(o, t / 1e3) for o, t in zip(outcomes, times)
        ]
        codec_ms = ms("encode_frame + decode_frame", "service.net", rid,
                      partial(codec_round_trip, keys,
                              self.client.shm_min_bytes))

        report = ext[0]
        layer = {
            "localsort.np_sort_ms": rung["np.sort"],
            "localsort.radix_sort_ms": rung["radix_sort"],
            "localsort.p_way_merge_ms": merge_ms,
            "runtime.spawn_ms": median(spawn),
            "runtime.dispatch_ms": dispatch_ms,
            "runtime.warm_sort_ms": rung["World.run"],
            "runtime.cold_sort_ms": rung["run_spmd"],
            "api.overhead_ms": rung["repro.sort(verify=False)"] - below,
            "api.verify_ms": rung["repro.sort(verify=True)"]
            - rung["repro.sort(verify=False)"],
            "planner.plan_ms": plan_ms,
            "service.overhead_ms": rung["Planner.plan + SortService.sort"]
            - plan_ms - rung["World.run"],
            "net.overhead_ms": rung["SortClient.sort"]
            - rung["Planner.plan + SortService.sort"],
            "net.codec_ms": codec_ms,
            "extsort.sort_ms": rung["external_sort"],
            "extsort.runs": float(report.runs),
            "extsort.merge_passes": float(report.merge_passes),
            "extsort.spill_mb": report.spill_bytes / 2**20,
            "extsort.peak_resident_mb": report.peak_resident_bytes / 2**20,
        }
        for phase in PHASES:
            layer[f"runtime.{phase}_ms"] = median(p[phase] for p in phases)
        return rung, layer

    def health_ms(self) -> float:
        times = []
        for _ in range(HEALTH_PROBES):
            with self.spans.span("SortClient.health", "service.net", "health"):
                t0 = perf_counter()
                self.client.health()
                times.append((perf_counter() - t0) * 1e3)
        return median(times)


def codec_round_trip(keys: np.ndarray, shm_min_bytes: int) -> None:
    """Encode and decode the SORT frame the client sends for ``keys``: the
    keys ride in the body below the shm threshold, else only the segment
    name does."""
    meta = {"id": "0" * 32, "dtype": keys.dtype.str, "shape": [keys.size],
            "algorithm": "auto"}
    body = b""
    if keys.nbytes >= shm_min_bytes:
        meta["shm"] = "rsrtshm_" + "0" * 32
    else:
        body = keys.tobytes()
    decode_frame(encode_frame(FrameType.SORT, meta, body))


LADDERS = {
    "wire": ("np.sort", "radix_sort", "World.run",
             "Planner.plan + SortService.sort", "SortClient.sort",
             "ShardRouter.sort"),
    "library": ("np.sort", "radix_sort", "run_spmd",
                "repro.sort(verify=False)", "repro.sort(verify=True)"),
    "spill": ("np.sort", "external_sort", "repro.sort(memory_budget=...)"),
}


def weighted(rows: Sequence[Tuple[int, Dict[str, float]]]
             ) -> Dict[str, float]:
    """Per key, the mean over shapes weighted by each shape's count."""
    total = sum(count for count, _ in rows)
    keys = rows[0][1].keys()
    return {
        k: sum(count * row[k] for count, row in rows) / total for k in keys
    }
