"""The front doors the workloads drive, each with its set-up.

A door sets itself up (``setup`` returns seconds from the start of the
set-up to the first verified reply), answers ``call(keys, trace)`` with
``(sorted_keys, what_the_door_returned)``, and on ``teardown`` records
the peak resident memory of the processes that did the sorting.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from typing import Any, List, Optional, Tuple

import numpy as np

import repro
from repro.service import ShardRouter, SortClient
from config import Workload, spill_budget
from spans import Spans, lane_for
from stats import same_bytes

HERE = os.path.dirname(os.path.abspath(__file__))


class WrongOutputError(RuntimeError):
    """A set-up's first reply was not byte-identical to ``np.sort``."""


def check_first_reply(out: np.ndarray, expected: np.ndarray) -> None:
    if not same_bytes(out, expected):
        raise WrongOutputError("the set-up's first reply differs from np.sort")


class ShardProcess:
    """One ``shard.py`` server process."""

    def __init__(self, src: str, name: str):
        self.name = name
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "shard.py"),
             "--src", src, "--name", name],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def address(self) -> Tuple[str, int]:
        fields = self.proc.stdout.readline().split()
        if fields[:1] != ["READY"]:
            self.stop()
            raise RuntimeError(f"shard {self.name} did not start")
        return fields[1], int(fields[2])

    def stop(self) -> float:
        """Close the server and wait for it; returns its peak RSS plus the
        largest peak among its rank processes, in MiB."""
        fields: List[str] = []
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
            fields = self.proc.stdout.readline().split()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if fields[:1] != ["RSS"]:
            return float("nan")
        return (int(fields[1]) + int(fields[2])) / 1024


def plan_name(algorithm: str, backend: str, P: int) -> str:
    return f"{algorithm}:{backend}x{P}"


class WireDoor:
    """``SortClient`` over TCP to one shard process, or ``ShardRouter``
    over one client per shard.  A client keeps one connection per
    calling thread, so each caller has its own connection."""

    def __init__(self, w: Workload, src: str):
        self.w = w
        self.src = src
        self.layer = "service.router" if w.shards > 1 else "service.net"
        self.shards: List[ShardProcess] = []
        self.clients: List[SortClient] = []
        self.router: Optional[ShardRouter] = None
        self.peak_rss_mb = float("nan")

    def setup(self, keys: np.ndarray, expected: np.ndarray) -> float:
        self.teardown()
        start = time.monotonic()
        self.shards = [
            ShardProcess(self.src, f"shard{i}") for i in range(self.w.shards)
        ]
        addresses = [s.address() for s in self.shards]
        self.clients = [SortClient(a) for a in addresses]
        if len(self.clients) > 1:
            self.router = ShardRouter({
                s.name: c for s, c in zip(self.shards, self.clients)
            })
            self.router.start_health_checks()
        out, _ = self.call(keys, False)
        replied = time.monotonic()
        check_first_reply(out, expected)
        return replied - start

    def call(self, keys: np.ndarray, trace: bool):
        front = self.router if self.router is not None else self.clients[0]
        outcome = front.sort(keys, algorithm="auto", trace=trace)
        return outcome.sorted_keys, outcome

    @staticmethod
    def plan(outcome) -> str:
        s = outcome.server
        return plan_name(s["algorithm"], s["backend"], s["P"])

    @staticmethod
    def info(outcome, latency_s: float) -> dict:
        """The request's breakdown from the timings in its reply."""
        s = outcome.server
        return {
            "queue_wait_s": s["queue_wait_s"], "run_s": s["run_s"],
            "batch_size": s["batch_size"], "attempts": outcome.attempts,
            "via_shm": outcome.via_shm, "failovers": outcome.failovers,
            "router_s": latency_s - outcome.wall_s,
        }

    @staticmethod
    def fold(spans: Spans, outcome, parent: int, rid: str, caller: int
             ) -> None:
        if outcome.tracer is not None:
            spans.fold(outcome.tracer, parent, rid, lane_for(caller))

    def teardown(self) -> None:
        if self.router is not None:
            self.router.close()
            self.router = None
        for client in self.clients:
            client.close()
        self.clients = []
        if self.shards:
            self.peak_rss_mb = sum(s.stop() for s in self.shards)
        self.shards = []


class LibraryDoor:
    """``repro.sort`` in this process: on SPMD threads (library door) or
    under a memory budget (spill door).  Each set-up is a cold start in a
    fresh process (``coldstart.py``)."""

    layer = "api"

    def __init__(self, w: Workload, src: str, run_dir: str):
        self.w = w
        self.src = src
        self.run_dir = run_dir
        self.peak_rss_mb = float("nan")

    def kwargs(self, keys: np.ndarray) -> dict:
        if self.w.door == "spill":
            return {"memory_budget": spill_budget(keys.nbytes)}
        return {"P": self.w.P, "backend": self.w.backend}

    def setup(self, keys: np.ndarray, expected: np.ndarray) -> float:
        path = os.path.join(self.run_dir, f"coldstart-{os.getpid()}.npy")
        np.save(path, keys)
        try:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "coldstart.py"),
                 "--src", self.src, "--keys", path,
                 "--kwargs", json.dumps(self.kwargs(keys))],
                stdout=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.remove(path)
        fields = proc.stdout.split()
        if proc.returncode != 0 or fields[:1] != ["REPLY"]:
            raise WrongOutputError(
                f"cold start failed (exit {proc.returncode}): {proc.stdout!r}"
            )
        return float(fields[1]) - start

    def call(self, keys: np.ndarray, trace: bool):
        report = repro.sort(keys, trace=trace, **self.kwargs(keys))
        return report.sorted_keys, report

    @staticmethod
    def plan(report) -> str:
        return plan_name(report.algorithm, report.backend, report.P)

    @staticmethod
    def info(report, latency_s: float) -> None:
        """No reply timings: the ladder breaks the library doors down."""
        return None

    @staticmethod
    def fold(spans: Spans, report, parent: int, rid: str, caller: int
             ) -> None:
        for tracer in report.tracers or ():
            spans.fold(tracer, parent, rid, lane_for(caller, tracer.rank))

    def teardown(self) -> None:
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )


def make_door(w: Workload, src: str, run_dir: str) -> Any:
    if w.door == "wire":
        return WireDoor(w, src)
    return LibraryDoor(w, src, run_dir)
