"""The frozen workload configuration.

Each workload is a closed loop: every caller thread sends its next request
only after the previous one returned.  At most two requests are in
flight, because the reference host has two cores.  Keys are uint32 from
``repro.utils.rng.make_keys`` with power-of-two sizes.  The config hash
stamps every result so that only like-for-like runs get compared; it
covers the measured duration, which BENCHMARK.json's ``run_seconds``
fixes for every commit.  BENCHMARK.json records why each workload was
chosen.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from math import lcm
from typing import Dict, Tuple

#: Bumped whenever the measurement itself changes meaning.
BENCH_VERSION = 1

#: Set-ups per untraced run; the median is reported as ``setup_s``.
SETUPS = 3

#: Closed-loop warm-up before the measured phase (pools, caches, lazy
#: imports); users of a long-running front door do not pay it per request.
WARMUP_S = 1.0

#: Runs long enough are cut into blocks of this many consecutive requests;
#: the median of the blocks' tails is reported, so a burst of host noise
#: within one block does not set the run's tail.
TAIL_BLOCK = 200

#: Distinct inputs per (size, distribution) shape, cycled.  The program
#: keys nothing by content, so this only has to keep a request from
#: repeating its predecessor's keys; more would only cost memory (four
#: 1 Mi-key inputs are 16 MiB).
VARIANTS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    #: Which front door: "wire" (SortClient to one shard process, or
    #: ShardRouter over several), "library" (``repro.sort`` on SPMD
    #: threads) or "spill" (``repro.sort`` under a memory budget).
    door: str
    callers: int
    #: Request sizes, cycled request by request.
    sizes: Tuple[int, ...]
    #: Every k-th request uses the low-entropy distribution (0: never).
    low_entropy_every: int = 0
    shards: int = 0
    #: Library door: the ``repro.sort`` world.
    P: int = 0
    backend: str = ""

    @property
    def period(self) -> int:
        """Requests after which the (size, distribution) cycle repeats."""
        return lcm(len(self.sizes), self.low_entropy_every or 1)

    def shape_of(self, k: int) -> Tuple[int, str]:
        size = self.sizes[k % len(self.sizes)]
        every = self.low_entropy_every
        low = every and k % every == every - 1
        return size, "low-entropy" if low else "uniform"


def spill_budget(nbytes: int) -> int:
    """The spill door's memory budget: a quarter of the keys' bytes, so
    the call degrades to the external sort."""
    return nbytes // 4


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The sort is ~1 ms of a 10-15 ms request: planning, framing,
        # queue hand-off and dispatch dominate, and two callers sending one
        # shape let same-shape batching engage.  16 KiB payloads travel in
        # the frame body.
        Workload(
            name="rpc-small", door="wire", callers=2, sizes=(4096,),
            shards=1,
        ),
        # The same layers used another way: shapes change every request
        # (batching rarely engages), 64 KiB and larger payloads go through
        # /dev/shm, skewed inputs reach the sample sort, and two shards
        # answer the router's health probes throughout.
        Workload(
            name="routed-mix", door="wire", callers=2,
            sizes=(4096, 16384, 65536), low_entropy_every=4, shards=2,
        ),
        # Kernels, rank phases, a cold world and the front door's
        # verification are the whole call; planner, service, wire and
        # router are bypassed, so gains there predict no change here.
        Workload(
            name="bulk-1m", door="library", callers=1, sizes=(1 << 20,),
            P=2, backend="threads",
        ),
        # The only workload that runs the external sort (run formation,
        # fsynced spill files, k-way merge).  BENCHMARK.json leaves it
        # out: its median swings by a quarter between runs as the host's
        # memory and disk load drifts, more than any bound allows; the
        # traced runs of the others still time external_sort.
        Workload(
            name="spill-256k", door="spill", callers=1, sizes=(1 << 18,),
        ),
    )
}


def config_hash(w: Workload, seconds: float) -> str:
    doc = {
        "version": BENCH_VERSION, "setups": SETUPS, "warmup_s": WARMUP_S,
        "tail_block": TAIL_BLOCK, "variants": VARIANTS, "seconds": seconds,
        "workload": asdict(w),
    }
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]
