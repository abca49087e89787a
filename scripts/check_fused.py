#!/usr/bin/env python3
"""CI gate: the fused, group-scoped remap must not lose to the unfused one.

Usage::

    PYTHONPATH=src python scripts/check_fused.py

Sorts 16 Ki and 64 Ki keys on a warm 4-rank threads world, and 1 Mi keys
on a warm 2-rank one (the bulk-1m benchmark's shape), with the smart
bitonic sort: fused + group-scoped and unfused + world-wide in alternating
repetitions (21 timed per side, after one untimed run each), checking
every output byte for byte against ``np.sort``.  Fused, each remap
exchanges strided views of the partitions and the receiver places each
key once; unfused, each message is packed into a copy and unpacked in a
second pass.  Prints the median of each side and the ratio unfused /
fused per shape, and exits 1 on a wrong output or when a ratio falls
below 0.75: the fused path may not be more than 25% slower than the
packed baseline, which is how a fused remap that silently started
copying again, with outputs still correct, would show.
"""

import sys
import time

import numpy as np

from repro.runtime.driver import spawn_world
from repro.service.jobs import sort_shards_job
from repro.utils.rng import make_keys

#: ``(keys, ranks)`` per timed shape.
SIZES = ((1 << 14, 4), (1 << 16, 4), (1 << 20, 2))
REPS = 21
MIN_RATIO = 0.75

#: ``name -> (fused, grouped)``.
VARIANTS = {"fused": (True, True), "unfused": (False, False)}


def timed_sort(world, keys, expected, fused, grouped):
    """Wall seconds of one warm-world sort of ``keys``; raises on a
    wrong output."""
    n = keys.size // world.size
    rank_args = [
        ([keys[r * n:(r + 1) * n]], fused, grouped, False)
        for r in range(world.size)
    ]
    t0 = time.perf_counter()
    results = world.run(sort_shards_job, rank_args=rank_args)
    elapsed = time.perf_counter() - t0
    out = np.concatenate([outs[0] for outs, _ in results])
    if out.tobytes() != expected:
        raise AssertionError(
            f"fused={fused} grouped={grouped} mis-sorted {keys.size} keys"
        )
    return elapsed


def main() -> int:
    failed = False
    for N, ranks in SIZES:
        with spawn_world(ranks) as world:
            keys = make_keys(N, seed=N % 104729)
            expected = np.sort(keys).tobytes()
            times = {name: [] for name in VARIANTS}
            for name, flags in VARIANTS.items():
                timed_sort(world, keys, expected, *flags)
            for rep in range(REPS):
                order = list(VARIANTS) if rep % 2 == 0 else list(VARIANTS)[::-1]
                for name in order:
                    times[name].append(
                        timed_sort(world, keys, expected, *VARIANTS[name])
                    )
            medians = {name: float(np.median(t)) for name, t in times.items()}
            ratio = medians["unfused"] / medians["fused"]
            ok = ratio >= MIN_RATIO
            failed |= not ok
            print(f"{N:>9,} keys x {ranks} ranks: fused "
                  f"{medians['fused'] * 1e3:.3f} ms, unfused "
                  f"{medians['unfused'] * 1e3:.3f} ms (medians of {REPS}), "
                  f"unfused/fused {ratio:.2f}x "
                  f"{'OK' if ok else f'FAIL (< {MIN_RATIO}x)'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
