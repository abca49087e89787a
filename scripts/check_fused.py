#!/usr/bin/env python3
"""CI gate: the fused, group-scoped remap must not lose to the unfused one.

Usage::

    PYTHONPATH=src python scripts/check_fused.py

Sorts 16 Ki and 64 Ki keys with the smart bitonic sort on one warm
4-rank threads world, fused + group-scoped and unfused + world-wide in
alternating repetitions (21 timed per side, after one untimed run each),
and checks every output byte for byte against ``np.sort``.  Prints the
median of each side and the ratio unfused / fused per size, and exits 1
on a wrong output or when a ratio falls below 0.75: the fused path may
not be more than 25% slower than the baseline it replaced, which is how
a compatibility fallback that engaged silently, with outputs still
correct, would show.
"""

import sys
import time

import numpy as np

from repro.runtime.driver import spawn_world
from repro.service.jobs import sort_shards_job
from repro.utils.rng import make_keys

SIZES = (1 << 14, 1 << 16)
RANKS = 4
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
    with spawn_world(RANKS) as world:
        for N in SIZES:
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
            print(f"{N:>7,} keys x {RANKS} ranks: fused "
                  f"{medians['fused'] * 1e3:.3f} ms, unfused "
                  f"{medians['unfused'] * 1e3:.3f} ms (medians of {REPS}), "
                  f"unfused/fused {ratio:.2f}x "
                  f"{'OK' if ok else f'FAIL (< {MIN_RATIO}x)'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
