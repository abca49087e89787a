#!/usr/bin/env python3
"""Calibrate the service planner's host profile.

Usage::

    PYTHONPATH=src python scripts/calibrate_loggp.py [--out PROFILE.json]
        [--keys 262144] [--rounds 64] [--quick]

Measures, on the machine actually running the sorts:

* **the ``np.sort`` rate** — ns per key, best-of at sizes from 4 Ki to
  1 Mi keys, the median over the sizes kept: every local sort and merge
  phase of the SPMD runtime runs ``np.sort``;
* **per-element rates** — the sample sort's unpack placement, the
  fused remap's permutation-composed pack, address computation;
* **threads-backend LogGP parameters** — a 2-rank pingpong of
  ``alltoallv`` rounds, the exchange every remap runs, fits the
  per-message overhead ``o`` (y-intercept) and per-byte gap ``G``
  (slope); ``L`` and ``g`` are set to ``o`` (on shared memory the wire
  latency and the gap are not separable from the overhead at this
  granularity, and the closed forms price long messages by ``o`` + ``G``
  anyway);
* **serving fixed cost** — warm job dispatch/collect overhead;
* **disk lane** — sequential write and read bandwidth, measured
  through the same temp-file path and ``tofile``/``fromfile`` idiom the
  out-of-core external sort spills through.  They price forced and
  budget-degraded external requests; without them those requests price
  with conservative defaults.

The result is persisted as JSON (schema ``repro-bitonic-profile/3``) and
loaded with :meth:`repro.service.HostProfile.load`; hand it to the CLI
via ``repro-bitonic serve --profile PROFILE.json`` or to a
:class:`repro.service.Planner` directly.  See docs/SERVING.md.
"""

import argparse
import sys
import time

import numpy as np

from repro.runtime.driver import spawn_world
from repro.service.jobs import noop_job, pingpong_job
from repro.service.profile import BackendCosts, HostProfile, _usable_cpus


def _best_of(fn, reps=5):
    """Best-of-``reps`` wall seconds for one call of ``fn`` (the minimum
    is the least-disturbed measurement on a noisy shared host)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


#: Sizes the ``np.sort`` rate is measured at (4 Ki to 1 Mi keys).
SORT_SIZES = tuple(1 << lg for lg in range(12, 21, 2))


def calibrate_np_sort(sizes, reps):
    """``np.sort`` ns per uint32 key, best-of ``reps`` at each size."""
    rng = np.random.default_rng(0)
    rates = {}
    for n in sizes:
        keys = rng.integers(0, 2**32, n, dtype=np.uint32)
        rates[n] = _best_of(lambda: np.sort(keys), reps) / n * 1e9
    return rates


def calibrate_compute(n, reps):
    """Per-element µs of the remap's NumPy kernels at working-set ``n``."""
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 2**31, n, dtype=np.uint32)
    perm = rng.permutation(n)
    idx32 = perm.astype(np.int32)

    unpack_s = _best_of(lambda: keys.copy(), reps)  # contiguous placement
    # The fused path composes the sort permutation with the gather index
    # once, then does a single gather — its marginal per-element cost is
    # one int gather plus one key gather.
    fused_s = _best_of(lambda: keys[perm[idx32]], reps) / 2.0
    addr_s = _best_of(lambda: (perm >> 3) & 0x7, reps)

    return {
        "unpack_us": unpack_s / n * 1e6,
        "fused_pack_us": fused_s / n * 1e6,
        "address_us": addr_s / n * 1e6,
    }


def calibrate_disk(nbytes, reps):
    """Sequential disk write/read bandwidth (bytes/s), measured through
    the spill tier's own directory and file idiom (``tofile``/``fromfile``
    on the external sort's default spill root's parent, so the numbers
    reflect the filesystem spills actually hit)."""
    import os
    import tempfile

    from repro.extsort import default_spill_root

    root = os.path.dirname(default_spill_root())
    payload = np.arange(nbytes // 4, dtype=np.uint32)
    fd, path = tempfile.mkstemp(prefix="rxcal_", suffix=".bin", dir=root)
    os.close(fd)
    try:
        # Spilled runs are raw ``tofile`` writes, never synced, and the
        # merge reads them back from the page cache: time the same.
        write_s = _best_of(lambda: payload.tofile(path), reps)
        read_s = _best_of(lambda: np.fromfile(path, dtype=np.uint32), reps)
    finally:
        os.unlink(path)
    return {
        "disk_write_bytes_per_s": round(payload.nbytes / max(write_s, 1e-9), 0),
        "disk_read_bytes_per_s": round(payload.nbytes / max(read_s, 1e-9), 0),
    }


def calibrate_threads(rounds, reps):
    """LogGP o/G plus the warm job dispatch cost of the threads
    backend."""
    world = spawn_world(2)
    world.run(noop_job)  # the first job completes the warm-up

    # Warm job overhead: dispatch + collect of a no-op on the warm world.
    job_s = _best_of(lambda: world.run(noop_job), reps)

    # Pingpong: seconds per round at two payload sizes; the slope is G
    # (per byte), the intercept 2o (one send + one recv overhead each
    # way).  Runs inside the world so the backend's real alltoallv path
    # is timed.
    small, large = 1 << 10, 1 << 18
    t_small = min(world.run(pingpong_job, rank_args=[(small, rounds)] * 2))
    t_large = min(world.run(pingpong_job, rank_args=[(large, rounds)] * 2))
    G_us = max((t_large - t_small) / (large - small) * 1e6, 1e-7)
    o_us = max((t_small * 1e6 - small * G_us) / 2.0, 1.0)
    world.close()

    return BackendCosts(
        L=round(o_us, 3),
        o=round(o_us, 3),
        g=round(o_us, 3),
        G=round(G_us, 7),
        job_overhead_s=round(job_s, 6),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Measure this host's LogGP + compute profile for the "
                    "sort service planner."
    )
    parser.add_argument("--out", default="loggp_profile.json",
                        help="output profile JSON path")
    parser.add_argument("--keys", type=int, default=1 << 18,
                        help="working-set size for the remap kernels")
    parser.add_argument("--rounds", type=int, default=64,
                        help="pingpong rounds per payload size")
    parser.add_argument("--reps", type=int, default=5,
                        help="best-of repetitions per measurement")
    parser.add_argument("--quick", action="store_true",
                        help="small working set, few rounds (CI smoke)")
    args = parser.parse_args(argv)
    if args.quick:
        args.keys, args.rounds, args.reps = 1 << 14, 8, 2

    sizes = SORT_SIZES[:2] if args.quick else SORT_SIZES
    print(f"calibrating np.sort at {len(sizes)} sizes ...")
    rates = calibrate_np_sort(sizes, args.reps)
    for n, ns in rates.items():
        print(f"  {n:>9,} keys  {ns:6.2f} ns/key")
    np_sort_ns = round(float(np.median(list(rates.values()))), 3)
    print(f"  np_sort_ns_per_key = {np_sort_ns} (median)")

    print(f"calibrating remap kernels at n={args.keys:,} ...")
    compute = calibrate_compute(args.keys, args.reps)
    for name, us in compute.items():
        print(f"  {name:<16} {us:9.5f} us/element")

    disk_bytes = 1 << 22 if args.quick else 1 << 26
    print(f"calibrating disk lane ({disk_bytes >> 20} MiB sequential) ...")
    disk = calibrate_disk(disk_bytes, args.reps)
    print(f"  write={disk['disk_write_bytes_per_s'] / 1e6:.0f} MB/s  "
          f"read={disk['disk_read_bytes_per_s'] / 1e6:.0f} MB/s")

    print("calibrating threads backend ...")
    costs = calibrate_threads(args.rounds, args.reps)
    print(f"  o={costs.o} us  G={costs.G} us/B  "
          f"job={costs.job_overhead_s * 1e3:.2f} ms")

    profile = HostProfile(
        cpus=_usable_cpus(),
        backends={"threads": costs},
        source="calibrated",
        np_sort_ns_per_key=np_sort_ns,
        **compute,
        **disk,
    )
    profile.save(args.out)
    print(f"profile written to {args.out} ({profile.cpus} usable cores)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
