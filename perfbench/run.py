"""The benchmark: every front door of the sort against the np.sort floor.

    python3 perfbench/run.py          # every workload
    python3 perfbench/run.py --workload rpc-small --seed 1 \
        --seconds 10 --trace 0

Without ``--workload`` (or with ``--workload all``) each workload runs in
a fresh process of its own, so peak memory and warm pools do not carry
over, and a table of every workload's metrics follows.

With ``--trace 0`` a workload is set up ``SETUPS`` times, warmed up, then
driven as a closed loop measured for ``--seconds``.  Every reply is
compared byte for byte with ``np.sort`` of its input, outside the timed
region.  It prints the seven end-to-end metrics:

    setup_s             s         start of set-up to the first verified
                                  reply (median of the set-ups)
    latency_p50_ms      ms        median latency, call to verified return
    latency_tail_ms     ms        highest percentile with at least ten
                                  samples beyond it, per block of 200
                                  requests, median over the blocks
                                  (percentile and counts printed beside)
    throughput_mkeys_s  Mkeys/s   keys sorted per second of the phase
    floor_x             x         summed latency over summed np.sort time
                                  of the same inputs (see closed_loop)
    error_rate          fraction  requests that raised, were rejected or
                                  came back wrong, over those attempted
    peak_rss_mb         MiB       peak resident memory of the sorting
                                  processes: the caller on the library
                                  doors; on the wire, summed over shards,
                                  each shard's own peak plus the largest
                                  peak among its rank processes

The share of CPU time the host took from this machine (steal) during the
measured phase is printed beside them: other tenants of the host slow
whole runs, and this tells such a run from a regression.

With ``--trace 1`` the workload runs untraced and then traced, each for
half of ``--seconds``, and then the per-layer ladder (``ladder.py``).  It
prints the ladder table, the per-layer metrics and ``trace.overhead``,
and writes every span as one Chrome trace under ``.perfbench/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or the
per-layer ones when traced.  ``error_rate`` is ``failed / attempted``.
Each result is stamped with the usable CPUs, the Python and NumPy
versions, the seed and the config hash, and written together with its
failures, served plans and leak check to ``.perfbench/result-*.json``.
After each workload, a leaked ``rsrtshm_*``/``rspmd*`` segment, spill
directory or child process fails the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import subprocess
import sys
import threading
import traceback
from collections import Counter
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from config import SETUPS, VARIANTS, WARMUP_S, WORKLOADS, Workload, config_hash
from spans import Spans, lane_for
from stats import Tally, block_tail, ladder_deltas, median, same_bytes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Results, traces, cold-start inputs and spill files; inside the checkout.
RUN_DIR = os.path.join(ROOT, ".perfbench")
TMP_DIR = os.path.join(RUN_DIR, "tmp")

#: (name, unit) of the end-to-end metrics in the result line.  The seventh,
#: ``error_rate``, is 0 on a correct program, so it travels as
#: ``attempted``/``failed`` instead.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_mkeys_s", "Mkeys/s"),
    ("floor_x", "x"),
    ("peak_rss_mb", "MiB"),
)

#: (name, unit) of the per-layer metrics of the traced run.
PER_LAYER = (
    ("localsort.np_sort_ms", "ms"),
    ("localsort.radix_sort_ms", "ms"),
    ("localsort.p_way_merge_ms", "ms"),
    ("runtime.spawn_ms", "ms"),
    ("runtime.dispatch_ms", "ms"),
    ("runtime.warm_sort_ms", "ms"),
    ("runtime.cold_sort_ms", "ms"),
    ("runtime.local_sort_ms", "ms"),
    ("runtime.merge_ms", "ms"),
    ("runtime.pack_ms", "ms"),
    ("runtime.transfer_ms", "ms"),
    ("runtime.wait_ms", "ms"),
    ("api.overhead_ms", "ms"),
    ("api.verify_ms", "ms"),
    ("planner.plan_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.batch_size", "count"),
    ("net.overhead_ms", "ms"),
    ("net.codec_ms", "ms"),
    ("net.health_ms", "ms"),
    ("net.attempts", "count"),
    ("net.shm_share", "fraction"),
    ("router.overhead_ms", "ms"),
    ("router.failovers", "count"),
    ("router.imbalance", "x"),
    ("extsort.sort_ms", "ms"),
    ("extsort.runs", "count"),
    ("extsort.merge_passes", "count"),
    ("extsort.spill_mb", "MiB"),
    ("extsort.peak_resident_mb", "MiB"),
    ("trace.overhead", "x"),
)

PROC_STAT = "/proc/stat"
SHM_DIR = "/dev/shm"
SHM_PREFIXES = ("rsrtshm_", "rspmd")


# -- inputs ----------------------------------------------------------------


class Inputs:
    """The workload's inputs, made from the seed alone.  Request ``k`` has
    the shape ``w.shape_of(k)`` and uses that shape's variants in turn."""

    def __init__(self, w: Workload, seed: int):
        from repro.utils.rng import make_keys

        self.w = w
        self.items: Dict[Tuple[int, str, int], np.ndarray] = {}
        shapes = dict.fromkeys(w.shape_of(k) for k in range(w.period))
        for j, (size, dist) in enumerate(shapes):
            for v in range(VARIANTS):
                entropy = np.random.SeedSequence([seed, j, v])
                keys = make_keys(
                    size, distribution=dist,
                    seed=int(entropy.generate_state(1)[0]),
                )
                self.items[(size, dist, v)] = keys

    def request(self, k: int) -> Tuple[str, tuple, np.ndarray]:
        """``(shape label, input id, keys)`` of request ``k``."""
        size, dist = self.w.shape_of(k)
        item = (size, dist, (k // self.w.period) % VARIANTS)
        return f"{size}/{dist}", item, self.items[item]

    def cycle(self) -> List[Tuple[int, int]]:
        """``(count, first request index)`` of each shape in one cycle."""
        counts = Counter(self.w.shape_of(k) for k in range(self.w.period))
        first = {}
        for k in range(self.w.period):
            first.setdefault(self.w.shape_of(k), k)
        return [(counts[shape], first[shape]) for shape in counts]


# -- the closed loop -------------------------------------------------------


def closed_loop(door, inputs: Inputs, callers: int, seconds: float,
                tally: Tally, spans: Optional[Spans] = None) -> float:
    """Each caller sends its next request once the previous one returned,
    until ``seconds`` have passed; returns the phase's wall seconds.
    After each reply, outside its latency, the caller compares it with
    ``np.sort`` of the same input, then times ``np.sort`` of that input
    once more, now in cache: the floor, on the host as it is at that
    moment.  ``spans`` turns tracing on."""
    lock = threading.Lock()
    issued = [0]
    reported: Set[str] = set()
    crashed: List[BaseException] = []
    traced = spans is not None

    def next_index() -> int:
        with lock:
            issued[0] += 1
            return issued[0] - 1

    def caller(c: int) -> None:
        while perf_counter() < stop_at:
            k = next_index()
            shape, item, keys = inputs.request(k)
            rid = f"r{k}"
            span = spans.open("request", door.layer, rid, lane=lane_for(c)) \
                if traced else -1
            failure = None
            t0 = perf_counter()
            try:
                out, result = door.call(keys, traced)
                latency = perf_counter() - t0
            except Exception as exc:  # noqa: BLE001 — each one is counted
                failure = exc
            if traced:
                spans.close(span)
            if failure is not None:
                kind = type(failure).__name__
                tally.error(shape, kind)
                with lock:
                    first = kind not in reported
                    reported.add(kind)
                if first:
                    traceback.print_exception(failure, file=sys.stderr)
                continue
            if traced:
                door.fold(spans, result, span, rid, c)
            expected = np.sort(keys)
            t0 = perf_counter()
            np.sort(keys)
            floor_s = perf_counter() - t0
            tally.reply(
                shape, latency, same_bytes(out, expected), item, floor_s,
                keys.size, door.plan(result), door.info(result, latency),
            )

    def guarded(c: int) -> None:
        try:
            caller(c)
        except BaseException as exc:  # noqa: BLE001 — re-raised after join
            crashed.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(c,), name=f"caller{c}")
        for c in range(callers)
    ]
    begun = perf_counter()
    stop_at = begun + seconds
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if crashed:
        raise crashed[0]
    return perf_counter() - begun


def cpu_jiffies() -> Tuple[int, int]:
    """``(steal, total)`` CPU time of this machine so far, in jiffies."""
    with open(PROC_STAT, encoding="ascii") as fh:
        fields = [int(v) for v in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


# -- leak checks -------------------------------------------------------------


def shm_segments() -> Set[str]:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIXES)}
    except OSError:
        return set()


def _stat(pid: str) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` fields after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii",
                  errors="replace") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def descendants() -> Dict[int, str]:
    """Every live process below this one: pid -> start time (so a reused
    pid is not mistaken for a survivor)."""
    children: Dict[int, List[Tuple[int, str]]] = {}
    for name in os.listdir("/proc"):
        fields = _stat(name) if name.isdigit() else None
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(
                (int(name), fields[19])
            )
    found: Dict[int, str] = {}
    frontier = [os.getpid()]
    while frontier:
        for pid, start in children.get(frontier.pop(), ()):
            if pid not in found:
                found[pid] = start
                frontier.append(pid)
    return found


def leaks(shm_before: Set[str], spill_before: Set[str],
          tree: Dict[int, str]) -> List[str]:
    """What the workload left behind; leaked processes are killed."""
    from repro.extsort import live_spill_dirs

    found = []
    shm = sorted(shm_segments() - shm_before)
    if shm:
        found.append(f"shm segments {shm}")
    spill = sorted(set(live_spill_dirs()) - spill_before)
    if spill:
        found.append(f"spill directories {spill}")
    alive = {
        pid for pid, start in tree.items()
        if (_stat(str(pid)) or [None] * 20)[19] == start
    } | set(descendants())
    for pid in sorted(alive):
        found.append(f"child process {pid}")
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return found


# -- one workload ------------------------------------------------------------


def stamp(w: Workload, args) -> dict:
    return {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": config_hash(w, args.seconds),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
    }


def print_tally(label: str, tally: Tally) -> None:
    for shape, plans in sorted(tally.plans.items()):
        served = ", ".join(f"{p} x{n}" for p, n in plans.most_common())
        p50 = median(tally.by_shape[shape]) * 1e3
        print(f"  {label} {shape:<18} p50 {p50:9.3f} ms  served {served}")
    for (shape, kind), n in sorted(tally.failures.items()):
        print(f"  {label} FAILED  {shape}: {kind} x{n}")


def end_to_end(tally: Tally, wall: float, setups: Sequence[float],
               peak_rss_mb: float) -> Tuple[Dict[str, float], dict]:
    """The end-to-end metrics, and how the tail and error rate read."""
    pct, tail_s, n, blocks = block_tail(tally.latencies)
    metrics = {
        "setup_s": median(setups),
        "latency_p50_ms": median(tally.latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "throughput_mkeys_s": tally.keys / wall / 1e6,
        "floor_x": tally.floor_x(),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "latency_tail_pct": pct, "latency_block": n,
        "latency_blocks": blocks, "latency_samples": len(tally.latencies),
        "error_rate": tally.error_rate, "attempted": tally.attempted,
        "failed": tally.failed, "setups": list(setups),
    }
    return metrics, notes


def run_ladder(w: Workload, door, inputs: Inputs, spans: Spans,
               traced: Tally) -> Tuple[Dict[str, float], list, bool]:
    """Per-layer metrics, the door's ladder rows and whether every rung's
    output was correct."""
    from ladder import (LADDERS, Ladder, breakdown, router_breakdown,
                        weighted)

    ladder = Ladder(w, door, spans, SRC)
    try:
        rungs, layers = [], []
        for count, k in inputs.cycle():
            shape, _item, keys = inputs.request(k)
            rung, layer = ladder.measure(keys, np.sort(keys),
                                         f"ladder {shape}")
            rungs.append((count, rung))
            layers.append((count, layer))
        rung = weighted(rungs)
        layer = weighted(layers)
        layer["net.health_ms"] = ladder.health_ms()
        layer.update(breakdown(
            traced.infos if w.door == "wire" else ladder.client_infos
        ))
        if getattr(door, "router", None) is not None:
            layer.update(router_breakdown(traced.infos, door.router))
        else:
            layer.update(router_breakdown(ladder.router_infos, ladder.router))
        rows = ladder_deltas(
            [(name, rung[name]) for name in LADDERS[w.door]], rung["np.sort"]
        )
        return layer, rows, ladder.ok
    finally:
        ladder.close()


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(TMP_DIR, exist_ok=True)
    # Spill files and any temporary file stay inside the checkout.
    os.environ["TMPDIR"] = os.environ["REPRO_SPILL_ROOT"] = TMP_DIR
    sys.path.insert(0, SRC)
    from doors import make_door
    from repro.extsort import live_spill_dirs

    st = stamp(w, args)
    print(f"perfbench {w.name}: seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("  provenance  " + " ".join(
        f"{k}={st[k]}" for k in ("cpus", "python", "numpy", "seed", "config")
    ))
    inputs = Inputs(w, args.seed)
    shm_before = shm_segments()
    spill_before = set(live_spill_dirs())
    door = make_door(w, SRC, RUN_DIR)
    tally, traced = Tally(), Tally()
    spans = Spans()
    try:
        _shape, _item, keys0 = inputs.request(0)
        setups = [
            door.setup(keys0, np.sort(keys0))
            for _ in range(1 if args.trace else SETUPS)
        ]
        closed_loop(door, inputs, w.callers, WARMUP_S, Tally())
        # A traced run splits its time between the untraced and the traced
        # phase, which give trace.overhead.
        phase_s = args.seconds / 2 if args.trace else args.seconds
        steal0, total0 = cpu_jiffies()
        wall = closed_loop(door, inputs, w.callers, phase_s, tally)
        steal1, total1 = cpu_jiffies()
        if args.trace:
            closed_loop(door, inputs, w.callers, phase_s, traced, spans)
            layer, rows, ladder_ok = run_ladder(w, door, inputs, spans, traced)
        tree = descendants()
    finally:
        door.teardown()
    found = leaks(shm_before, spill_before, tree)

    metrics, notes = end_to_end(tally, wall, setups, door.peak_rss_mb)
    notes["host_steal"] = (steal1 - steal0) / max(1, total1 - total0)
    attempted, failed = tally.attempted, tally.failed
    ok = not found
    print_tally("untraced", tally)
    if args.trace:
        print_tally("traced", traced)
        layer["trace.overhead"] = (
            median(traced.latencies) / median(tally.latencies)
        )
        attempted += traced.attempted
        failed += traced.failed
        ok = ok and ladder_ok
        path = os.path.join(
            RUN_DIR, f"trace-{w.name}-seed{args.seed}.json"
        )
        spans.write_chrome(path)
        print(f"  ladder ({w.door} door), ms and multiples of np.sort:")
        for name, ms, delta, x in rows:
            print(f"    {name:<34} {ms:11.3f} ms {delta:+11.3f} ms "
                  f"{x:10.1f} x")
        if not ladder_ok:
            print("  LADDER: a rung's output differed from np.sort")
        report = [(name, unit, layer[name]) for name, unit in PER_LAYER]
        print(f"  spans written to {path}")
    else:
        report = [(name, unit, metrics[name]) for name, unit in END_TO_END]
    for name, unit, value in report:
        extra = ""
        if name == "latency_tail_ms":
            extra = (f"  (p{notes['latency_tail_pct']:.1f} of "
                     f"{notes['latency_block']} requests, median of "
                     f"{notes['latency_blocks']} blocks)")
        print(f"  {name:<26} {value:14.4f} {unit}{extra}")
        if name == "floor_x" and not args.trace:
            print(f"  {'error_rate':<26} {notes['error_rate']:14.4f} "
                  f"fraction  ({notes['failed']} of {notes['attempted']})")
    print(f"  host steal  {notes['host_steal']:.1%} of CPU time in the "
          "measured phase")
    print("  leaks       " + ("; ".join(found) if found else "none"))
    ok = ok and failed == 0

    values = [value for _n, _u, value in report]
    if not all(math.isfinite(v) for v in values):
        print("a metric could not be measured", file=sys.stderr)
        return 1
    result = {
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, unit, value in report
        },
    }
    record = {
        "provenance": st, "result": result, "notes": notes,
        "failures": {
            f"{s} {k}": n
            for (s, k), n in (tally.failures + traced.failures).items()
        },
        "plans": {s: dict(p) for s, p in tally.plans.items()},
        "leaks": found,
    }
    if args.trace:
        record["ladder"] = rows
    name = f"result-{w.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RUN_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


# -- every workload ----------------------------------------------------------


def run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print("\n" + " " * 26 + "".join(f"{w:>16}" for w in results))
    for metric in names:
        print(f"{metric:<26}" + "".join(
            f"{r['metrics'][metric]['value']:16.4f}" for r in results.values()
        ))
    print(f"{'error_rate':<26}" + "".join(
        f"{r['failed'] / r['attempted']:16.4f}" for r in results.values()
    ))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{m}": v for w, r in results.items()
            for m, v in r["metrics"].items()
        },
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
