"""The benchmark trajectory harness.

Every performance PR needs a baseline to beat and a record that it beat
it.  :func:`run_bench` measures, on the *host* clock (not the simulated
one):

* **end-to-end** — the real SPMD sorts
  (:func:`~repro.runtime.spmd_bitonic_sort` and
  :func:`~repro.runtime.spmd_sample_sort`) across runtime backends,
  problem sizes, and variants (fused + group-scoped collectives, the
  unfused world-wide baseline, and the splitter-driven sample sort),
  cross-checking that every backend × variant produces byte-identical
  output;
* **kernel hot paths** — the local radix sort and the batched bitonic
  merge, each timed against its *legacy* implementation (kept here,
  verbatim, for honest A/B comparison), plus cold-vs-cached remap-plan
  construction;
* **per-phase breakdown** — one extra *traced* (untimed) run per backend
  and size attaches exclusive per-category µs and the world-summed trace
  counters to each end-to-end record, so a perf PR can claim it moved a
  *specific* phase, not just the total.  The timed repetitions themselves
  run untraced — tracing never touches the numbers;
* **service warm vs cold** — the same request through a running
  :class:`~repro.service.SortService` (warm world pool, candidate-P
  sweep) against the cold spawn-per-call front door, with a planner
  audit: does the LogGP planner's chosen ``P`` match the best measured
  one per ``(backend, N)`` point?

The result is a machine-readable JSON document (``BENCH_pr<k>.json`` at
the repo root by convention) with enough host metadata (CPU count,
platform, library versions) to interpret the numbers later: a speedup
measured on a single-core container is not the speedup of the README.
``repro-bitonic bench`` is the CLI face; ``--quick`` shrinks sizes and
repetitions for CI smoke use.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.layouts.schedule import smart_schedule
from repro.localsort.bitonic_merge_sort import batched_bitonic_merge
from repro.localsort.radix import num_passes, radix_sort
from repro.remap.cache import RemapPlanCache
from repro.remap.plan import build_remap_plan
from repro.runtime import run_spmd, spmd_bitonic_sort, spmd_sample_sort
from repro.trace import Tracer, build_phase_report
from repro.utils.rng import make_keys

__all__ = ["run_bench", "write_bench", "BENCH_SCHEMA"]

#: /2 added the per-record ``phases`` + ``trace_counters`` breakdown;
#: /3 added the per-record communication ``variant`` (``fused`` /
#: ``grouped`` flags) and the ``fused_over_unfused`` speedup table;
#: /4 added the ``service`` section: warm-pool vs cold-spawn latency per
#: backend and size (with a candidate-P sweep), the ``warm_over_cold``
#: speedup table, and the planner-vs-measured ``planner_matches`` tally;
#: /5 added the overlapped-communication variant (``overlap`` /
#: ``chunks`` flags, per-record measured wait splits) and the
#: ``overlap_over_sync`` speedup tables;
#: /6 added the per-record ``algorithm`` field, the SPMD sample-sort
#: variant, the ``sample_over_bitonic`` crossover tables, and the
#: service section's cross-algorithm planner audit;
#: /7 added the optional ``adapt_replay`` section (record/replay of a
#: load trace against a frozen-profile service vs an adapting one, with
#: the ``adapted_over_static`` speedup CI gates at >= 1.0) — a /7 doc
#: carries *either* the end-to-end trajectory sections *or* the
#: adapt-replay section, and ``scripts/check_trace.py`` gates whichever
#: is present;
#: /8 added the out-of-core tier: the ``external`` section (spill-to-disk
#: external sort timed at budgets forcing 1 and several merge passes,
#: against the unconstrained in-memory local sort on the same keys) and
#: the ``external_over_inmem`` crossover table CI checks for presence and
#: positivity — where spilling starts to pay is the data, not a floor;
#: /9 dropped the overlapped variant with its record flags, per-record
#: wait splits and ``overlap_over_sync`` tables (the overlapped remap
#: pipeline was removed).
BENCH_SCHEMA = "repro-bitonic-bench/9"

#: World sizes the service section sweeps when measuring warm latency
#: (and the planner's candidate set for the match tally).
SERVICE_CANDIDATE_P = (1, 2, 4)

#: The variants every backend is benchmarked under
#: (``name, algorithm, fused, grouped``): the default fused +
#: group-scoped bitonic path, the unfused world-wide baseline it
#: replaced, and the splitter-driven sample sort (one redistribution;
#: the bitonic schedule flags do not apply to it).
BENCH_VARIANTS = (
    ("fused+group", "smart", True, True),
    ("unfused+world", "smart", False, False),
    ("sample", "sample", True, True),
)


# -- legacy kernels, kept verbatim for A/B ---------------------------------


def _legacy_radix_sort(keys, *, ascending=True, key_bits=32, radix_bits=8):
    """The pre-optimization radix sort: stable ``argsort`` per digit."""
    out = keys.copy()
    digit_mask = (1 << radix_bits) - 1
    for p in range(num_passes(key_bits, radix_bits)):
        shift = p * radix_bits
        digit = (out >> shift) & out.dtype.type(digit_mask)
        out = out[np.argsort(digit, kind="stable")]
    if not ascending:
        out = out[::-1].copy()
    return out


def _legacy_batched_merge(m, ascending, axis=1):
    """The pre-optimization batched merge: transposes (full copies) around
    the butterfly for ``axis=0``."""
    work = m.T.copy() if axis == 0 else m.copy()
    lanes, length = work.shape
    asc = np.broadcast_to(np.asarray(ascending, dtype=bool), (lanes,))
    asc_col = asc[:, None]
    size = length
    while size > 1:
        half = size // 2
        blocks = work.reshape(lanes, length // size, size)
        lo = blocks[:, :, :half]
        hi = blocks[:, :, half:]
        small = np.minimum(lo, hi)
        big = np.maximum(lo, hi)
        asc_blk = asc_col[:, :, None]
        lo[...] = np.where(asc_blk, small, big)
        hi[...] = np.where(asc_blk, big, small)
        size = half
    return work.T.copy() if axis == 0 else work


# -- timing ----------------------------------------------------------------


def _time(fn: Callable[[], Any], reps: int) -> Dict[str, float]:
    """Best-of and mean wall-clock seconds over ``reps`` calls (after one
    untimed warmup, which also absorbs lazy allocations and caches)."""
    fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return {
        "best_s": min(samples),
        "mean_s": sum(samples) / len(samples),
        "reps": reps,
    }


def _bench_end_to_end(
    sizes: Sequence[int],
    procs: int,
    backends: Sequence[str],
    reps: int,
    timeout: float,
) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    for N in sizes:
        keys = make_keys(N, seed=N % 104729)
        n = N // procs

        def rank_sort(c, algorithm, fused, grouped):
            shard = keys[c.rank * n : (c.rank + 1) * n]
            if algorithm == "sample":
                return spmd_sample_sort(c, shard)
            return spmd_bitonic_sort(c, shard, fused=fused, grouped=grouped)

        def sort_on(
            backend: str, algorithm: str, fused: bool, grouped: bool
        ) -> np.ndarray:
            def prog(c):
                return rank_sort(c, algorithm, fused, grouped)

            return np.concatenate(
                run_spmd(procs, prog, backend=backend, timeout=timeout)
            )

        def traced_phases(
            backend: str, algorithm: str, fused: bool, grouped: bool
        ) -> Dict[str, Any]:
            # One separate traced run; the timed reps above stay untraced
            # so the span bookkeeping can never contaminate the timings.
            def prog(c):
                c.tracer = Tracer(c.rank)
                rank_sort(c, algorithm, fused, grouped)
                return c.tracer

            tracers = run_spmd(procs, prog, backend=backend, timeout=timeout)
            rep = build_phase_report(tracers=tracers, P=procs, n=n)
            return {
                "phases": rep.measured_us or {},
                "trace_counters": rep.counters,
            }

        reference: Optional[bytes] = None
        for backend in backends:
            for variant, algorithm, fused, grouped in BENCH_VARIANTS:
                output = sort_on(backend, algorithm, fused, grouped)
                if reference is None:
                    reference = output.tobytes()
                    if reference != np.sort(keys).tobytes():
                        raise ConfigurationError(
                            f"bench: backend {backend!r} [{variant}] "
                            f"mis-sorted {N} keys"
                        )
                elif output.tobytes() != reference:
                    raise ConfigurationError(
                        f"bench: backend {backend!r} [{variant}] output "
                        f"differs from the reference on {N} keys x "
                        f"{procs} ranks"
                    )
                timing = _time(
                    lambda: sort_on(backend, algorithm, fused, grouped),
                    reps,
                )
                records.append(
                    {
                        "backend": backend,
                        "variant": variant,
                        "algorithm": algorithm,
                        "fused": fused,
                        "grouped": grouped,
                        "keys": N,
                        "procs": procs,
                        **timing,
                        **traced_phases(backend, algorithm, fused, grouped),
                    }
                )
    return records


def _bench_kernels(sizes: Sequence[int], reps: int) -> Dict[str, Any]:
    out: Dict[str, Any] = {"radix": [], "merge": [], "plan": []}
    for N in sizes:
        keys = make_keys(N, seed=N % 104729)
        legacy = _time(lambda: _legacy_radix_sort(keys), reps)
        current = _time(lambda: radix_sort(keys), reps)
        np.testing.assert_array_equal(radix_sort(keys), _legacy_radix_sort(keys))
        out["radix"].append(
            {
                "keys": N,
                "legacy_argsort": legacy,
                "counting_scatter": current,
                "speedup": legacy["best_s"] / current["best_s"],
            }
        )
        # Column-lane merge on a square-ish power-of-two matrix: the shape
        # the crossing remap's second computation phase produces.
        length = 1 << (max(N, 4).bit_length() // 2)
        lanes = max(N // length, 1)
        mat = np.sort(
            make_keys(lanes * length, seed=N % 7919).reshape(length, lanes), axis=0
        )[::-1]  # descending columns are (trivially) bitonic
        np.testing.assert_array_equal(
            batched_bitonic_merge(mat, True, axis=0),
            _legacy_batched_merge(mat, True, axis=0),
        )
        legacy = _time(lambda: _legacy_batched_merge(mat, True, axis=0), reps)
        current = _time(lambda: batched_bitonic_merge(mat, True, axis=0), reps)
        out["merge"].append(
            {
                "shape": [length, lanes],
                "axis": 0,
                "legacy_two_copies": legacy,
                "single_copy": current,
                "speedup": legacy["best_s"] / current["best_s"],
            }
        )
        # Plan construction: a fresh build per phase/rank vs a warm cache.
        P = min(32, max(2, N >> 12))
        schedule = smart_schedule(N, P)
        pairs = []
        layout = schedule.initial_layout
        for phase in schedule.phases:
            pairs.append((layout, phase.layout))
            layout = phase.layout

        def build_all() -> None:
            for old, new in pairs:
                for r in range(P):
                    build_remap_plan(old, new, r)

        cache = RemapPlanCache()

        def cached_all() -> None:
            for old, new in pairs:
                for r in range(P):
                    cache.get(old, new, r)

        cold = _time(build_all, reps)
        warm = _time(cached_all, reps)
        out["plan"].append(
            {
                "keys": N,
                "procs": P,
                "phases": len(pairs),
                "rebuild_every_phase": cold,
                "plan_cache_warm": warm,
                "speedup": cold["best_s"] / warm["best_s"],
            }
        )
    return out


def _bench_service(
    sizes: Sequence[int],
    procs: int,
    backends: Sequence[str],
    reps: int,
    timeout: float,
) -> Dict[str, Any]:
    """Warm world pool vs cold spawn-per-call, plus the planner audit.

    For every ``(backend, N)`` point: the *cold* column times the front
    door :func:`repro.api.sort` (one fresh world per call, the pre-service
    behaviour), the *warm* columns time the same request through a
    running :class:`~repro.service.SortService` at every candidate world
    size — byte-identity against ``np.sort`` checked on every shape.
    The planner (default profile, same candidate set) is then audited:
    does its chosen ``P`` match the best *measured* warm config?
    """
    from repro.api import sort as api_sort
    from repro.service import Planner, SortService

    planner = Planner(candidate_P=SERVICE_CANDIDATE_P)
    records: List[Dict[str, Any]] = []
    warm_over_cold: Dict[str, Dict[str, float]] = {}
    matches = 0
    points = 0
    for backend in backends:
        warm_over_cold[backend] = {}
        with SortService(planner, timeout=timeout) as svc:
            for N in sizes:
                keys = make_keys(N, seed=N % 104729)
                expect = np.sort(keys).tobytes()
                cold = _time(
                    lambda: api_sort(
                        keys, procs, backend=backend,
                        verify=False, timeout=timeout,
                    ),
                    reps,
                )
                warm_by_P: Dict[str, Dict[str, float]] = {}
                for P in SERVICE_CANDIDATE_P:
                    if N % P:
                        continue
                    # Pinned to the smart bitonic sort so the warm-vs-cold
                    # and planner-P columns keep their schema-5 meaning;
                    # the algorithms section audits the routing.
                    out = svc.sort(
                        keys, algorithm="smart", backend=backend, P=P
                    )  # warms the world
                    if out.sorted_keys.tobytes() != expect:
                        raise ConfigurationError(
                            f"bench: warm service [{backend} x {P}] "
                            f"mis-sorted {N} keys"
                        )
                    warm_by_P[str(P)] = _time(
                        lambda: svc.sort(
                            keys, algorithm="smart", backend=backend, P=P
                        ),
                        reps,
                    )
                best_P = int(
                    min(warm_by_P, key=lambda p: warm_by_P[p]["best_s"])
                )
                planner_P = planner.plan(
                    N, backend=backend, algorithm="smart"
                ).P
                points += 1
                matches += planner_P == best_P
                warm_best = warm_by_P[str(planner_P)]["best_s"]
                warm_over_cold[backend][str(N)] = cold["best_s"] / warm_best
                records.append(
                    {
                        "backend": backend,
                        "keys": N,
                        "cold_procs": procs,
                        "cold": cold,
                        "warm_by_P": warm_by_P,
                        "best_measured_P": best_P,
                        "planner_P": planner_P,
                        "planner_match": planner_P == best_P,
                    }
                )
    return {
        "candidate_P": list(SERVICE_CANDIDATE_P),
        "records": records,
        "warm_over_cold": warm_over_cold,
        "planner_matches": matches,
        "planner_points": points,
    }


def _bench_algorithms(
    sizes: Sequence[int],
    backends: Sequence[str],
    reps: int,
    timeout: float,
) -> Dict[str, Any]:
    """The cross-algorithm planner audit: smart bitonic vs sample sort.

    For every ``(backend, N)`` shape, both algorithms run warm through a
    service at a *forced* world size (the largest candidate ``P`` — on
    one rank the two are the same local sort and the routing question is
    moot).  The planner is then asked to route the same shape
    (``algorithm`` left free, same forced ``P``) and audited against the
    best *measured* algorithm.  ``sample_over_bitonic`` > 1 means the
    sample sort's single redistribution beat the bitonic remap sequence
    on that shape.
    """
    from repro.service import Planner, SortService

    planner = Planner(candidate_P=SERVICE_CANDIDATE_P)
    audit_P = max(SERVICE_CANDIDATE_P)
    records: List[Dict[str, Any]] = []
    crossover: Dict[str, Dict[str, float]] = {}
    matches = 0
    points = 0
    for backend in backends:
        crossover[backend] = {}
        with SortService(planner, timeout=timeout) as svc:
            for N in sizes:
                if N % audit_P:
                    continue
                keys = make_keys(N, seed=N % 104729)
                expect = np.sort(keys).tobytes()
                by_algo: Dict[str, Dict[str, float]] = {}
                for algo in ("smart", "sample"):
                    out = svc.sort(
                        keys, algorithm=algo, backend=backend, P=audit_P
                    )  # warms the world
                    if out.sorted_keys.tobytes() != expect:
                        raise ConfigurationError(
                            f"bench: warm service [{algo}:{backend} x "
                            f"{audit_P}] mis-sorted {N} keys"
                        )
                    by_algo[algo] = _time(
                        lambda a=algo: svc.sort(
                            keys, algorithm=a, backend=backend, P=audit_P
                        ),
                        reps,
                    )
                best_algo = min(
                    by_algo, key=lambda a: by_algo[a]["best_s"]
                )
                planned = planner.plan(
                    N, backend=backend, P=audit_P
                ).algorithm
                points += 1
                matches += planned == best_algo
                crossover[backend][str(N)] = (
                    by_algo["smart"]["best_s"] / by_algo["sample"]["best_s"]
                )
                records.append(
                    {
                        "backend": backend,
                        "keys": N,
                        "P": audit_P,
                        "by_algorithm": by_algo,
                        "best_measured_algorithm": best_algo,
                        "planner_algorithm": planned,
                        "planner_match": planned == best_algo,
                    }
                )
    return {
        "P": audit_P,
        "records": records,
        "sample_over_bitonic": crossover,
        "planner_matches": matches,
        "planner_points": points,
    }


def _bench_external(sizes: Sequence[int], reps: int) -> Dict[str, Any]:
    """The out-of-core A/B: spill-to-disk external sort vs the in-memory
    local sort on the same keys.

    Each size runs at two constrained budgets — one sized so the input
    splits into runs but merges in a single pass, one with the fan-in
    shrunk to force cascaded merge passes — against the unconstrained
    in-memory sort.  ``external_over_inmem`` < 1 records what a byte
    through the filesystem costs relative to memory; the table is the
    measured twin of :func:`repro.theory.predict_external`'s closed form.
    """
    from repro.extsort import external_sort

    records: List[Dict[str, Any]] = []
    crossover: Dict[str, float] = {}
    for N in sizes:
        keys = make_keys(N, seed=N % 104729)
        expect = np.sort(keys)
        inmem = _time(lambda: np.sort(keys), reps)
        # Budget = nbytes/4: the working set (2x nbytes) splits into ~8
        # runs, well under the default fan-in — a single merge pass.
        budget = max(keys.nbytes // 4, 64)
        out, rep_single = external_sort(keys, budget)
        if out.tobytes() != expect.tobytes():
            raise ConfigurationError(
                f"bench: external sort mis-sorted {N} keys at "
                f"budget {budget}"
            )
        single = _time(lambda: external_sort(keys, budget), reps)
        # Same budget, fan-in 2: every merge level becomes its own pass.
        out, rep_multi = external_sort(keys, budget, fan_in=2)
        if out.tobytes() != expect.tobytes():
            raise ConfigurationError(
                f"bench: multi-pass external sort mis-sorted {N} keys"
            )
        multi = _time(lambda: external_sort(keys, budget, fan_in=2), reps)
        crossover[str(N)] = inmem["best_s"] / single["best_s"]
        records.append(
            {
                "keys": N,
                "budget_bytes": budget,
                "inmem": inmem,
                "single_pass": {
                    **single,
                    "runs": rep_single.runs,
                    "merge_passes": rep_single.merge_passes,
                    "spill_bytes": rep_single.spill_bytes,
                    "peak_resident_bytes": rep_single.peak_resident_bytes,
                },
                "multi_pass": {
                    **multi,
                    "fan_in": 2,
                    "runs": rep_multi.runs,
                    "merge_passes": rep_multi.merge_passes,
                    "spill_bytes": rep_multi.spill_bytes,
                    "peak_resident_bytes": rep_multi.peak_resident_bytes,
                },
            }
        )
    return {"records": records, "external_over_inmem": crossover}


def run_bench(
    quick: bool = False,
    sizes: Optional[Sequence[int]] = None,
    procs: int = 8,
    backends: Sequence[str] = ("threads", "procs"),
    reps: Optional[int] = None,
    timeout: float = 300.0,
) -> Dict[str, Any]:
    """Run the benchmark trajectory and return the JSON-ready payload.

    ``quick`` shrinks the defaults to CI-smoke scale.  The cross-backend
    byte-identity check always runs; a mismatch raises
    :class:`~repro.errors.ConfigurationError` rather than recording
    timings for a wrong sort.
    """
    if sizes is None:
        sizes = [1 << 14, 1 << 16] if quick else [1 << 16, 1 << 18, 1 << 20]
    if reps is None:
        reps = 1 if quick else 3
    procs = max(1, procs if not quick else min(procs, 4))
    cpu_count = _usable_cpus()
    end_to_end = _bench_end_to_end(sizes, procs, backends, reps, timeout)
    kernels = _bench_kernels(sizes, reps)
    service = _bench_service(sizes, procs, backends, reps, timeout)
    service["algorithms"] = _bench_algorithms(sizes, backends, reps, timeout)
    external = _bench_external(sizes, reps)
    speedups: Dict[str, Dict[str, float]] = {}
    default_variant = BENCH_VARIANTS[0][0]
    if "threads" in backends:
        threads_best = {
            r["keys"]: r["best_s"]
            for r in end_to_end
            if r["backend"] == "threads" and r["variant"] == default_variant
        }
        for backend in backends:
            if backend == "threads":
                continue
            speedups[f"{backend}_over_threads"] = {
                str(r["keys"]): threads_best[r["keys"]] / r["best_s"]
                for r in end_to_end
                if r["backend"] == backend and r["variant"] == default_variant
            }
    # The fused A/B: fused+group against the unfused world-wide
    # baseline, per backend and size.
    for backend in backends:
        unfused_best = {
            r["keys"]: r["best_s"]
            for r in end_to_end
            if r["backend"] == backend and r["variant"] == "unfused+world"
        }
        speedups[f"{backend}_fused_over_unfused"] = {
            str(r["keys"]): unfused_best[r["keys"]] / r["best_s"]
            for r in end_to_end
            if r["backend"] == backend and r["variant"] == default_variant
        }
    # The algorithm crossover: the sample sort against the default
    # bitonic path, per backend and size — > 1 where one splitter-driven
    # redistribution beats the bitonic remap sequence, < 1 where the
    # sampling overhead wins.  This is the measured twin of
    # repro.theory.crossover_keys_per_proc.
    for backend in backends:
        bitonic_best = {
            r["keys"]: r["best_s"]
            for r in end_to_end
            if r["backend"] == backend and r["variant"] == default_variant
        }
        speedups[f"{backend}_sample_over_bitonic"] = {
            str(r["keys"]): bitonic_best[r["keys"]] / r["best_s"]
            for r in end_to_end
            if r["backend"] == backend and r["variant"] == "sample"
        }
    return {
        "schema": BENCH_SCHEMA,
        "host": {
            "cpu_count": cpu_count,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "note": (
                "speedup targets for the procs backend assume >= 4 usable "
                "cores; on fewer cores its numbers chiefly measure overhead"
            ),
        },
        "config": {
            "quick": quick,
            "sizes": list(sizes),
            "procs": procs,
            "backends": list(backends),
            "reps": reps,
        },
        "end_to_end": end_to_end,
        "end_to_end_speedup": speedups,
        "kernels": kernels,
        "service": service,
        "external": external["records"],
        "external_over_inmem": external["external_over_inmem"],
        "outputs_match": True,  # a mismatch raises before we get here
    }


def _usable_cpus() -> int:
    try:
        import os

        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover — non-Linux
        import os

        return os.cpu_count() or 1


def write_bench(payload: Dict[str, Any], path: str) -> None:
    """Write the payload as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
