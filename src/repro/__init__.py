"""repro — a reproduction of *Optimizing Parallel Bitonic Sort*
(Ionescu & Schauser, IPPS 1997).

The package implements the paper's smart-layout parallel bitonic sort —
the remap-minimal data layout (Definition 7, Theorem 1), the pack/unpack
long-message remap machinery (§3.3), and the merge-based local computation
(Chapter 4, including Algorithm 2's O(log n) bitonic minimum) — together
with every substrate the evaluation needs: a LogP/LogGP-costed simulated
distributed-memory machine standing in for the 64-node Meiko CS-2, the
Blocked-Merge and Cyclic-Blocked baselines, and long-message parallel radix
and sample sorts for the cross-algorithm comparison.

Quickstart — one front door over every substrate::

    from repro import make_keys, sort

    keys = make_keys(1 << 20)                 # 1M uniform 31-bit keys
    report = sort(keys, P=32)                 # LogGP-simulated Meiko CS-2
    print(report.stats.us_per_key, "simulated us/key")

    report = sort(keys, P=8, backend="threads", trace=True)  # real SPMD
    print(report.phases.describe())           # measured/simulated/predicted

The class-per-algorithm interface underneath
(``SmartBitonicSort().run(keys, P)`` etc.) remains available for
fine-grained control over message modes and machine specs.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.api import SORT_ALGORITHMS, SORT_BACKENDS, SortReport, sort
from repro.errors import (
    CommunicationError,
    ConfigurationError,
    CorruptPayloadError,
    LayoutError,
    PeerFailedError,
    ReproError,
    ScheduleError,
    SizeError,
    SpmdTimeoutError,
    VerificationError,
)
from repro.faults import (
    ChaosReport,
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    ReliableComm,
    run_chaos_sort,
)
from repro.harness import run_experiment
from repro.layouts import (
    blocked_layout,
    build_schedule,
    cyclic_layout,
    smart_layout,
    smart_schedule,
)
from repro.machine import Machine, RunStats
from repro.model import GENERIC_CLUSTER, MEIKO_CS2, LogGPParams, LogPParams, MachineSpec
from repro.sorts import (
    BlockedMergeBitonicSort,
    CyclicBlockedBitonicSort,
    ParallelRadixSort,
    ParallelSampleSort,
    SmartBitonicSort,
    SortResult,
)
from repro.fft import ParallelFFT
from repro.records import sort_records
from repro.theory import best_algorithm, counts_for, predict
from repro.trace import PhaseReport, Tracer, build_phase_report, write_chrome_trace
from repro.utils.rng import make_keys

# Imported for its side effect: the exit-time sweep of spill directories
# whose owning process died.
from repro.extsort import spill as _spill  # noqa: F401

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # the front door
    "sort",
    "SortReport",
    "SORT_ALGORITHMS",
    "SORT_BACKENDS",
    # tracing & observability
    "Tracer",
    "PhaseReport",
    "build_phase_report",
    "write_chrome_trace",
    # errors
    "ReproError",
    "ConfigurationError",
    "SizeError",
    "LayoutError",
    "ScheduleError",
    "CommunicationError",
    "PeerFailedError",
    "SpmdTimeoutError",
    "CorruptPayloadError",
    "VerificationError",
    # fault injection & tolerance
    "FaultPlan",
    "FaultInjector",
    "ReliableComm",
    "CheckpointStore",
    "ChaosReport",
    "run_chaos_sort",
    # machine & model
    "Machine",
    "RunStats",
    "MachineSpec",
    "LogPParams",
    "LogGPParams",
    "MEIKO_CS2",
    "GENERIC_CLUSTER",
    # layouts
    "blocked_layout",
    "cyclic_layout",
    "smart_layout",
    "smart_schedule",
    "build_schedule",
    # sorts
    "SmartBitonicSort",
    "CyclicBlockedBitonicSort",
    "BlockedMergeBitonicSort",
    "ParallelRadixSort",
    "ParallelSampleSort",
    "SortResult",
    # extensions
    "ParallelFFT",
    "sort_records",
    # analysis & harness
    "counts_for",
    "best_algorithm",
    "predict",
    "run_experiment",
    "make_keys",
]
