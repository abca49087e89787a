"""Closed-form execution-time predictions for the bitonic sorts.

The simulator charges time from deterministic counts, so (apart from idle
waits at barriers) a run's per-category time can be predicted *exactly*
without executing any data movement.  This module rebuilds those sums from
the schedule algebra alone:

* it is the per-algorithm generalization of §3.4's communication formulas
  to total time (computation + communication), and
* it lets EXPERIMENTS.md evaluate the paper's full problem sizes (1M keys
  per processor) in microseconds of analysis instead of minutes of
  simulation.

``tests/test_predict.py`` asserts that these predictions equal the
simulator's mean per-processor breakdown to float precision for every
category, for all three bitonic algorithms in all message modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.layouts.schedule import (
    build_schedule,
    cyclic_blocked_schedule,
)
from repro.localsort.radix import num_passes
from repro.machine.metrics import (
    COMM_CATEGORIES,
    COMPUTE_CATEGORIES,
    IO_CATEGORIES,
)
from repro.model.machines import MEIKO_CS2, MachineSpec
from repro.utils.bits import ilog2
from repro.utils.validation import require_sizes

__all__ = ["PredictedTime", "predict_smart", "predict_cyclic_blocked",
           "predict_blocked_merge", "predict_external", "predict"]


@dataclass
class PredictedTime:
    """Predicted per-processor time by category, in microseconds."""

    algorithm: str
    N: int
    P: int
    times: Dict[str, float] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.N // self.P

    @property
    def computation(self) -> float:
        return sum(self.times.get(c, 0.0) for c in COMPUTE_CATEGORIES)

    @property
    def communication(self) -> float:
        return sum(self.times.get(c, 0.0) for c in COMM_CATEGORIES)

    @property
    def io(self) -> float:
        """Disk time of the out-of-core path (zero for in-memory sorts)."""
        return sum(self.times.get(c, 0.0) for c in IO_CATEGORIES)

    @property
    def total(self) -> float:
        """Busy time (excludes barrier waits, which depend on skew; the
        smart schedule is perfectly balanced so busy time ≈ makespan)."""
        return self.computation + self.communication + self.io

    @property
    def us_per_key(self) -> float:
        return self.total / self.n

    def _add(self, category: str, micros: float) -> None:
        self.times[category] = self.times.get(category, 0.0) + micros


def _long_transfer(spec: MachineSpec, P_unused: int, msg_elements: int,
                   num_messages: int) -> float:
    """Sender + receiver busy 'transfer' time of one long-message remap for
    one processor sending/receiving ``num_messages`` messages of
    ``msg_elements`` keys: matches the simulator's per-message charging
    (injection ``o + (k-1)G``, gap padding to ``g`` between sends, ``o``
    per reception)."""
    if num_messages == 0:
        return 0.0
    net = spec.network
    nbytes = max(msg_elements * spec.key_bytes, 1)
    busy = net.o + (nbytes - 1) * net.G
    send = num_messages * busy + max(net.g - busy, 0.0) * (num_messages - 1)
    recv = num_messages * net.o
    return send + recv


def _short_transfer(spec: MachineSpec, volume: int) -> float:
    """The LogP short-message remap formula (§3.4.2) for one processor."""
    if volume == 0:
        return 0.0
    net = spec.network
    return net.L + 2.0 * net.o + (volume - 1) * max(net.g, 2.0 * net.o)


def _remap_comm_means(schedule, spec: MachineSpec, mode: str, fused: bool):
    """Mean-over-processors communication charges per remap, counted from
    the remap plans.  Needed when ``n < P``, where Lemma 4's uniform group
    structure does not hold positionally and per-processor message counts
    vary (see :meth:`RemapSchedule.volume_per_processor`).

    Yields ``(pack_mean, unpack_mean, transfer_mean)`` per remap.
    """
    from repro.remap.plan import build_remap_plan  # deferred: layering

    net = spec.network
    P = schedule.P
    n = schedule.N // P
    for old, new in schedule.transitions():
        pack = unpack = transfer = 0.0
        for r in range(P):
            plan = build_remap_plan(old, new, r)
            sent = plan.elements_sent
            if mode == "long":
                if fused:
                    pack += n * spec.compute.fused_pack
                else:
                    pack += sent * spec.compute.pack
                    unpack += sent * spec.compute.unpack
                busy_total = 0.0
                msgs = sorted(plan.send.items())
                for i, (_, idx) in enumerate(msgs):
                    nbytes = max(idx.size * spec.key_bytes, 1)
                    busy = net.o + (nbytes - 1) * net.G
                    busy_total += busy
                    if i + 1 < len(msgs) and busy < net.g:
                        busy_total += net.g - busy
                transfer += busy_total + net.o * len(plan.recv)
            else:
                transfer += _short_transfer(spec, sent)
        cache = spec.cache.factor(n)
        yield pack * cache / P, unpack * cache / P, transfer / P


def predict_smart(
    N: int,
    P: int,
    spec: MachineSpec = MEIKO_CS2,
    *,
    mode: str = "long",
    fused: bool = True,
    strategy: str = "head",
    key_bits: int = 32,
    radix_bits: int = 8,
) -> PredictedTime:
    """Predict the smart bitonic sort's per-processor busy time."""
    N, P, n = require_sizes(N, P)
    if mode not in ("long", "short"):
        raise ConfigurationError(f"mode must be 'long' or 'short', got {mode!r}")
    pt = PredictedTime("smart", N, P)
    costs = spec.compute
    cache = spec.cache.factor(n)
    passes = num_passes(key_bits, radix_bits)
    pt._add("local_sort", n * passes * costs.radix_pass * cache)
    if P == 1:
        return pt
    sched = build_schedule(N, P, strategy=strategy)
    if n >= P:
        # Balanced regime (Lemma 4): every processor's charges are equal.
        for bc in sched.bits_changed_per_remap():
            sent = n - (n >> bc)
            msgs = (1 << bc) - 1
            pt._add("address", n * costs.address * cache)
            if mode == "long":
                if fused:
                    pt._add("pack", n * costs.fused_pack * cache)
                else:
                    pt._add("pack", sent * costs.pack * cache)
                    pt._add("unpack", sent * costs.unpack * cache)
                pt._add("transfer", _long_transfer(spec, P, n >> bc, msgs))
            else:
                pt._add("transfer", _short_transfer(spec, sent))
            pt._add("merge", n * costs.merge * cache)  # one pass (§4.3)
    else:
        # n < P: message counts vary per processor; count from the plans.
        for pack, unpack, transfer in _remap_comm_means(
            sched, spec, mode, fused
        ):
            pt._add("address", n * costs.address * cache)
            pt._add("pack", pack)
            pt._add("unpack", unpack)
            pt._add("transfer", transfer)
            pt._add("merge", n * costs.merge * cache)
    return pt


def predict_cyclic_blocked(
    N: int,
    P: int,
    spec: MachineSpec = MEIKO_CS2,
    *,
    mode: str = "long",
    key_bits: int = 32,
    radix_bits: int = 8,
) -> PredictedTime:
    """Predict the cyclic-blocked baseline's per-processor busy time."""
    N, P, n = require_sizes(N, P)
    pt = PredictedTime("cyclic-blocked", N, P)
    costs = spec.compute
    cache = spec.cache.factor(n)
    passes = num_passes(key_bits, radix_bits)
    pt._add("local_sort", n * passes * costs.radix_pass * cache)
    if P == 1:
        return pt
    sched = cyclic_blocked_schedule(N, P)
    fused = mode == "long"
    for phase, bc in zip(sched.phases, sched.bits_changed_per_remap()):
        sent = n - (n >> bc)
        msgs = (1 << bc) - 1
        pt._add("address", n * costs.address * cache)
        if mode == "long":
            pt._add("pack", n * costs.fused_pack * cache)
            pt._add("transfer", _long_transfer(spec, P, n >> bc, msgs))
        else:
            pt._add("transfer", _short_transfer(spec, sent))
        if phase.layout.name == "cyclic":
            pt._add("merge", n * costs.merge * cache)
        else:
            pt._add("local_sort", n * passes * costs.radix_pass * cache)
    return pt


def predict_blocked_merge(
    N: int,
    P: int,
    spec: MachineSpec = MEIKO_CS2,
    *,
    mode: str = "long",
    key_bits: int = 32,
    radix_bits: int = 8,
) -> PredictedTime:
    """Predict the blocked-merge baseline's per-processor busy time."""
    N, P, n = require_sizes(N, P)
    pt = PredictedTime("blocked-merge", N, P)
    costs = spec.compute
    cache = spec.cache.factor(n)
    passes = num_passes(key_bits, radix_bits)
    pt._add("local_sort", n * passes * costs.radix_pass * cache)
    if P == 1:
        return pt
    lgP = ilog2(P)
    lgn = ilog2(n) if n > 1 else 0
    for k in range(1, lgP + 1):
        for _ in range(k):  # the k remote steps of stage lg n + k
            if mode == "long":
                pt._add("transfer", _long_transfer(spec, P, n, 1))
            else:
                pt._add("transfer", _short_transfer(spec, n))
            pt._add("compare_exchange", n * costs.compare_exchange * cache)
        if lgn > 0:
            pt._add("local_sort", n * passes * costs.radix_pass * cache)
    return pt


#: Conservative disk rates used when a caller supplies none — slow
#: spinning-rust numbers, so an unmeasured external estimate is
#: pessimistic.
CONSERVATIVE_DISK_READ_BPS = 200e6
CONSERVATIVE_DISK_WRITE_BPS = 120e6


def external_merge_passes(
    N: int, memory_budget: int, dtype_size: int = 4, fan_in: int = 64
) -> Tuple[int, int]:
    """``(runs, passes)`` of the external sort's spill schedule: how many
    budget-sized sorted runs form, and how many times each byte crosses
    the disk (run formation plus the fan-in-limited merge cascade)."""
    if memory_budget < 1:
        raise ConfigurationError(
            f"memory_budget must be positive, got {memory_budget}"
        )
    chunk = max(memory_budget // (dtype_size * 4), 1)
    runs = max(-(-N // chunk), 1)
    passes, remaining = 1, runs
    while remaining > fan_in:
        remaining = -(-remaining // fan_in)
        passes += 1
    return runs, passes


def predict_external(
    N: int,
    P: int = 1,
    spec: MachineSpec = MEIKO_CS2,
    *,
    memory_budget: int = 64 << 20,
    fan_in: int = 64,
    dtype_size: int = 4,
    disk_read_bytes_per_s: float = None,
    disk_write_bytes_per_s: float = None,
    key_bits: int = 32,
    radix_bits: int = 8,
) -> PredictedTime:
    """Predict the spill-to-disk external sort's busy time.

    The closed form is I/O bandwidth plus merge passes: every byte is
    written and read once per pass (run formation, then each fan-in
    cascade level), charged at the measured — or conservatively assumed
    — sequential disk rates under ``spill``; run formation pays the
    radix kernel under ``local_sort`` and each pass pays one vectorized
    merge sweep under ``merge``.  ``P`` is accepted for signature
    symmetry but the external path runs on one box (``P=1``).
    """
    if N < 1:
        raise ConfigurationError(f"cannot predict a sort of {N} keys")
    if P != 1:
        raise ConfigurationError(
            f"the external sort runs out-of-core on one box (P=1), got P={P}"
        )
    read_bps = disk_read_bytes_per_s or CONSERVATIVE_DISK_READ_BPS
    write_bps = disk_write_bytes_per_s or CONSERVATIVE_DISK_WRITE_BPS
    passes = external_merge_passes(N, memory_budget, dtype_size, fan_in)[1]
    nbytes = N * dtype_size
    pt = PredictedTime("external", N, 1)
    pt._add(
        "local_sort",
        N * num_passes(key_bits, radix_bits) * spec.compute.radix_pass,
    )
    pt._add("merge", passes * N * spec.compute.merge)
    io_s = passes * (nbytes / write_bps + nbytes / read_bps)
    pt._add("spill", io_s * 1e6)
    return pt


_PREDICTORS = {
    "smart": predict_smart,
    "cyclic-blocked": predict_cyclic_blocked,
    "blocked-merge": predict_blocked_merge,
    "external": predict_external,
}


def predict(algorithm: str, N: int, P: int, spec: MachineSpec = MEIKO_CS2,
            **kwargs) -> PredictedTime:
    """Predict by algorithm name (``smart``, ``cyclic-blocked``,
    ``blocked-merge``, ``radix``, ``sample``, ``external``)."""
    if algorithm in ("radix", "sample"):
        # Deferred: predict_comparators imports from this module.
        from repro.theory.predict_comparators import (
            predict_radix,
            predict_sample,
        )

        fn = predict_radix if algorithm == "radix" else predict_sample
        return fn(N, P, spec, **kwargs)
    if algorithm not in _PREDICTORS:
        choices = sorted(_PREDICTORS) + ["radix", "sample"]
        raise ConfigurationError(
            f"no predictor for {algorithm!r}; choose from {choices}"
        )
    return _PREDICTORS[algorithm](N, P, spec, **kwargs)
