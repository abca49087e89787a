"""Algorithm 1: Smart-layout parallel bitonic sort.

The first ``lg n`` stages of the network run entirely locally under the
initial blocked layout and are replaced by one local radix sort per
processor (ascending on even processors, descending on odd ones — Lemma 6).
The last ``lg P`` stages follow a smart remap schedule
(:func:`repro.layouts.schedule.build_schedule`): remap to the smart layout
of the current column, execute ``lg n`` steps locally, repeat.  That is the
provably minimal number of remaps (Theorem 1).

Two local-computation engines are available:

``"merge"`` (default — Chapter 4's optimization)
    Each phase's compare-exchange steps are replaced by linear-work merges:

    * *inside* phase — the local partition is one bitonic sequence and ends
      fully sorted (Theorem 2): one bitonic merge sort (Algorithm 2 minimum
      + two-way merge);
    * *crossing* phase — viewed as a ``2**b x 2**a`` matrix, first the rows
      (bitonic, length ``2**a``) are sorted to finish stage ``lg n + k``,
      then the columns (bitonic, length ``2**b``) to open stage
      ``lg n + k + 1`` (Theorem 3);
    * *last* phase — under the final blocked layout the partition is
      ``n / 2**s`` bitonic runs of length ``2**s``; a batched bitonic merge
      finishes them (all ascending — the final stage is one ascending
      merge).

    Phases whose shape fits none of these (only possible with the tail /
    middle remap placements of Lemma 5, whose first phase is truncated)
    fall back to step simulation for that phase alone.

``"simulate"``
    Execute every network column with vectorized compare-exchange — the
    unoptimized computation the paper improves upon.  Used as a correctness
    oracle and for the Chapter 4 ablation benchmark.

Message handling is ``"long"`` (packed bulk messages; default) or
``"short"`` (element-at-a-time, §3.3); with long messages, ``fused=True``
additionally folds the pack/unpack passes into the local sorts (§4.3) —
the fully optimized configuration measured as "Smart" in Table 5.1.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.layouts.base import BitFieldLayout
from repro.layouts.schedule import RemapPhase, build_schedule
from repro.layouts.smart import SmartParams, smart_params
from repro.localsort.bitonic_merge_sort import batched_bitonic_merge, sort_bitonic
from repro.localsort.radix import num_passes, radix_sort
from repro.machine.simulator import Machine
from repro.network.steps import compare_exchange_local
from repro.remap.exchange import perform_remap
from repro.sorts.base import ParallelSort
from repro.utils.bits import bit_of, ilog2

__all__ = ["SmartBitonicSort"]


class SmartBitonicSort(ParallelSort):
    """The paper's optimized parallel bitonic sort (Algorithm 1)."""

    def __init__(
        self,
        spec=None,
        *,
        mode: str = "long",
        fused: bool = True,
        local: str = "merge",
        strategy: str = "head",
        key_bits: int = 32,
        radix_bits: int = 8,
    ):
        if spec is None:
            from repro.model.machines import MEIKO_CS2

            spec = MEIKO_CS2
        super().__init__(spec)
        if mode not in ("long", "short"):
            raise ConfigurationError(f"mode must be 'long' or 'short', got {mode!r}")
        if local not in ("merge", "simulate"):
            raise ConfigurationError(
                f"local must be 'merge' or 'simulate', got {local!r}"
            )
        if fused and mode == "short":
            raise ConfigurationError("fused pack/unpack requires long messages")
        self.mode = mode
        self.fused = fused
        self.local = local
        self.strategy = strategy
        self.key_bits = key_bits
        self.radix_bits = radix_bits
        bits = []
        if mode != "long":
            bits.append("short-msg")
        if not fused and mode == "long":
            bits.append("unfused")
        if local != "merge":
            bits.append("simulated-compute")
        if strategy != "head":
            bits.append(strategy)
        self.name = "smart" + ("[" + ",".join(bits) + "]" if bits else "")

    # -- the algorithm ----------------------------------------------------

    def _check_schedule(self, N: int, P: int) -> None:
        if P > 1:
            build_schedule(N, P, strategy=self.strategy)

    def _run_parts(self, machine: Machine, parts: List[np.ndarray]) -> List[np.ndarray]:
        P = machine.P
        n = parts[0].size
        N = P * n
        costs = machine.spec.compute
        if P == 1:
            parts = [radix_sort(parts[0], key_bits=self.key_bits, radix_bits=self.radix_bits)]
            machine.charge_compute(
                0, "local_sort", n, costs.radix_pass,
                passes=num_passes(self.key_bits, self.radix_bits),
            )
            return parts

        schedule = build_schedule(N, P, strategy=self.strategy)
        lgn = ilog2(n)

        # First lg n stages: one local radix sort per processor, alternating
        # direction (processor r produces run r of Lemma 6's stage input).
        passes = num_passes(self.key_bits, self.radix_bits)
        for r in range(P):
            parts[r] = radix_sort(
                parts[r],
                ascending=(r % 2 == 0),
                key_bits=self.key_bits,
                radix_bits=self.radix_bits,
            )
            machine.charge_compute(r, "local_sort", n, costs.radix_pass, passes=passes)

        # Last lg P stages: remap, run lg n steps locally, repeat.
        layout = schedule.initial_layout
        for phase in schedule.phases:
            parts = perform_remap(
                machine, parts, layout, phase.layout,
                mode=self.mode, fused=(self.fused and self.mode == "long"),
            )
            layout = phase.layout
            if self.local == "simulate":
                self._simulate_phase(machine, parts, layout, phase)
            else:
                self._merge_phase(machine, parts, layout, phase, lgn)
        return parts

    # -- local computation engines -----------------------------------------

    def _simulate_phase(
        self,
        machine: Machine,
        parts: List[np.ndarray],
        layout: BitFieldLayout,
        phase: RemapPhase,
    ) -> None:
        """Execute the phase's columns by direct compare-exchange."""
        costs = machine.spec.compute
        for r in range(machine.P):
            absaddr = layout.absolute_addresses(r)
            for stage, step in phase.columns:
                lb = layout.local_bit_of_abs_bit(step - 1)
                compare_exchange_local(parts[r], absaddr, stage, step, lb)
            machine.charge_compute(
                r, "compare_exchange", parts[r].size, costs.compare_exchange,
                passes=len(phase.columns),
            )

    def _merge_phase(
        self,
        machine: Machine,
        parts: List[np.ndarray],
        layout: BitFieldLayout,
        phase: RemapPhase,
        lgn: int,
    ) -> None:
        """Execute the phase with Chapter 4's merge-based computation."""
        N, P = layout.N, layout.P
        stage0, step0 = phase.columns[0]
        params = smart_params(N, P, stage0, step0)
        canonical = len(phase.columns) == (
            params.s if params.is_last else lgn
        )
        if not canonical:
            # Truncated phase (tail/middle placements): fall back to
            # simulation for this phase only.
            self._simulate_phase(machine, parts, layout, phase)
            return
        costs = machine.spec.compute
        # One linear-work local sort per phase (§4.3, Figure 4.5): for the
        # usual case — an initial inside remap followed by crossing remaps —
        # the whole phase reduces to sorting the local data once.
        for r in range(machine.P):
            parts[r] = self._merge_local(parts[r], layout, params, lgn, r)
            machine.charge_compute(r, "merge", parts[r].size, costs.merge)

    @staticmethod
    def _merge_local(
        data: np.ndarray,
        layout: BitFieldLayout,
        params: SmartParams,
        lgn: int,
        rank: int,
    ) -> np.ndarray:
        """One processor's merge-based phase (Theorems 2/3)."""
        a, b = params.a, params.b
        stage = lgn + params.k
        base_abs = int(layout.to_absolute(rank, 0))
        if params.is_last:
            # Final blocked phase: n / 2**s ascending bitonic runs of
            # length 2**s (the last stage's direction bit is always 0).
            runs = data.reshape(-1, 1 << params.s)
            return batched_bitonic_merge(runs, True, axis=1).reshape(-1)
        if not params.is_crossing:
            # Inside phase: one bitonic sequence, ends fully sorted
            # (Theorem 2); direction from the stage's direction bit, which
            # is fixed across the processor.
            asc = bit_of(base_abs, stage) == 0
            return sort_bitonic(data, ascending=bool(asc))
        # Crossing phase (Theorem 3): rows finish stage lg n + k, columns
        # open stage lg n + k + 1.
        m = data.reshape(1 << b, 1 << a)
        # Row directions: the stage's direction bit (lg n + k) is the top
        # bit of the B field, i.e. of the row index.
        rows = np.arange(1 << b)
        asc_rows = (rows >> (b - 1)) & 1 == 0
        m = batched_bitonic_merge(m, asc_rows, axis=1)
        # Column direction: bit lg n + k + 1 of the absolute address, fixed
        # across the processor (it lives in the A field).
        asc_col = bit_of(base_abs, stage + 1) == 0
        m = batched_bitonic_merge(m, bool(asc_col), axis=0)
        return m.reshape(-1)
