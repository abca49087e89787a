"""Column sort ([Lei85]), as characterized in the paper's Chapter 6.

"Like bitonic sort, column sort alternates between local sort and key
distribution phases, but only four phases of each are required.  Two of the
communication phases are similar to cyclic-to-blocked and blocked-to-cyclic
remaps discussed in Chapter 2, the others are just a one-to-one
communication.  Like the cyclic-blocked bitonic sort, column sort requires
that N >= P**3."

The implementation makes that correspondence literal: the values form an
``r x s`` matrix (``s = P`` columns of ``r = n`` entries, one column per
processor, column-major global order), and

* steps 1/3/5/7 are local sorts (radix);
* step 2 (transpose: "pick up the entries column by column, lay them down
  row by row") is exactly a **blocked→cyclic remap** of the column-major
  position, executed with :func:`repro.remap.exchange.perform_remap`;
* step 4 (untranspose) is the cyclic→blocked remap back;
* steps 6/8 (shift/unshift by ``r/2`` with virtual ``-inf``/``+inf`` half
  columns) are one-to-one nearest-neighbour transfers of half a column.

Leighton's correctness condition ``r >= 2 (s - 1)**2`` (approximately
``N >= 2 P**3``) is enforced.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import ScheduleError
from repro.layouts.blocked import blocked_layout
from repro.layouts.cyclic import cyclic_layout
from repro.localsort.radix import num_passes, radix_sort
from repro.machine.message import Message
from repro.machine.simulator import Machine
from repro.remap.exchange import perform_remap
from repro.sorts.base import ParallelSort

__all__ = ["ColumnSort"]


class ColumnSort(ParallelSort):
    """Leighton's column sort, one matrix column per processor."""

    name = "column"

    def __init__(self, spec=None, *, key_bits: int = 32, radix_bits: int = 8):
        if spec is None:
            from repro.model.machines import MEIKO_CS2

            spec = MEIKO_CS2
        super().__init__(spec)
        self.key_bits = key_bits
        self.radix_bits = radix_bits

    def _check_schedule(self, N: int, P: int) -> None:
        if P == 1:
            return
        r = N // P  # rows per column
        if r < 2 * (P - 1) ** 2:
            raise ScheduleError(
                f"column sort needs r >= 2(s-1)**2 rows per column: "
                f"r={r}, s={P} (approximately N >= 2 P**3) — use the smart "
                "bitonic sort instead"
            )
        if r % 2:
            raise ScheduleError("column sort needs an even column length")

    def _run_parts(self, machine: Machine, parts: List[np.ndarray]) -> List[np.ndarray]:
        P = machine.P
        r = parts[0].size  # rows per column
        costs = machine.spec.compute
        passes = num_passes(self.key_bits, self.radix_bits)

        def local_sorts() -> None:
            for rank in range(P):
                parts[rank] = radix_sort(parts[rank], key_bits=self.key_bits,
                                         radix_bits=self.radix_bits)
                machine.charge_compute(rank, "local_sort", r, costs.radix_pass,
                                       passes=passes)

        if P == 1:
            local_sorts()
            return parts

        N = P * r
        blocked = blocked_layout(N, P)
        cyclic = cyclic_layout(N, P)

        # Steps 1-2: sort columns, transpose (blocked -> cyclic remap).
        local_sorts()
        parts[:] = perform_remap(machine, parts, blocked, cyclic, fused=True)
        # Steps 3-4: sort columns, untranspose (cyclic -> blocked remap).
        local_sorts()
        parts[:] = perform_remap(machine, parts, cyclic, blocked, fused=True)
        # Step 5: sort columns.
        local_sorts()

        # Step 6: shift down r/2 — column j's bottom half moves to j+1;
        # virtual -inf above column 0 and +inf below column s-1.
        half = r // 2
        messages = [
            Message(src=j, dst=j + 1, payload=parts[j][half:])
            for j in range(P - 1)
        ]
        delivered = machine.exchange(messages)
        machine.barrier()

        # Step 7: sort the shifted columns.  Column 0's virtual -inf keep
        # its real top-half entries in its bottom positions; the virtual
        # last column (bottom of s-1 plus +inf) sorts locally on s-1.
        shifted: List[np.ndarray] = [None] * P  # type: ignore[list-item]
        shifted[0] = radix_sort(parts[0][:half], key_bits=self.key_bits,
                                radix_bits=self.radix_bits)
        machine.charge_compute(0, "local_sort", half, costs.radix_pass,
                               passes=passes)
        for j in range(1, P):
            incoming = delivered[j][0].payload
            shifted[j] = radix_sort(np.concatenate([incoming, parts[j][:half]]),
                                    key_bits=self.key_bits,
                                    radix_bits=self.radix_bits)
            machine.charge_compute(j, "local_sort", r, costs.radix_pass,
                                   passes=passes)
        tail = radix_sort(parts[P - 1][half:], key_bits=self.key_bits,
                          radix_bits=self.radix_bits)
        machine.charge_compute(P - 1, "local_sort", half, costs.radix_pass,
                               passes=passes)

        # Step 8: unshift — final column j is the bottom half of shifted
        # column j followed by the top half of shifted column j+1.
        back = [
            Message(src=j + 1, dst=j, payload=shifted[j + 1][:half])
            for j in range(P - 1)
        ]
        returned = machine.exchange(back)
        machine.barrier()
        out: List[np.ndarray] = []
        for j in range(P - 1):
            upper = shifted[j][half:] if j > 0 else shifted[0]
            out.append(np.concatenate([upper, returned[j][0].payload]))
        out.append(np.concatenate([shifted[P - 1][half:], tail]))
        return out
