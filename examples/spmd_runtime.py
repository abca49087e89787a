#!/usr/bin/env python3
"""Running Algorithm 1 as a real message-passing program.

Everything else in this library *simulates* the parallel machine; this
example runs the paper's sort on the in-process SPMD runtime — P concurrent
threads exchanging NumPy arrays through MPI-style collectives — traced, via
the unified front door (`repro.sort`), and then drops down to the raw
`Comm` interface for the FFT to show the layer the front door stands on.

The low-level programs are written against the abstract `Comm` interface,
whose methods deliberately mirror mpi4py's (`barrier`, `alltoallv`,
`allgather`, `bcast`): porting them to a cluster is a matter of wrapping
`mpi4py.MPI.COMM_WORLD` in the same four methods.

Run:  python examples/spmd_runtime.py
"""

import numpy as np

from repro import make_keys, sort
from repro.runtime import (
    gather_natural_order,
    local_bitrev_slice,
    run_spmd,
    spmd_fft,
)


def main() -> None:
    P, n = 8, 64 * 1024
    keys = make_keys(P * n, seed=11)

    print(f"SPMD smart bitonic sort: {P} concurrent ranks x {n // 1024}K keys")

    # One call: the real threads runtime, phase tracing armed, the output
    # verified element-exactly against np.sort before the report returns.
    report = sort(keys, P, backend="threads", trace=True)
    assert np.array_equal(report.sorted_keys, np.sort(keys))
    print(f"  verified; wall {report.wall_seconds * 1e3:.0f} ms total "
          f"(threads overlap where NumPy drops the GIL)")

    # The traced run aligns three views of the same phases: measured host
    # time, the LogGP simulation, and the closed-form prediction.  The
    # deviation column names the phases where reality and model disagree.
    print()
    print(report.phases.describe())

    print(f"\nSPMD FFT: {P} ranks x {n // 1024}K complex points")
    rng = np.random.default_rng(3)
    x = rng.normal(size=P * n) + 1j * rng.normal(size=P * n)

    def fft_program(comm):
        local = local_bitrev_slice(x, comm.rank, comm.size)
        return gather_natural_order(comm, spmd_fft(comm, local))

    spectrum = run_spmd(P, fft_program)[0]
    assert np.allclose(spectrum, np.fft.fft(x), rtol=1e-9, atol=1e-6)
    print("  verified against np.fft.fft — one alltoallv remap, as in [CKP+93]")


if __name__ == "__main__":
    main()
