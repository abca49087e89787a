"""A real SPMD runtime: run the paper's algorithm as a message-passing
program, not a simulation.

Everything else in this package *simulates* the parallel machine (real data
movement, virtual clocks).  :mod:`repro.runtime` is the complement: an
mpi4py-style SPMD programming interface (:class:`~repro.runtime.api.Comm`)
with one backend behind :func:`run_spmd`, ``backend="threads"``
(:mod:`repro.runtime.threads`): each rank a Python thread; NumPy kernels
release the GIL, so ranks genuinely overlap — and a from-scratch SPMD
implementation of the smart bitonic sort written against that interface
alone (:mod:`repro.runtime.bitonic_spmd`).

The SPMD sort is a second, independent realization of Algorithm 1: it
shares the layout/schedule algebra with the simulator version but none of
its execution path, and the tests check the two produce identical output.
Porting to MPI is a matter of implementing :class:`Comm` over
``mpi4py.MPI.COMM_WORLD`` (the method names match deliberately).
"""

from repro.runtime.api import Comm
from repro.runtime.driver import BACKENDS, run_spmd, spawn_world
from repro.runtime.world import World
from repro.runtime.threads import ThreadComm, ThreadWorld
from repro.runtime.bitonic_spmd import spmd_bitonic_sort
from repro.runtime.sample_spmd import spmd_sample_sort
from repro.runtime.fft_spmd import (
    gather_natural_order,
    local_bitrev_slice,
    spmd_fft,
)

__all__ = [
    "BACKENDS",
    "Comm",
    "ThreadComm",
    "ThreadWorld",
    "World",
    "run_spmd",
    "spawn_world",
    "spmd_bitonic_sort",
    "spmd_sample_sort",
    "spmd_fft",
    "local_bitrev_slice",
    "gather_natural_order",
]
