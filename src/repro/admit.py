"""The admission contract: the one table of which requests each front door
(``sort()``, ``sort(service=)``, ``SortService``, ``SortClient`` and
``run_chaos_sort``) accepts.  Every door asks here before any rank
thread, simulator machine, spill directory or socket send starts work,
so a request gets one verdict at every door that can carry it: the same
sorted bytes, or the same exception type.

====================  =====================================  ==================
request               accepted when                          refused with
====================  =====================================  ==================
keys, at every door   a 1-D array, N >= 1, of a dtype that   ConfigurationError
                      holds no Python objects
simulated (sort())    integer keys, every value in           ConfigurationError
                      [0, 2**32); N and P powers of two;     or SizeError
                      P <= N
threads, smart        integer dtype; P a power of two, at    ConfigurationError
                      most :data:`MAX_RANKS`, dividing N;    or SizeError
                      at P > 1, N a power of two and
                      N/P >= 2
threads, sample       integer dtype; P a power of two, at    as above
                      most :data:`MAX_RANKS`, dividing N;
                      N/P >= 2 when P > 1
auto, with a planner  integer dtype, any N >= 1              —
external              any dtype the first row allows; no     ConfigurationError
                      backend, or "local", or sort()'s       or
                      default "simulated"; P in {None, 1};   MemoryBudgetError
                      no fault plan; on a service, an
                      estimated spill within the disk
                      budget
over memory_budget    degrades to external, whatever the     with a fault plan:
                      backend, with ``clamped=True``         ConfigurationError
====================  =====================================  ==================

``auto``'s candidates are exactly the (algorithm, P) pairs the smart and
sample rows admit.  ``np.sort`` phases on slices are byte-exact only for
integer keys (``-0.0`` and ``0.0`` can trade places).  The value range is
the one check that reads keys: simulated backend, wide dtypes only.  The
simulated algorithms keep their own schedule rules (smart N/P >= 2,
cyclic-blocked N >= P**2) and raise their ScheduleErrors from N and P
before their machine is built.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, MemoryBudgetError, SizeError
from repro.extsort import estimate_spill_bytes, inmem_working_set_bytes
from repro.runtime.driver import BACKENDS
from repro.utils.bits import is_power_of_two
from repro.utils.validation import require_sizes

__all__ = ["CAPABILITIES", "EXTERNAL_BACKEND", "MAX_RANKS", "Request",
           "SORT_ALGORITHMS", "SORT_BACKENDS", "SPMD_ALGORITHMS", "admit",
           "admit_direct", "admit_keys", "spmd_refusal"]

#: The most ranks one world may have (the planner's candidates stop at 8).
MAX_RANKS = 64

#: The capability table: the algorithms each backend runs.  The external
#: sort runs on neither: it runs in-process, on the :data:`EXTERNAL_BACKEND`
#: pseudo-backend, which ``sort()``'s default backend stands in for.
CAPABILITIES = {
    "simulated": (
        "smart", "cyclic-blocked", "blocked-merge", "radix", "sample",
    ),
    "threads": ("smart", "sample"),
}
SORT_BACKENDS = tuple(CAPABILITIES)
SORT_ALGORITHMS = CAPABILITIES["simulated"] + ("external",)
#: What ``auto`` prices: the SPMD runtime's in-memory sorts.
SPMD_ALGORITHMS = ("smart", "sample")
#: The external sort's pseudo-backend: in-process, never a world.
EXTERNAL_BACKEND = "local"


class Request(NamedTuple):
    """An admitted request (``None``: the planner chooses); ``clamped``
    and ``budget`` flag a memory-budget override and degradation."""

    N: int
    dtype_size: int
    algorithm: Optional[str]
    backend: Optional[str]
    P: Optional[int]
    memory_budget: Optional[int]
    clamped: bool
    budget: bool


def admit_keys(keys) -> np.ndarray:
    """The first row, at every door: ``keys`` as an array, or a raise."""
    keys = np.asarray(keys)
    if keys.ndim != 1 or keys.size < 1 or keys.dtype.hasobject:
        raise ConfigurationError(
            f"a sort takes a 1-D, non-empty array of plain values, got "
            f"shape {keys.shape} of {keys.dtype}"
        )
    return keys


def spmd_refusal(algorithm: str, N: int, P) -> Optional[ConfigurationError]:
    """The threads row of ``algorithm`` for ``P`` ranks over ``N`` keys:
    the error refusing them, or ``None``."""
    if isinstance(P, bool) or not isinstance(P, (int, np.integer)):
        return ConfigurationError(f"P must be an int, got {P!r}")
    if P < 1 or N % P:
        return ConfigurationError(f"{N} keys do not divide over P={P} ranks")
    if not is_power_of_two(P):
        return SizeError(f"P={P}: the runtime runs a power of two of ranks")
    if P > MAX_RANKS:
        return ConfigurationError(f"P={P} is over MAX_RANKS={MAX_RANKS}")
    if P > 1 and N // P < 2:
        return SizeError(
            f"P={P} leaves {N // P} key(s) per rank; the smart schedule "
            f"needs at least 2"
        )
    if P > 1 and algorithm == "smart" and not is_power_of_two(N):
        return SizeError(
            f"the bitonic network needs a power-of-two N above one rank, "
            f"got {N} keys at P={P}"
        )
    return None


def _require_integer(dtype: np.dtype) -> None:
    if dtype.kind not in "iu":
        raise ConfigurationError(
            f"the SPMD sorts take integer keys, got {dtype}"
        )


def _route_memory(N, dtype_size, faults, algorithm, backend, P,
                  memory_budget, disk_budget) -> Tuple:
    """The external and memory-budget rows: ``(algorithm, backend, P,
    clamped, budget)`` after them."""
    if memory_budget is not None and memory_budget < 1:
        raise ConfigurationError(f"memory_budget must be >= 1 byte, got "
                                 f"{memory_budget}")
    over = (memory_budget is not None
            and inmem_working_set_bytes(N, dtype_size) > memory_budget)
    if not over and algorithm != "external":
        return algorithm, backend, P, False, False
    spill = estimate_spill_bytes(N * dtype_size)
    if disk_budget is not None and spill > disk_budget:
        raise MemoryBudgetError(
            f"request of {N} keys needs ~{spill} spill bytes, over the "
            f"{disk_budget}-byte disk budget; too big even for the "
            f"out-of-core path",
            required_bytes=spill, budget_bytes=disk_budget,
        )
    if over:
        if faults:
            raise ConfigurationError(
                f"request of {N} keys exceeds the {memory_budget}-byte "
                f"memory budget but carries an armed fault plan; the "
                f"out-of-core path has no fault transport — raise the "
                f"budget or drop the fault plan"
            )
        # The working set does not fit: out of core, whatever was forced.
        clamped = (algorithm not in (None, "external")
                   or backend not in (None, EXTERNAL_BACKEND)
                   or P not in (None, 1))
        return "external", None, None, clamped, True
    if faults:
        raise ConfigurationError(
            "the external sort runs in-process with no fault transport; "
            "fault injection needs an SPMD algorithm"
        )
    if backend not in (None, EXTERNAL_BACKEND):
        raise ConfigurationError(
            f"algorithm 'external' runs on the {EXTERNAL_BACKEND!r} "
            f"pseudo-backend, not {backend!r}"
        )
    if P not in (None, 1):
        raise ConfigurationError(f"the external sort is single-host: P "
                                 f"must be 1, got {P}")
    return "external", None, None, False, False


def admit(N: int, dtype_size: int, *, dtype=None, faults=False,
          algorithm=None, backend=None, P=None, memory_budget=None,
          disk_budget=None) -> Request:
    """The verdict at a door with a planner: the :class:`Request`, or a
    raise.  A planner asked about a size alone passes no ``dtype``."""
    if N < 1:
        raise ConfigurationError(f"cannot plan a sort of {N} keys")
    if backend not in (None, EXTERNAL_BACKEND) + BACKENDS:
        raise ConfigurationError(f"unknown backend {backend!r}; choose "
                                 f"from {list(BACKENDS)}")
    algorithm = None if algorithm == "auto" else algorithm
    if algorithm not in (None, "external") + SPMD_ALGORITHMS:
        raise ConfigurationError(
            f"the planner cannot schedule algorithm {algorithm!r}: the sort "
            f"service runs only the SPMD algorithms {list(SPMD_ALGORITHMS)} "
            f"and 'external' (or None for auto)"
        )
    algorithm, backend, P, clamped, budget = _route_memory(
        N, dtype_size, faults, algorithm, backend, P, memory_budget,
        disk_budget,
    )
    if algorithm != "external":
        if backend == EXTERNAL_BACKEND:
            raise ConfigurationError(f"the {EXTERNAL_BACKEND!r} pseudo-"
                                     f"backend runs only algorithm='external'")
        if dtype is not None:
            _require_integer(dtype)
        if P is not None:
            algos = (algorithm,) if algorithm else SPMD_ALGORITHMS
            errors = [spmd_refusal(a, N, P) for a in algos]
            if all(errors):
                raise errors[0]
    return Request(N, dtype_size, algorithm, backend, P, memory_budget,
                   clamped, budget)


def admit_direct(keys, P, algorithm, backend, faults=None,
                 memory_budget=None) -> Tuple[np.ndarray, str]:
    """The verdict at a door without a planner (``sort()``,
    ``run_chaos_sort``): the keys and the algorithm to run, or a raise."""
    keys = admit_keys(keys)
    if backend not in SORT_BACKENDS:
        raise ConfigurationError(f"unknown sort backend {backend!r}; "
                                 f"choose from {list(SORT_BACKENDS)}")
    algorithm = algorithm or "smart"
    if algorithm == "auto":
        raise ConfigurationError("algorithm='auto' is planner routing: "
                                 "it needs a service=")
    if algorithm not in SORT_ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}; "
                                 f"choose from {list(SORT_ALGORITHMS)}")
    if algorithm != "external" and algorithm not in CAPABILITIES[backend]:
        raise ConfigurationError(
            f"backend {backend!r} implements {list(CAPABILITIES[backend])}, "
            f"not {algorithm!r}; run {algorithm!r} on backend='simulated'"
        )
    armed = faults is not None and not faults.is_null
    # The default backend names none, as it does at sort(service=).
    algorithm, *_ = _route_memory(
        keys.size, keys.dtype.itemsize, armed, algorithm,
        None if backend == "simulated" else backend, P, memory_budget, None,
    )
    if algorithm == "external":
        return keys, algorithm
    if P is None:
        raise ConfigurationError("P is required unless a service= plans it")
    if backend == "threads":
        _require_integer(keys.dtype)
        error = spmd_refusal(algorithm, keys.size, P)
        if error is not None:
            raise error
        return keys, algorithm
    require_sizes(keys.size, P)
    dtype = keys.dtype
    wide = dtype.kind == "i" or dtype.itemsize > 4
    if dtype.kind not in "iu" or wide and (
            keys.min() < 0 or keys.max() >= 1 << 32):
        raise ConfigurationError(
            f"the simulated machine models 32-bit keys: integers in "
            f"[0, 2**32), got {dtype} keys outside them"
        )
    return keys, algorithm
