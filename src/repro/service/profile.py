"""Host performance profiles for the request planner.

The paper's closed forms (§3.4) price a sort from machine parameters:
LogGP network numbers plus per-element compute costs.  The bundled
:data:`~repro.model.machines.MEIKO_CS2` spec prices the *paper's*
machine; to plan requests on the machine actually serving them, the same
formulas need *host* numbers.  A :class:`HostProfile` carries them:

* the measured ``np.sort`` rate, in ns per key — the kernel every local
  sort and merge phase of the runtime runs — plus the per-element
  unpack, fused-pack and addressing rates;
* per-backend :class:`BackendCosts` — LogGP parameters fitted to the
  backend's collectives plus the serving-specific fixed cost the closed
  forms do not cover: warm job dispatch;
* the usable core count, which turns per-processor busy time into wall
  time on an oversubscribed host.

:func:`HostProfile.default` is a conservative built-in so the planner
works out of the box; ``scripts/calibrate_loggp.py`` measures the real
numbers and persists them as JSON (:meth:`HostProfile.save` /
:meth:`HostProfile.load`), which is the calibration workflow
``docs/SERVING.md`` describes.

A profile is frozen, so each one memoizes the price of every request
shape it has priced (:meth:`HostProfile.estimate`), and a new profile —
from :func:`dataclasses.replace`, :meth:`HostProfile.with_backend` or
:meth:`HostProfile.load` — starts with an empty one.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.localsort.radix import num_passes
from repro.model.cache import CacheModel
from repro.model.logp import LogGPParams
from repro.model.machines import KEY_BYTES, ComputeCosts, MachineSpec
from repro.runtime.driver import BACKENDS

__all__ = ["BackendCosts", "HostProfile", "PROFILE_SCHEMA"]

#: Schema string embedded in persisted profiles; bump on layout changes.
#: History: /1 = calibrated LogGP + serving fixed costs; /2 adds an
#: optional ``adapt`` blob (the online adapter's state, since removed);
#: /3 adds measured sequential disk read/write bandwidth, which prices
#: the out-of-core external-sort regime.  Older files are rejected:
#: re-run the calibration.  A /3 file written before the procs
#: backend's, the adapter's, the spill fsync's or the unfused remap's
#: removal still loads: its ``procs`` lane, the fields only that backend
#: used, its ``adapt`` blob, its ``fsync_s`` and its ``pack_us`` are
#: ignored.
PROFILE_SCHEMA = "repro-bitonic-profile/3"

#: ``np.sort`` ns per 4-byte key when a profile carries no measurement:
#: best-of uint32 sorts on a 2-vCPU VM run 2.3-5.0 ns/key from 4 Ki to
#: 1 Mi keys.  A /3 file written before the rate existed prices with it.
DEFAULT_NP_SORT_NS_PER_KEY = 3.5

#: The closed forms charge a local sort as this many radix passes
#: (32-bit keys, 8-bit digits); :meth:`HostProfile.compute_costs` splits
#: the ``np.sort`` rate across them so the sort costs one rate per key.
_SORT_PASSES = num_passes(32, 8)

#: Most request shapes one profile's price memo holds.  Clients choose
#: ``N``, so the memo is cleared when full rather than left to grow.
PRICE_MEMO_LIMIT = 4096


def _known_fields(cls: type, raw: Dict[str, Any]) -> Dict[str, Any]:
    """The entries of ``raw`` that name a field of dataclass ``cls``."""
    known = {f.name for f in fields(cls)}
    return {k: v for k, v in raw.items() if k in known}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover — non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class BackendCosts:
    """One SPMD backend's measured costs on this host.

    ``L``/``o``/``g``/``G`` are LogGP parameters (µs, µs/byte) fitted to
    the backend's collectives; ``job_overhead_s`` is the serving fixed
    cost outside the closed forms' scope.  The pool keeps worlds warm,
    so no price carries a world's spawn.
    """

    L: float
    o: float
    g: float
    G: float
    #: Seconds of per-job dispatch/collect overhead on a warm world.
    job_overhead_s: float

    def network(self, P: int) -> LogGPParams:
        return LogGPParams(L=self.L, o=self.o, g=self.g, G=self.G, P=max(P, 1))


@dataclass(frozen=True)
class HostProfile:
    """Everything the planner knows about the serving host."""

    cpus: int
    #: Per-element rates, µs (see :class:`ComputeCosts`): the sample
    #: sort's unpack, the fused remap's pack and address computation.
    unpack_us: float
    fused_pack_us: float
    address_us: float
    #: Measured ``np.sort`` ns per key: prices every local sort and merge
    #: phase, which all run ``np.sort`` on the real backend.
    np_sort_ns_per_key: float = DEFAULT_NP_SORT_NS_PER_KEY
    backends: Dict[str, BackendCosts] = field(default_factory=dict)
    #: Measured sequential disk bandwidths (bytes/s) from
    #: ``scripts/calibrate_loggp.py``; ``None`` = unmeasured —
    #: :meth:`estimate_external` then prices with conservative defaults.
    #: They price forced and budget-degraded external requests; the
    #: planner never puts the external sort in an auto race.
    disk_read_bytes_per_s: Optional[float] = None
    disk_write_bytes_per_s: Optional[float] = None
    #: ``"default"`` for the built-in guess, ``"calibrated"`` after
    #: ``scripts/calibrate_loggp.py`` measured this host.
    source: str = "default"

    def __post_init__(self) -> None:
        # The price memo: estimates keyed on what the closed form
        # reads.  Not a field, so it is neither saved nor compared.
        object.__setattr__(self, "_prices", {})

    @classmethod
    def default(cls) -> "HostProfile":
        """The built-in profile: the ``np.sort`` rate and the warm job
        dispatch (0.018 ms) as measured on a 2-vCPU VM, with
        conservative LogGP numbers.

        Calibrate (``scripts/calibrate_loggp.py``) for this host's own
        numbers.
        """
        return cls(
            cpus=_usable_cpus(),
            unpack_us=0.008,
            fused_pack_us=0.004,
            address_us=0.001,
            backends={
                "threads": BackendCosts(
                    L=10.0, o=30.0, g=30.0, G=0.0005,
                    job_overhead_s=0.000018,
                ),
            },
        )

    # -- the bridge into the paper's closed forms ----------------------

    def compute_costs(self) -> ComputeCosts:
        """Closed-form compute rates: a local sort and a merge phase each
        cost one ``np.sort`` rate per key."""
        sort_us = self.np_sort_ns_per_key / 1e3
        return ComputeCosts(
            radix_pass=sort_us / _SORT_PASSES,
            merge=sort_us,
            compare_exchange=sort_us,
            unpack=self.unpack_us,
            address=self.address_us,
            fused_pack=self.fused_pack_us,
        )

    def machine_spec(self, backend: str, P: int) -> MachineSpec:
        """This host, expressed as a :class:`MachineSpec` the
        :mod:`repro.theory` predictors accept."""
        if backend not in self.backends:
            raise ConfigurationError(
                f"profile has no backend {backend!r}; "
                f"knows {sorted(self.backends)}"
            )
        return MachineSpec(
            name=f"host/{backend}",
            network=self.backends[backend].network(P),
            compute=self.compute_costs(),
            # Ranks share one physical cache hierarchy; the capacity
            # upturn is already baked into the measured per-element
            # rates, so the spec's explicit cache penalty is disabled.
            cache=CacheModel(capacity_bytes=1 << 30, key_bytes=KEY_BYTES, alpha=0.0),
        )

    def estimate(
        self,
        N: int,
        P: int,
        backend: str,
        *,
        algorithm: str = "smart",
        dtype_size: int = KEY_BYTES,
        memory_budget: Optional[int] = None,
    ) -> float:
        """Estimated end-to-end wall seconds for one sort request.

        The per-processor busy time comes from the paper's closed form
        (:func:`repro.theory.predict.predict` with this host's spec) for
        the requested ``algorithm`` (``"smart"`` bitonic or ``"sample"``);
        oversubscription scales it by ``P / min(P, cpus)`` because ranks
        beyond the core count serialize.  Every remap pays the world
        barrier's fan-in, one ``o`` per rank.  On top rides the warm
        world's job dispatch — except at
        ``P=1``, which the service runs with no world, on the dispatcher
        or the caller's thread.  ``algorithm="external"`` prices
        :meth:`estimate_external` under ``memory_budget``.

        Prices are memoized per profile (at most
        :data:`PRICE_MEMO_LIMIT` shapes); the hit path takes no lock,
        and a racing miss computes the same value.
        """
        external = algorithm == "external"
        if external:
            key: Tuple[Any, ...] = (algorithm, N, dtype_size, memory_budget)
        else:
            key = (algorithm, N, P, backend, dtype_size)
        prices = self._prices
        price = prices.get(key)
        if price is None:
            if external:
                # The out-of-core path runs in-process on one box: no
                # world, no backend costs — ``backend`` is the planner's
                # "local" pseudo-backend and is deliberately not
                # validated here.
                price = self.estimate_external(
                    N, dtype_size=dtype_size, memory_budget=memory_budget
                )
            else:
                price = self._price(N, P, backend, algorithm)
            if len(prices) >= PRICE_MEMO_LIMIT:
                prices.clear()
            prices[key] = price
        return price

    def _price(
        self,
        N: int,
        P: int,
        backend: str,
        algorithm: str,
    ) -> float:
        """The in-memory closed form behind :meth:`estimate`,
        unmemoized."""
        from repro.theory.counts import counts_for
        from repro.theory.predict import predict

        # The closed forms take powers of two: price the next one up.
        N = 1 << (N - 1).bit_length()
        costs = self.backends.get(backend)
        if costs is None:
            raise ConfigurationError(
                f"profile has no backend {backend!r}; "
                f"knows {sorted(self.backends)}"
            )
        busy_us = predict(
            algorithm, N, P, spec=self.machine_spec(backend, P)
        ).total
        if P > 1:
            # Sample sort redistributes once; every remap is one
            # world-wide exchange, whose barrier each rank waits on, one
            # ``o`` per rank it must observe.
            remaps = (
                counts_for("smart", N, P).remaps if algorithm == "smart"
                else 1
            )
            busy_us += remaps * costs.o * P
        oversub = P / max(1, min(P, self.cpus))
        wall = busy_us * oversub / 1e6
        if P > 1:
            wall += costs.job_overhead_s
        return wall

    def estimate_external(
        self,
        N: int,
        *,
        dtype_size: int = KEY_BYTES,
        memory_budget: Optional[int] = None,
        fan_in: int = 64,
    ) -> float:
        """Estimated wall seconds for one out-of-core external sort.

        The I/O-bandwidth + merge-pass closed form
        (:func:`repro.theory.predict.predict_external`) priced with this
        host's measured disk rates and compute kernels; unmeasured disk
        falls back to the conservative defaults, which keeps an
        unmeasured external estimate pessimistic.
        """
        from repro.theory.predict import predict_external

        pt = predict_external(
            N,
            spec=self.machine_spec_local(),
            memory_budget=memory_budget or (64 << 20),
            fan_in=fan_in,
            dtype_size=dtype_size,
            disk_read_bytes_per_s=self.disk_read_bytes_per_s,
            disk_write_bytes_per_s=self.disk_write_bytes_per_s,
        )
        return pt.total / 1e6

    def machine_spec_local(self) -> MachineSpec:
        """This host's compute rates with a null network — what the
        single-box predictors (external sort) price against."""
        return MachineSpec(
            name="host/local",
            network=LogGPParams(L=0.0, o=0.0, g=0.0, G=0.0, P=1),
            compute=self.compute_costs(),
            cache=CacheModel(capacity_bytes=1 << 30, key_bytes=KEY_BYTES, alpha=0.0),
        )

    # -- persistence ---------------------------------------------------

    def save(self, path: str) -> None:
        """Persist the profile as JSON (:meth:`load` reads it back)."""
        doc = {"schema": PROFILE_SCHEMA, "profile": asdict(self)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "HostProfile":
        """A saved profile.  Entries this code does not know (an older
        file's ``adapt`` blob, for one) are ignored."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        schema = doc.get("schema")
        if schema != PROFILE_SCHEMA:
            raise ConfigurationError(
                f"{path}: profile schema {schema!r} != "
                f"{PROFILE_SCHEMA!r} — re-run scripts/calibrate_loggp.py"
            )
        # Fields and backend lanes this code no longer has (an older /3
        # file's procs lane or spawn cost, for two) are skipped, not
        # rejected.
        raw = _known_fields(cls, doc["profile"])
        raw["backends"] = {
            name: BackendCosts(**_known_fields(BackendCosts, costs))
            for name, costs in raw.get("backends", {}).items()
            if name in BACKENDS
        }
        return cls(**raw)

    def with_backend(self, name: str, costs: BackendCosts) -> "HostProfile":
        merged = dict(self.backends)
        merged[name] = costs
        return replace(self, backends=merged)
