"""The admission contract (:mod:`repro.admit`) at every front door.

One hypothesis property drives ``sort()``, ``sort(service=)``,
``SortService``, ``SortClient`` against an in-process ``SortServer``, and
``run_chaos_sort`` where a fault plan applies, over dtype × N (powers of
two and not) × key distribution × (backend, algorithm, P).  Every
request either comes back byte-identical to ``np.sort`` with its dtype,
or is refused with the same exception type at every door that can carry
it, and a refused request starts no rank thread, simulator machine or
spill directory: spies count all three, and a simulated algorithm's
own schedule refusal counts too.  Whether a request sorts is checked
against the contract's table, restated here.

Spawning is stubbed throughout: a world of more than :data:`SPAWN_LIMIT`
ranks raises at once, so a door that let a capped ``P`` through fails
the test without starting its threads.
"""

import socket
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.admit import MAX_RANKS
from repro.api import sort
from repro.errors import ConfigurationError, ScheduleError
from repro.extsort.spill import SpillDir
from repro.faults import FaultPlan, run_chaos_sort
from repro.machine.simulator import Machine
from repro.runtime import driver, threads
from repro.service import SortClient, SortServer, SortService, pool
from repro.service.net import FrameType, encode_frame, error_from_meta, \
    recv_frame

#: The largest world any request here may spawn: every larger ``P`` on
#: the axes is one the contract refuses.
SPAWN_LIMIT = 8

DTYPES = [np.uint8, np.uint32, np.int32, np.int64, np.uint64, np.float64,
          object]
SIZES = sorted({1, 2, 1000, 3000, 3001} | {1 << k for k in range(13)})
PS = [None, 1, 2, 3, 4, 8, 2 * MAX_RANKS]
ALGORITHMS = ["smart", "sample", "external", "auto", "cyclic-blocked",
              "blocked-merge", "radix"]


def make_request_keys(dtype, N, distribution, seed):
    """``uniform`` spans [0, min(2**32, the dtype's top)]; ``outside``
    mixes in negatives or values >= 2**32 where the dtype holds them
    (full range where it cannot); ``low-entropy`` draws from four
    values.  Float keys carry NaNs in their low-entropy draw."""
    rng = np.random.default_rng(seed)
    if dtype is object:
        return np.array([int(v) for v in rng.integers(0, 9, N)], dtype=object)
    if dtype is np.float64:
        if distribution == "low-entropy":
            return rng.choice([-1.5, 2.0, 7.25, np.nan], N)
        return rng.standard_normal(N) * (2.0 ** 40 if distribution == "outside" else 1)
    info = np.iinfo(dtype)
    if distribution == "low-entropy":
        return rng.integers(0, 4, N).astype(dtype)
    top = min(int(info.max), (1 << 32) - 1)
    keys = rng.integers(0, top, N, dtype=dtype, endpoint=True)
    if distribution == "outside":
        wide = rng.integers(info.min, info.max, N, dtype=dtype, endpoint=True)
        keys[::2] = wide[::2]
    return keys


def _pow2(x):
    return x > 0 and not x & (x - 1)


def row_admits(algorithm, N, P):
    """The threads rows of the table."""
    return (
        N % P == 0 and _pow2(P) and P <= MAX_RANKS
        and (P == 1 or N // P >= 2 and (algorithm == "sample" or _pow2(N)))
    )


def sorts(keys, backend, algorithm, P):
    """Whether the contract's table accepts the request."""
    if keys.dtype == object:
        return False
    if algorithm == "external":
        return P in (None, 1)
    integer = np.issubdtype(keys.dtype, np.integer)
    if backend == "simulated" and algorithm != "auto":
        return (
            integer and keys.min() >= 0 and keys.max() < 1 << 32
            and _pow2(keys.size) and _pow2(P) and P <= keys.size
        )
    if algorithm not in ("smart", "sample", "auto") or not integer:
        return False
    algos = ("smart", "sample") if algorithm == "auto" else (algorithm,)
    return P is None or any(row_admits(a, keys.size, P) for a in algos)


@pytest.fixture(scope="module")
def spies():
    """Counts of worlds, simulator machines and spill directories
    started; a world above SPAWN_LIMIT ranks raises instead."""
    counts = Counter()
    patch = pytest.MonkeyPatch()

    def spy(cls, name, limit=None):
        real = cls.__init__

        def init(self, *args, **kwargs):
            counts[name] += 1
            if limit is not None and args[0] > limit:
                raise AssertionError(f"a {args[0]}-rank world was spawned")
            real(self, *args, **kwargs)

        patch.setattr(cls, "__init__", init)

    spy(threads.ThreadWorld, "worlds", SPAWN_LIMIT)
    spy(Machine, "machines")
    spy(SpillDir, "spill dirs")
    yield counts
    patch.undo()


@pytest.fixture(scope="module")
def service():
    with SortService() as svc:
        yield svc


@pytest.fixture(scope="module")
def client():
    srv = SortServer(SortService(), name="admit-shard", own_service=True)
    srv.start()
    with SortClient(srv.address, via_shm=False, retries=0,
                    timeout_s=60.0) as cli:
        yield cli
    srv.close()


def doors(keys, backend, algorithm, P, service, client):
    """Every door that can carry the request, by name.  The external
    sort runs in-process whatever backend is named, so its requests
    name none; ``auto`` needs a planner and picks its own backend."""
    out = {}
    if algorithm == "external":
        spmd = {}
    elif algorithm == "auto":
        spmd = {"backend": "threads"}
    else:
        spmd = {"backend": backend}
    if algorithm != "auto" and (P is not None or algorithm == "external"):
        out["sort()"] = lambda: sort(keys, P, algorithm=algorithm, **spmd)
    if backend == "threads" or algorithm in ("external", "auto"):
        kw = dict(algorithm=algorithm, P=P, **spmd)
        out["sort(service=)"] = lambda: sort(keys, service=service, **kw)
        out["SortService"] = lambda: service.sort(keys, **kw)
        out["SortClient"] = lambda: client.sort(keys, **kw)
    if backend == "threads" and algorithm == "smart" and P is not None:
        out["run_chaos_sort"] = lambda: run_chaos_sort(
            keys, P, FaultPlan(seed=1)
        )
    return out


@settings(max_examples=300, deadline=None)
@given(
    dtype=st.sampled_from(DTYPES),
    N=st.sampled_from(SIZES),
    distribution=st.sampled_from(["uniform", "low-entropy", "outside"]),
    backend=st.sampled_from(["simulated", "threads"]),
    algorithm=st.sampled_from(ALGORITHMS),
    P=st.sampled_from(PS),
    seed=st.integers(0, 1 << 16),
)
@example(dtype=np.uint32, N=3000, distribution="uniform", backend="threads",
         algorithm="sample", P=2, seed=1)
@example(dtype=np.uint32, N=3000, distribution="uniform", backend="threads",
         algorithm="smart", P=2, seed=1)
@example(dtype=np.uint32, N=3000, distribution="uniform", backend="threads",
         algorithm="sample", P=3, seed=1)
@example(dtype=np.uint32, N=3001, distribution="uniform", backend="threads",
         algorithm="auto", P=None, seed=1)
@example(dtype=np.uint32, N=4096, distribution="uniform", backend="threads",
         algorithm="smart", P=2 * MAX_RANKS, seed=1)
@example(dtype=np.int64, N=1024, distribution="outside",
         backend="simulated", algorithm="sample", P=4, seed=1)
@example(dtype=np.float64, N=1000, distribution="low-entropy",
         backend="threads", algorithm="external", P=None, seed=1)
@example(dtype=object, N=4, distribution="uniform", backend="threads",
         algorithm="external", P=1, seed=1)
@example(dtype=np.uint32, N=8, distribution="uniform", backend="simulated",
         algorithm="smart", P=8, seed=1)
@example(dtype=np.uint32, N=16, distribution="uniform",
         backend="simulated", algorithm="cyclic-blocked", P=8, seed=1)
def test_one_verdict_at_every_door(spies, service, client, dtype, N,
                                   distribution, backend, algorithm, P,
                                   seed):
    keys = make_request_keys(dtype, N, distribution, seed)
    verdicts = {}
    for name, call in doors(keys, backend, algorithm, P, service,
                            client).items():
        before = dict(spies)
        try:
            out = call().sorted_keys
        except Exception as exc:  # noqa: BLE001 — the verdict is the type
            verdicts[name] = type(exc)
            assert isinstance(exc, ConfigurationError), (name, exc)
            assert dict(spies) == before, f"{name} started work: {exc}"
        else:
            assert out.dtype == keys.dtype, name
            assert out.tobytes() == np.sort(keys).tobytes(), name
            verdicts[name] = "sorted"
    assert len(set(verdicts.values())) <= 1, verdicts
    if verdicts:
        verdict = next(iter(verdicts.values()))
        assert (verdict in ("sorted", ScheduleError)) == sorts(
            keys, backend, algorithm, P
        ), verdicts


@pytest.mark.parametrize("N, algorithm", [(8, "smart"),
                                          (16, "cyclic-blocked")])
def test_a_schedule_refusal_builds_no_machine(spies, N, algorithm):
    """Smart's N/P >= 2 and cyclic-blocked's N >= P**2 are decided from N
    and P before the simulated machine is built."""
    before = dict(spies)
    with pytest.raises(ScheduleError):
        sort(np.arange(N, dtype=np.uint32), 8, algorithm=algorithm)
    assert dict(spies) == before


def test_external_on_threads_is_one_refusal(service, client, spies):
    """``algorithm="external", backend="threads"`` gets the planned doors'
    refusal at ``sort()`` too, before any spill directory; over its
    memory budget a threads request still degrades to external."""
    keys = make_request_keys(np.uint32, 4096, "uniform", 1)
    kw = dict(algorithm="external", backend="threads")
    calls = {
        "sort()": lambda: sort(keys, **kw),
        "sort(service=)": lambda: sort(keys, service=service, **kw),
        "SortService": lambda: service.sort(keys, **kw),
        "SortClient": lambda: client.sort(keys, **kw),
    }
    refusals = {}
    for name, call in calls.items():
        before = dict(spies)
        with pytest.raises(ConfigurationError) as exc:
            call()
        assert dict(spies) == before, name
        refusals[name] = (type(exc.value), str(exc.value))
    assert set(refusals.values()) == {(
        ConfigurationError,
        "algorithm 'external' runs on the 'local' pseudo-backend, "
        "not 'threads'",
    )}, refusals
    for report in (
        sort(keys, 2, backend="threads", memory_budget=keys.nbytes),
        sort(keys, memory_budget=keys.nbytes, **kw),
        sort(keys, service=service, memory_budget=keys.nbytes, **kw),
    ):
        assert (report.algorithm, report.backend) == ("external", "local")
        assert report.sorted_keys.tobytes() == np.sort(keys).tobytes()


class TestRankCap:
    """A forced ``P`` above :data:`MAX_RANKS` is refused at admission at
    every door, the wire included.  Spawning is stubbed to raise, so a
    regression fails here at once and never starts a thread."""

    N = 1 << 17

    @pytest.fixture()
    def no_spawning(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a world was spawned")

        monkeypatch.setattr(threads.ThreadWorld, "__init__", refuse)
        monkeypatch.setattr(threads, "run_spmd", refuse)
        monkeypatch.setattr(driver, "run_spmd", refuse)
        monkeypatch.setattr(driver, "spawn_world", refuse)
        monkeypatch.setattr(pool, "spawn_world", refuse)

    @pytest.fixture(scope="class")
    def server(self):
        srv = SortServer(SortService(), name="cap-shard", own_service=True)
        srv.start()
        yield srv
        srv.close()

    @pytest.mark.parametrize("P", [2 * MAX_RANKS, 1 << 16])
    def test_every_door_refuses(self, no_spawning, server, P):
        keys = np.arange(self.N, dtype=np.uint32)[::-1].copy()
        calls = [
            lambda: sort(keys, P, backend="threads"),
            lambda: sort(keys, P, backend="threads", algorithm="sample"),
            lambda: run_chaos_sort(keys, P, FaultPlan(seed=1)),
        ]
        with SortService() as svc:
            calls += [
                lambda: sort(keys, P, backend="threads", service=svc),
                lambda: svc.submit(keys, algorithm="auto", P=P),
            ]
            with SortClient(server.address, via_shm=False, retries=0,
                            timeout_s=30.0) as cli:
                calls.append(lambda: cli.sort(keys, backend="threads", P=P))
                for call in calls:
                    with pytest.raises(ConfigurationError, match="MAX_RANKS"):
                        call()

    def test_a_raw_sort_frame_is_refused(self, no_spawning, server):
        """One SORT frame of 2**17 keys (a 512 KiB body) at P = 2**16."""
        keys = np.arange(self.N, dtype=np.uint32)
        meta = {"id": "c" * 32, "dtype": "<u4", "P": 1 << 16,
                "backend": "threads"}
        with socket.create_connection(server.address, timeout=30.0) as s:
            s.sendall(encode_frame(FrameType.SORT, meta, keys.tobytes()))
            ftype, emeta, _body = recv_frame(s)
        assert ftype == FrameType.ERROR
        err = error_from_meta(emeta)
        assert type(err) is ConfigurationError and "MAX_RANKS" in str(err)
