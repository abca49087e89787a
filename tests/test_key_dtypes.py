"""Key dtypes at every front door.

Signed integer keys (negatives included) come back byte-identical to
``np.sort`` from ``sort()`` on the threads backend for both algorithms,
from ``SortService`` and from ``SortClient``.  The simulated machine
models 32-bit keys: it sorts any integer dtype whose values lie in
[0, 2**32) and refuses others, typed, before a machine is built.
Non-integer keys get a typed :class:`ConfigurationError` before any
world runs them; the out-of-core path still sorts them, NaNs included.
"""

import numpy as np
import pytest

from repro.api import sort
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, run_chaos_sort
from repro.service import SortClient, SortServer, SortService

N = 1 << 12


def signed_keys(dtype, seed):
    """Full-range signed keys plus a band of small duplicates around 0."""
    info = np.iinfo(dtype)
    rng = np.random.default_rng(seed)
    keys = rng.integers(info.min, info.max, N, dtype=dtype, endpoint=True)
    keys[: N // 4] = rng.integers(-3, 4, N // 4)
    rng.shuffle(keys)
    return keys


def float_keys(seed):
    return np.random.default_rng(seed).standard_normal(N)


def assert_np_sorted(out, keys):
    assert out.dtype == keys.dtype
    assert out.tobytes() == np.sort(keys).tobytes()


@pytest.fixture(scope="module")
def service():
    svc = SortService()
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def server():
    srv = SortServer(SortService(), name="dtype-shard", own_service=True)
    srv.start()
    yield srv
    srv.close()


@pytest.fixture()
def client(server):
    with SortClient(server.address, via_shm=False, retries=0,
                    timeout_s=30.0) as cli:
        yield cli


DTYPES = [np.int64, np.int32]
ALGORITHMS = ["smart", "sample"]


def wide_keys(dtype, seed):
    """Keys the simulated machine cannot model: negatives, or values
    at and above 2**32, among in-range ones."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 100, N).astype(dtype)
    if np.iinfo(dtype).min < 0:
        keys[::3] = rng.integers(np.iinfo(dtype).min, 0, keys[::3].size)
    else:
        keys[::3] = rng.integers(1 << 32, 1 << 40, keys[::3].size)
    return keys


SIMULATED = ["smart", "cyclic-blocked", "blocked-merge", "radix", "sample"]


class TestSignedKeys:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("backend", ["threads"])
    def test_front_door(self, backend, algorithm, dtype):
        keys = signed_keys(dtype, seed=1)
        report = sort(keys, 4, backend=backend, algorithm=algorithm)
        assert_np_sorted(report.sorted_keys, keys)

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int16, np.int32, np.int64, np.uint64]
    )
    @pytest.mark.parametrize("algorithm", SIMULATED)
    @pytest.mark.parametrize("verify", [True, False])
    def test_simulated_refuses_keys_outside_32_bits(
        self, monkeypatch, verify, algorithm, dtype
    ):
        from repro.machine.simulator import Machine

        def refuse(*args, **kwargs):
            raise AssertionError("a simulated machine was built")

        monkeypatch.setattr(Machine, "__init__", refuse)
        with pytest.raises(ConfigurationError, match=r"\[0, 2\*\*32\)"):
            sort(wide_keys(dtype, seed=9), 4, algorithm=algorithm,
                 verify=verify)

    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.int8, np.int32, np.int64, np.uint64]
    )
    @pytest.mark.parametrize("algorithm", SIMULATED)
    def test_simulated_sorts_any_integer_dtype_in_range(self, algorithm,
                                                        dtype):
        keys = np.random.default_rng(10).integers(0, 100, N).astype(dtype)
        report = sort(keys, 4, algorithm=algorithm, verify=False)
        assert_np_sorted(report.sorted_keys, keys)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_service(self, service, algorithm, dtype):
        keys = signed_keys(dtype, seed=2)
        out = service.sort(keys, algorithm=algorithm, backend="threads",
                           P=2)
        assert out.decision.algorithm == algorithm
        assert_np_sorted(out.sorted_keys, keys)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_client(self, client, algorithm, dtype):
        keys = signed_keys(dtype, seed=3)
        out = client.sort(keys, algorithm=algorithm, backend="threads", P=2,
                          deadline_s=60.0)
        assert_np_sorted(out.sorted_keys, keys)


class TestNonIntegerKeysRejected:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_front_door(self, algorithm):
        with pytest.raises(ConfigurationError, match="integer keys"):
            sort(float_keys(4), 2, backend="threads", algorithm=algorithm)

    def test_service_rejects_before_a_world_is_acquired(self):
        with SortService() as svc:
            with pytest.raises(ConfigurationError, match="integer keys"):
                svc.submit(float_keys(5), backend="threads", P=2)
            assert svc.pool.stats()["spawned"] == 0

    def test_client(self, client):
        with pytest.raises(ConfigurationError, match="integer keys"):
            client.sort(float_keys(6), backend="threads", P=2,
                        deadline_s=60.0)

    def test_chaos_sort(self):
        with pytest.raises(ConfigurationError, match="integer keys"):
            run_chaos_sort(float_keys(7), 2, FaultPlan(seed=1))

    def test_external_sort_of_nan_keys_verifies(self):
        """``verify_sorted`` counts a NaN equal to a NaN, so the
        verified external sort returns ``np.sort``'s bytes instead of
        a false VerificationError."""
        keys = float_keys(9)
        keys[::7] = np.nan
        report = sort(keys, algorithm="external")
        assert report.verified
        assert_np_sorted(report.sorted_keys, keys)

    def test_external_path_still_sorts_floats(self, service):
        keys = float_keys(8)
        np.testing.assert_array_equal(
            sort(keys, algorithm="external").sorted_keys, np.sort(keys)
        )
        out = service.sort(keys, algorithm="external")
        np.testing.assert_array_equal(out.sorted_keys, np.sort(keys))
