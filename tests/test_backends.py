"""The runtime has one SPMD backend, ``threads``; every door rejects any
other name with a typed error at admission.

``procs`` (a removed backend) and a name that never existed get the same
:class:`~repro.errors.ConfigurationError` from ``sort()``, ``sort()``
routed through a service, ``SortService.submit``, ``Planner.plan``,
``SortClient`` over the wire, ``run_spmd`` and ``spawn_world``.  The
service doors reject before a world is acquired.
"""

import pytest

from repro.api import sort
from repro.errors import ConfigurationError
from repro.runtime import BACKENDS, run_spmd, spawn_world
from repro.service import Planner, SortClient, SortServer, SortService
from repro.utils.rng import make_keys

KEYS = make_keys(1 << 12, seed=1)


@pytest.fixture(scope="module")
def service():
    with SortService() as svc:
        yield svc


@pytest.fixture(scope="module")
def server():
    srv = SortServer(SortService(), name="backend-shard", own_service=True)
    srv.start()
    yield srv
    srv.close()


def _client_sort(server, backend):
    with SortClient(server.address, via_shm=False, retries=0,
                    timeout_s=30.0) as cli:
        cli.sort(KEYS, backend=backend, P=2, deadline_s=60.0)


DOORS = {
    "sort": lambda svc, srv, b: sort(KEYS, 2, backend=b),
    "sort-service": lambda svc, srv, b: sort(KEYS, 2, backend=b, service=svc),
    "service-submit": lambda svc, srv, b: svc.submit(KEYS, backend=b, P=2),
    "planner": lambda svc, srv, b: Planner().plan(KEYS.size, backend=b),
    "client": lambda svc, srv, b: _client_sort(srv, b),
    "run_spmd": lambda svc, srv, b: run_spmd(2, lambda c: c.rank, backend=b),
    "spawn_world": lambda svc, srv, b: spawn_world(2, backend=b),
}


def test_threads_is_the_only_backend():
    assert BACKENDS == ("threads",)


@pytest.mark.parametrize("backend", ["procs", "mpi"])
@pytest.mark.parametrize("door", sorted(DOORS))
def test_unknown_backend_rejected_at_every_door(service, server, door,
                                                backend):
    def spawned():
        return [s.pool.stats()["spawned"] for s in (service, server.service)]

    before = spawned()
    with pytest.raises(ConfigurationError, match="backend"):
        DOORS[door](service, server, backend)
    assert spawned() == before
