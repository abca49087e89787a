"""Pinned planner decisions.

``data/plan_decisions.json`` records what three planners decided for a
fixed sample of requests, taken from the planner as it stood before it
was rebuilt as passes (clamp, candidates, price, pick) and lost its
bench-history correction.  Every planner here plans without bench
history, so the rebuild must not move one decision: replaying each
request must give the same algorithm, backend, P, clamp, source and
estimate, or the same error message.  The rows of faulty requests that
moved when faults stopped forcing the flags off, the estimates of the
external rows when the spill fsync left their price, and the estimates
the fused/grouped flags' removal moved were re-recorded
(``data/README.md``).

The requests vary the size (4 to 16 Mi keys), the key width, faults,
auto and forced algorithm (external included), forced backend and P and
a 64 KiB memory budget.  The planners are fixed-core profiles with 2 and
8 cores and a profile with measured disk rates.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.service import HostProfile, Planner

FIXTURE = Path(__file__).parent / "data" / "plan_decisions.json"

#: The memory budget a request with ``budget=1`` plans under.
BUDGET = 64 << 10

def _profile(cpus, disk=False):
    profile = replace(HostProfile.default(), cpus=cpus)
    if disk:
        profile = replace(
            profile, disk_read_bytes_per_s=1.5e9,
            disk_write_bytes_per_s=8e8,
        )
    return profile


PLANNERS = {
    "cpus2": lambda: Planner(profile=_profile(2)),
    "cpus8": lambda: Planner(profile=_profile(8)),
    "disk": lambda: Planner(profile=_profile(2, disk=True)),
}


def decide(planner, request):
    """One request's decision as the fixture records it, or the message
    of the ``ConfigurationError`` it raises.  ``request`` is
    ``[log2 N, dtype size, faults, algorithm, backend, P, budget]``."""
    log_n, dtype_size, faults, algorithm, backend, P, budget = request
    try:
        d = planner.plan(
            1 << log_n, dtype_size=dtype_size, faults=bool(faults),
            algorithm=algorithm, backend=backend, P=P,
            memory_budget=BUDGET if budget else None,
        )
    except ConfigurationError as exc:
        return str(exc)
    return [d.algorithm, d.backend, d.P, int(d.clamped), d.source,
            d.est_seconds]


def _recorded(doc, name):
    """``(request, recorded outcome)`` pairs of planner ``name``; an
    error is recorded as an index into the fixture's message list, and
    an estimate to 12 significant digits."""
    column = doc["planners"].index(name) + 1
    for row in doc["rows"]:
        want = row[column]
        yield row[0], doc["errors"][want] if isinstance(want, int) else want


def _same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return got[:-1] == want[:-1] and got[-1] == pytest.approx(
        want[-1], rel=1e-11
    )


@pytest.mark.parametrize("name", sorted(PLANNERS))
def test_decisions_match_the_fixture(name):
    doc = json.loads(FIXTURE.read_text())
    planner = PLANNERS[name]()
    moved = []
    for request, want in _recorded(doc, name):
        got = decide(planner, request)
        if not _same(got, want):
            moved.append((request, got, want))
    assert not moved, f"{len(moved)} decisions moved, first: {moved[:3]}"


def test_fixture_covers_every_axis():
    doc = json.loads(FIXTURE.read_text())
    requests = [row[0] for row in doc["rows"]]
    assert {r[0] for r in requests} == set(range(2, 25, 2))
    assert {r[3] for r in requests} == {
        "auto", "smart", "sample", "external"
    }
    for axis, values in ((1, {4, 8}), (2, {0, 1}),
                         (4, {None, "threads", "local"}),
                         (5, {None, 1, 2, 4}), (6, {0, 1})):
        assert {r[axis] for r in requests} == values
    assert len({json.dumps(r) for r in requests}) == len(requests)
    outcomes = [out for name in doc["planners"]
                for _, out in _recorded(doc, name)]
    assert any(isinstance(out, str) for out in outcomes)
    assert {out[4] for out in outcomes if not isinstance(out, str)} == {
        "model", "forced", "budget"
    }
