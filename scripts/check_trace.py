#!/usr/bin/env python3
"""CI gate for exported Chrome traces.

Usage::

    PYTHONPATH=src python scripts/check_trace.py TRACE.json [TRACE2.json ...]

Fails (exit 1) if any given trace file:

* has no complete ("ph": "X") span events — an empty trace means the
  instrumentation silently stopped recording;
* uses an event category outside the documented vocabulary
  (`repro.machine.metrics.CATEGORY_DESCRIPTIONS`) or advertises a
  category list that drifted from it;
* carries an unexpected schema string (bump `CHROME_TRACE_SCHEMA` and the
  golden file together, deliberately);
* lacks the core counters a traced sort must produce
  (``remaps``, ``messages``, ``bytes_sent``) — pure out-of-core traces
  (``algo.external`` > 0, no remaps) are exempt: the external sort moves
  bytes through the filesystem, not a transport;
* records a number of exchanges (``coll.alltoallv``) other than its
  ``remaps`` plus ``retries``: every remap of the bitonic and the sample
  sort is exactly one ``alltoallv``, and the reliable transport adds one
  per retransmission round;
* shows an ``unpack`` span — every remap places each arrival inside its
  ``transfer`` span, so an unpack pass means the fusion silently stopped;
* records sample-sort runs (``algo.sample`` > 0) with fewer ``remaps``
  than runs (each run is exactly one splitter-driven redistribution) or
  without a ``merge`` span — a sample trace missing its p-way merge
  means the phase instrumentation silently stopped.

Out-of-core traces (``algo.external`` > 0) must carry their own lane:
``spill`` spans for both the write and read sides, a ``merge/external``
span, and positive ``ext.runs`` / ``ext.spill_bytes`` counters — an
external sort that spilled nothing or never merged means the spill
instrumentation silently stopped.

With ``--expect-external`` each trace must be (or contain) an
out-of-core run: a positive ``algo.external`` counter, with the spill
lane checks above then applying.  Use it for traces produced under a
memory budget that must have degraded to the external sort.
"""

import argparse
import json
import sys

from repro.machine.metrics import CATEGORY_DESCRIPTIONS
from repro.trace import CHROME_TRACE_SCHEMA

REQUIRED_COUNTERS = ("remaps", "messages", "bytes_sent")


def check(path: str, expect_external: bool = False) -> list:
    errors = []
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    other = doc.get("otherData", {})
    if other.get("schema") != CHROME_TRACE_SCHEMA:
        errors.append(
            f"schema {other.get('schema')!r} != expected {CHROME_TRACE_SCHEMA!r}"
        )
    documented = set(CATEGORY_DESCRIPTIONS)
    advertised = set(other.get("categories", []))
    if advertised != documented:
        errors.append(
            f"category vocabulary drifted: trace advertises {sorted(advertised)}, "
            f"documented set is {sorted(documented)}"
        )
    spans = [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]
    if not spans:
        errors.append("no span events — the trace is empty")
    used = {e.get("cat") for e in spans}
    rogue = used - documented
    if rogue:
        errors.append(f"span events use undocumented categories: {sorted(rogue)}")
    counters = other.get("counters", {})
    external_runs = counters.get("algo.external", 0)
    pure_external = external_runs and not counters.get("remaps", 0)
    if not pure_external:
        missing = [c for c in REQUIRED_COUNTERS if not counters.get(c)]
        if missing:
            errors.append(f"required counters missing or zero: {missing}")
    sample_runs = counters.get("algo.sample", 0)
    if sample_runs:
        # Each sample-sort run is exactly one splitter-driven
        # redistribution, so the (world-summed) remap tally must cover
        # the runs, and the p-way merge must have left spans.
        if counters.get("remaps", 0) < sample_runs:
            errors.append(
                f"algo.sample = {sample_runs} but only "
                f"{counters.get('remaps', 0)} remaps — each sample sort "
                "redistributes exactly once"
            )
        if not any(e.get("cat") == "merge" for e in spans):
            errors.append(
                "algo.sample recorded but no merge span — the p-way "
                "merge never ran (or stopped tracing)"
            )
    if expect_external and not external_runs:
        errors.append(
            "no algo.external counter — the trace never took the "
            "out-of-core path (the memory budget did not degrade it)"
        )
    if external_runs:
        spill_names = {
            e.get("name") for e in spans if e.get("cat") == "spill"
        }
        for side in ("write", "read"):
            if side not in spill_names:
                errors.append(
                    f"algo.external recorded but no spill/{side} span — "
                    "the spill instrumentation silently stopped"
                )
        if not any(
            e.get("cat") == "merge" and e.get("name") == "external"
            for e in spans
        ):
            errors.append(
                "algo.external recorded but no merge/external span — the "
                "bucket merge never ran (or stopped tracing)"
            )
        for counter in ("ext.runs", "ext.spill_bytes"):
            if not counters.get(counter):
                errors.append(
                    f"algo.external recorded but {counter} is missing or "
                    "zero — an external sort that spilled nothing"
                )
    remaps = counters.get("remaps", 0)
    retries = counters.get("retries", 0)
    exchanges = counters.get("coll.alltoallv", 0)
    if exchanges != remaps + retries:
        errors.append(
            f"{exchanges} exchanges for {remaps} remaps and {retries} "
            "retransmission rounds — every remap is exactly one alltoallv"
        )
    if any(e.get("cat") == "unpack" for e in spans):
        errors.append(
            "unpack spans — every remap places its arrivals inside "
            "transfer, so an unpack pass means the fusion stopped"
        )
    return errors


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="validate Chrome traces")
    parser.add_argument("traces", nargs="*", help="Chrome-trace JSON files")
    parser.add_argument("--expect-external", action="store_true",
                        help="require a positive algo.external counter "
                             "(traces of budget-degraded out-of-core runs)")
    args = parser.parse_args(argv)
    if not args.traces:
        parser.print_help(sys.stderr)
        return 2
    failed = False
    for path in args.traces:
        errors = check(path, expect_external=args.expect_external)
        if errors:
            failed = True
            print(f"FAIL {path}")
            for err in errors:
                print(f"  - {err}")
        else:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            n = sum(1 for e in doc["traceEvents"] if e.get("ph") == "X")
            ranks = doc["otherData"].get("ranks")
            print(f"OK   {path}: {n} spans across {ranks} ranks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
