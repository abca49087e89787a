"""One shard server process: ``SortServer`` over ``SortService(Planner())``.

Built on the public API rather than ``repro-bitonic serve``, whose
planner reads bench files from the working directory as a bias.  Prints
``READY <host> <port>`` once accepting; on a line (or EOF) on stdin it
closes and prints ``RSS <self_kib> <rank_kib>``: its own peak resident
set, and the largest peak among the rank processes it reaped (0 when its
worlds run on threads).  Forked ranks share copy-on-write pages with the
shard, so the sum of the two over-counts rather than under-counts.

    python3 perfbench/shard.py --src src --name shard0
"""

from __future__ import annotations

import argparse
import resource
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--name", default="shard0")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from repro.service import Planner, SortServer, SortService

    server = SortServer(
        SortService(Planner()), name=args.name, own_service=True
    )
    host, port = server.start()
    print(f"READY {host} {port}", flush=True)
    sys.stdin.readline()
    server.close()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ranks = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"RSS {own} {ranks}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
