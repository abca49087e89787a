"""One cold start of a library front door, for ``setup_s``.

Loads the input, imports ``repro``, makes the first ``repro.sort`` call
and prints ``REPLY <monotonic time of the reply> <1 if byte-identical to
np.sort else 0>``.  The parent times from launch to that reply.

    python3 perfbench/coldstart.py --src src --keys in.npy --kwargs '{"P": 2}'
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from stats import same_bytes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--keys", required=True)
    ap.add_argument("--kwargs", required=True, help="repro.sort keywords")
    args = ap.parse_args()
    keys = np.load(args.keys)
    sys.path.insert(0, args.src)
    import repro

    out = repro.sort(keys, **json.loads(args.kwargs)).sorted_keys
    replied = time.monotonic()
    ok = same_bytes(out, np.sort(keys))
    print(f"REPLY {replied!r} {int(ok)}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
