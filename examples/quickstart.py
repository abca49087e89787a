#!/usr/bin/env python3
"""Quickstart: sort one million keys with the smart-layout bitonic sort.

This is the 60-second tour of the library: generate the paper's workload
(uniform 31-bit keys), run Algorithm 1 through the unified front door
(`repro.sort`) on a simulated 32-node Meiko CS-2, verify the result end
to end, and read off the numbers the paper reports — simulated time per
key, the communication metrics (remaps R, volume V, messages M), and the
computation/communication breakdown.

Run:  python examples/quickstart.py
"""

from repro import counts_for, make_keys, sort


def main() -> None:
    P = 32                       # processors on the simulated machine
    keys = make_keys(1 << 20)    # 1M uniform 31-bit keys (the paper's workload)
    n = keys.size // P

    print(f"Sorting {keys.size:,} keys on {P} simulated processors "
          f"({n:,} keys each)\n")

    # One call: algorithm + substrate in, one SortReport out.  The same
    # front door runs the real SPMD runtime (backend="threads").
    st = sort(keys, P).stats

    print("Smart bitonic sort (Algorithm 1):")
    print(f"  simulated time        {st.elapsed_us / 1e6:8.4f} s "
          f"({st.us_per_key:.3f} us/key)")
    print(f"  computation           {st.computation_per_key:8.3f} us/key")
    print(f"  communication         {st.communication_per_key:8.3f} us/key")
    print(f"  remaps R              {st.remaps:8d}")
    print(f"  volume V              {st.volume_per_proc:8,} elements/processor")
    print(f"  messages M            {st.messages_per_proc:8,} per processor")

    # The closed forms of §3.4 predict the measured counts exactly.
    theory = counts_for("smart", keys.size, P)
    assert (theory.remaps, theory.volume, theory.messages) == (
        st.remaps, st.volume_per_proc, st.messages_per_proc
    )
    print("  (matches the paper's closed-form R/V/M exactly)\n")

    # Compare with the strongest prior approach, cyclic-blocked remapping.
    baseline = sort(keys, P, algorithm="cyclic-blocked").stats
    print("Cyclic-Blocked baseline [CDMS94]:")
    print(f"  simulated time        {baseline.elapsed_us / 1e6:8.4f} s "
          f"({baseline.us_per_key:.3f} us/key)")
    print(f"  remaps R              {baseline.remaps:8d}")
    print(f"  volume V              {baseline.volume_per_proc:8,} elements/processor")
    print(f"\nSpeedup of Smart over Cyclic-Blocked: "
          f"{baseline.elapsed_us / st.elapsed_us:.2f}x")


if __name__ == "__main__":
    main()
