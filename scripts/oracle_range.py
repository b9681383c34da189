#!/usr/bin/env python3
"""Time the exhaustive oracle on a set of equation shapes over one Z_n.

For each shape a1,a2,a3,b it runs `rainbow_number_brute` --runs times (once
by default) and prints rb and the total time of a call, as a min-max range
over the runs when there are several.  The last line names the slowest
shape by its slowest run.  The oracle re-verifies the witness it returns,
and that check is part of each call's time.

The default shapes are those of the benchmark's `scan` workload; they
include 1,1,1, 1,1,-2, 1,2,4 and 1,2,3 with b = 0.

Usage:
    python scripts/oracle_range.py --modulus 40
    python scripts/oracle_range.py --modulus 48 --shape 1,1,1,0
    python scripts/oracle_range.py --modulus 48 --runs 3
"""

from __future__ import annotations

import argparse
import time

from rainbownum import Equation, SearchConfig, rainbow_number_brute

SHAPES = [
    (1, 1, 1, 0), (1, 1, 1, 1), (1, 1, -2, 0), (1, 1, -2, 1), (1, 2, 4, 0),
    (1, 2, 3, 0), (1, 2, 3, 5), (1, -1, 0, 0), (1, 1, 0, 1), (2, 2, 2, 0),
    (2, 2, 2, 1), (2, 4, 6, 0), (3, 3, 3, 0), (3, 6, 9, 3), (6, 6, 6, 0),
    (2, 3, 5, 0), (1, 3, 9, 0), (2, -2, 4, 0), (1, 5, -6, 2), (3, 5, 7, 1),
    (4, 4, -8, 0), (1, 1, 2, 0), (0, 2, 4, 0), (6, 10, 15, 1),
]


def shape(text: str) -> tuple[int, int, int, int]:
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected a1,a2,a3,b, got {text!r}")
    return parts[0], parts[1], parts[2], parts[3]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--modulus", type=int, required=True, help="n of Z_n")
    parser.add_argument("--shape", type=shape, action="append",
                        help="a1,a2,a3,b (repeatable; default: the scan shapes)")
    parser.add_argument("--runs", type=int, default=1,
                        help="calls per shape (default 1)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    n = args.modulus
    cfg = SearchConfig(n_cap=n)
    worst = None
    for a1, a2, a3, b in args.shape or SHAPES:
        eq = Equation(n, a1, a2, a3, b)
        times = []
        for _ in range(args.runs):
            t0 = time.perf_counter()
            rb = rainbow_number_brute(n, eq, cfg).value
            times.append(time.perf_counter() - t0)
        low, high = min(times), max(times)
        label = f"{a1},{a2},{a3} b={b}"
        total = f"{low:7.2f} s" if args.runs == 1 else f"{low:.2f}-{high:.2f} s"
        print(f"{label:<16} rb = {rb:<3} total {total}", flush=True)
        if worst is None or high > worst[1]:
            worst = (label, high)
    if worst is not None:
        print(f"slowest at n = {n}: {worst[0]} in {worst[1]:.2f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
