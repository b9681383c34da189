#!/usr/bin/env python3
"""Sweep every equation over Z_p with unit coefficients and compare the
closed-form rainbow number against the exhaustive search oracle.

Prints a per-bucket summary (how the 3 vs 4 split correlates with the
closure of the dilation values and the a1+a2+a3 = 0 != b escape hatch) and
exits nonzero on any disagreement.

Usage:
    python scripts/dichotomy_sweep.py --p 7
    python scripts/dichotomy_sweep.py --p 11 --csv sweep11.csv
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from collections import Counter
from itertools import product

from rainbownum import (
    Equation,
    dilation_values,
    multiplicative_closure,
    rainbow_number_brute,
    rb_zp,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=7, help="prime modulus")
    parser.add_argument("--csv", default=None, help="optional per-equation CSV")
    args = parser.parse_args()
    p = args.p

    writer = None
    fh = None
    if args.csv:
        fh = open(args.csv, "w", newline="", encoding="utf-8")
        writer = csv.writer(fh)
        writer.writerow(["a1", "a2", "a3", "b", "closure", "rb_formula", "rb_brute"])

    t0 = time.time()
    buckets: Counter[tuple] = Counter()
    disagreements = 0
    total = 0
    for a1, a2, a3 in product(range(1, p), repeat=3):
        closure = len(multiplicative_closure(
            dilation_values(Equation(p, a1, a2, a3, 0)), p
        )) if not a1 == a2 == a3 else None
        for b in range(p):
            eq = Equation(p, a1, a2, a3, b)
            formula = rb_zp(eq).value
            brute = rainbow_number_brute(p, eq).value
            total += 1
            if formula != brute:
                disagreements += 1
                print(f"DISAGREE {eq}: formula {formula}, oracle {brute}")
            zero_sum_escape = eq.a_sum == 0 and b != 0
            buckets[(closure, zero_sum_escape, brute)] += 1
            if writer:
                writer.writerow([a1, a2, a3, b, closure or "", formula, brute])
    if fh:
        fh.close()

    print(f"p = {p}: {total} equations in {time.time() - t0:.1f}s")
    print(f"{'closure':>8} {'sum=0!=b':>9} {'rb':>3} {'count':>6}")
    for (closure, escape, rb), count in sorted(
        buckets.items(), key=lambda kv: (kv[0][0] or 0, kv[0][1], kv[0][2])
    ):
        print(f"{closure if closure is not None else 'equal':>8} {str(escape):>9} {rb:>3} {count:>6}")
    if disagreements:
        print(f"{disagreements} disagreements", file=sys.stderr)
        return 1
    print("formula and oracle agree everywhere")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
