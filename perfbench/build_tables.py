"""Rebuild tables.json, the expected answers of the deep and scan workloads.

    python3 perfbench/build_tables.py

Each value comes from the search oracle, on the undisguised equation (a seed
only scales and permutes coefficients, which leaves rb unchanged).  Each is
cross-checked before it is written: against the closed form where one covers
the instance, and for n <= 10 against a census over ``iter_exact_partitions``
with a solution hypergraph computed here.
"""

from __future__ import annotations

import json
import sys

import checkout

CENSUS_MAX_N = 10


def census_rb(eq) -> int:
    """Least r in [3, n] with no rainbow-free exact r-coloring, else n + 1."""
    from rainbownum import search
    from workloads import solution_edges

    edges = list(solution_edges(eq))
    for r in range(3, eq.n + 1):
        if not any(
            all(c[u] == c[v] or c[u] == c[w] or c[v] == c[w] for u, v, w in edges)
            for c in search.iter_exact_partitions(eq.n, r)
        ):
            return r
    return eq.n + 1


def expected_rb(eq, cap: int) -> int:
    from rainbownum import NotCoveredError, SearchConfig, formulas, search

    value = search.rainbow_number_brute(eq.n, eq, SearchConfig(n_cap=cap)).value
    try:
        covered = formulas.rb_formula(eq).value
    except NotCoveredError:
        covered = value
    if covered != value:
        raise SystemExit(f"{eq}: oracle {value} but closed form {covered}")
    if eq.n <= CENSUS_MAX_N and census_rb(eq) != value:
        raise SystemExit(f"{eq}: oracle {value} but census {census_rb(eq)}")
    return value


def main() -> int:
    checkout.use_src()
    from rainbownum import Equation

    import workloads

    deep = [
        {"n": n, "coeffs": list(coeffs), "rb": expected_rb(Equation(n, *coeffs, 0), n)}
        for n, coeffs in workloads.DEEP
    ]
    scan = {
        "pool": [list(c) for c in workloads.SCAN_POOL],
        "n": list(workloads.SCAN_N),
        "rb": [[expected_rb(Equation(n, *c), n) for n in workloads.SCAN_N]
               for c in workloads.SCAN_POOL],
    }
    with open(workloads.TABLES, "w", encoding="utf-8") as fh:
        json.dump({"deep": deep, "scan": scan}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.TABLES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
