"""Solution sets and right-side shifts of an equation, for the tests.

rainbow_solutions is the reference the tests hold find_rainbow's witness
and the search's colorings to.  The translation x -> x - t carries the solutions of a1*x1 + a2*x2 + a3*x3 = b
onto those of the same left side with right side b - (a1+a2+a3)*t, so rb
is the same for every right side b + (a1+a2+a3)*k.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from rainbownum import Equation
from rainbownum.equation import Triple


def shift_b(eq: Equation, k: int) -> Equation:
    """Same coefficients, right side b + (a1+a2+a3)*k."""
    return Equation(eq.n, eq.a1, eq.a2, eq.a3, eq.b + eq.a_sum * k)


def all_solutions(eq: Equation) -> set[tuple[int, int, int]]:
    """Every ordered solution (s1, s2, s3).  Bucketing s3 by a3*s3 makes the
    enumeration n^2 + |solutions| steps, not n^3."""
    n = eq.n
    buckets: dict[int, list[int]] = {}
    for s3 in range(n):
        buckets.setdefault(eq.a3 * s3 % n, []).append(s3)
    out = set()
    for s1 in range(n):
        for s2 in range(n):
            target = (eq.b - eq.a1 * s1 - eq.a2 * s2) % n
            for s3 in buckets.get(target, ()):
                out.add((s1, s2, s3))
    return out


def rainbow_solutions(
    eq: Equation, labels: Sequence[int], start: int = 0
) -> Iterator[Triple]:
    """Ordered solutions (s1, s2, s3) of eq whose entries carry pairwise
    distinct labels and s1 >= start, in lexicographic order.

    x3 is looked up in buckets keyed by a3*x3 mod n, so the cost is
    O(n^2 + #solutions) for any coefficients, units or not; a pair (s1, s2)
    with equal labels is skipped before its bucket is read.  With the
    identity labels range(n) this lists the solutions with three distinct
    entries.
    """
    n = eq.n
    a1, a2, a3, b = eq.a1, eq.a2, eq.a3, eq.b
    by_value: list[list[int]] = [[] for _ in range(n)]
    for s3 in range(n):
        by_value[a3 * s3 % n].append(s3)
    for s1 in range(start, n):
        l1 = labels[s1]
        rest = b - a1 * s1
        for s2 in range(n):
            l2 = labels[s2]
            if l1 == l2:
                continue
            for s3 in by_value[(rest - a2 * s2) % n]:
                l3 = labels[s3]
                if l3 != l1 and l3 != l2:
                    yield (s1, s2, s3)
