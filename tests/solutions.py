"""Solution sets and right-side shifts of an equation, for the tests.

The translation x -> x - t carries the solutions of a1*x1 + a2*x2 + a3*x3 = b
onto those of the same left side with right side b - (a1+a2+a3)*t, so rb
is the same for every right side b + (a1+a2+a3)*k.
"""

from __future__ import annotations

from rainbownum import Equation


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
