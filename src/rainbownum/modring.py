"""Exact arithmetic in Z_n: units, linear congruences, factorization,
closures, set predicates.

``least_roots`` is the package's one solver of a*t = c (mod n).

Moduli are plain ints with n >= 2 and residues are ints normalized to
[0, n); negative inputs are reduced on entry.  Sets of residues are
ordinary sets or frozensets.  Everything here is a pure function.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

from .errors import NonUnitError


def _check_modulus(n: int) -> None:
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")


def try_inverse(a: int, n: int) -> int:
    """Multiplicative inverse of a mod n, or NonUnitError."""
    _check_modulus(n)
    d = gcd(a, n)
    if d != 1:
        raise NonUnitError(f"{a} is not a unit mod {n} (gcd = {d})")
    return pow(a, -1, n)


def least_roots(a: int, cs: Iterable[int], n: int) -> list[int | None]:
    """For each c in ``cs``, the least t in 0..n-1 with a*t = c (mod n), or
    None when there is none.  With d = gcd(a, n) a root exists iff d
    divides c, and then the roots are t = (c / d)(a / d)^-1 mod n / d."""
    _check_modulus(n)
    d = gcd(a, n)
    m = n // d
    inv = pow(a // d, -1, m)
    return [None if c % d else c % n // d * inv % m for c in cs]


def units(n: int) -> list[int]:
    """All units of Z_n in increasing order."""
    _check_modulus(n)
    return [a for a in range(1, n) if gcd(a, n) == 1]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime-power decomposition of n as ascending (p, exponent) pairs.

    Trial division; deterministic and plenty fast for the n <= ~10^6 this
    package targets.
    """
    _check_modulus(n)
    out = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def multiplicative_closure(gens: Iterable[int], n: int) -> frozenset[int]:
    """Smallest multiplicatively closed subset of Z_n^* containing 1 and gens.

    Worklist fixpoint: multiply every known member by every generator until
    nothing new appears.  Every generator must be a unit; the result is the
    subgroup they generate (inverses arise as high powers).
    """
    _check_modulus(n)
    gens = sorted({g % n for g in gens})
    for g in gens:
        if gcd(g, n) != 1:
            raise NonUnitError(f"generator {g} is not a unit mod {n}")
    closure = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % n
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return frozenset(closure)


def is_symmetric(members: Iterable[int], n: int) -> bool:
    """True iff S = -S mod n."""
    _check_modulus(n)
    s = {x % n for x in members}
    return s == {(n - x) % n for x in s}


def is_periodic(members: Iterable[int], d: int, n: int) -> bool:
    """True iff S = dS mod n, for a unit d."""
    _check_modulus(n)
    d %= n
    if gcd(d, n) != 1:
        raise NonUnitError(f"{d} is not a unit mod {n}")
    s = {x % n for x in members}
    return s == {d * x % n for x in s}
