"""Plain reference versions of the structural characterizations.

These test all three color classes in every condition and every
size-consistent order of the roles, dilating each class for every unit d,
as ``rainbownum.characterize`` once did, and name thm6's singleton
classes from the full class list.  The package reads only the two
smallest classes, dilates only where an interval condition needs it (the
module docstring proves that enough) and counts colors instead of
building classes; the tests check its verdicts against these.
"""

from __future__ import annotations

from itertools import permutations
from math import gcd

from rainbownum import modring


def _interval_start(s, p):
    starts = [x for x in s if (x - 1) % p not in s]
    return starts[0] if len(starts) == 1 else None


def interval_decomposition(a, b, c, p, d=1):
    """(t1, t2, t3) when d^(-1)A, d^(-1)B, d^(-1)C are consecutive cyclic
    intervals in this order, else None; every class is tested."""
    dinv = modring.try_inverse(d, p)
    a1 = {dinv * x % p for x in a}
    b1 = {dinv * x % p for x in b}
    c1 = {dinv * x % p for x in c}
    t1 = _interval_start(a1, p)
    if t1 is None:
        return None
    t2 = (t1 + len(a1)) % p
    if _interval_start(b1, p) != t2:
        return None
    t3 = (t2 + len(b1)) % p
    if _interval_start(c1, p) != t3:
        return None
    return t1, t2, t3


def _size_orderings(classes):
    for a, b, c in permutations(classes):
        if len(a) <= len(b) <= len(c):
            yield a, b, c


def thm3_rainbow_free(c3, cparam):
    p = c3.n
    cparam %= p
    assert gcd(cparam, p) == 1
    classes = c3.color_classes()
    inv2 = modring.try_inverse(2, p)
    minus_one = p - 1
    minus_two = p - 2

    def shifted(s, t):
        return {(x + t) % p for x in s}

    for d in modring.units(p):
        dil = [{d * x % p for x in cl} for cl in classes]
        for a, b, c in _size_orderings(dil):
            if a == {0}:
                if all(
                    modring.is_symmetric(s, p) and modring.is_periodic(s, cparam, p)
                    for s in (b, c)
                ):
                    return True
            elif a == {1}:
                if cparam == 2 and all(
                    modring.is_symmetric(shifted(s, -1), p)
                    and modring.is_periodic(shifted(s, -1), 2, p)
                    for s in (b, c)
                ):
                    return True
                if cparam == minus_one and all(
                    modring.is_symmetric(shifted(s - {minus_two}, inv2), p)
                    for s in (b, c)
                ):
                    return True
            elif len(a) >= 2 and cparam == minus_one:
                dec = interval_decomposition(a, b, c, p)
                if dec is not None and sum(dec) % p in (1, 2):
                    return True
    return False


def thm5_rainbow_free(c3, b):
    p = c3.n
    b %= p
    inv2 = modring.try_inverse(2, p)
    classes = c3.color_classes()
    for a, bb, cc in _size_orderings(classes):
        if len(a) == 1:
            (s,) = a
            removed = (b - 2 * s) % p
            shift = (s - b) * inv2 % p
            if all(
                modring.is_symmetric({(x + shift) % p for x in t if x != removed}, p)
                for t in (bb, cc)
            ):
                return True
        else:
            for d in modring.units(p):
                dec = interval_decomposition(a, bb, cc, p, d)
                if dec is None:
                    continue
                dinv = modring.try_inverse(d, p)
                targets = ((1 + dinv * b) % p, (2 + dinv * b) % p)
                if sum(dec) % p in targets:
                    return True
    return False


def thm6_singleton_necessary(c3, eq):
    p = c3.n
    singles = [next(iter(cl)) for cl in c3.color_classes() if len(cl) == 1]
    return any((s * eq.a_sum - eq.b) % p == 0 for s in singles)
