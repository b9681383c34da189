"""Structural rainbow-freeness tests for exact 3-colorings of Z_p.

These decide rainbow-freeness (or certify a rainbow must exist) from the
shape of the color classes alone: symmetric or d-periodic sets after a
simultaneous dilation, or three consecutive cyclic intervals.  The CLI
exposes the two full characterizations as ``thm3:<c>`` (for the equation
x1 + x2 - c*x3 = 0) and ``thm5`` (for x1 + x2 + x3 = b); the third check
is the necessary singleton condition for unequal coefficients.

Class roles are assigned by size, smallest first; ties are resolved by
trying every size-consistent ordering.  "Under dilation" is read as one
unit d applied simultaneously to all three classes, and all p - 1 units
are scanned in every condition (the permissive reading; the exhaustive
equivalence tests against the search oracle adjudicate it).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import gcd

from . import modring
from .coloring import Coloring
from .equation import Equation
from .errors import NotApplicableError


@dataclass(frozen=True)
class IntervalDecomposition:
    """Endpoints of three cyclic intervals [t1,t2), [t2,t3), [t3,t1)
    tiling Z_p, read after dilating the classes by d^(-1)."""

    d: int
    t1: int
    t2: int
    t3: int


def _interval_start(s, p: int):
    # a nonempty proper subset of Z_p is a cyclic interval iff exactly one
    # member has its predecessor outside the set
    starts = [x for x in s if (x - 1) % p not in s]
    return starts[0] if len(starts) == 1 else None


def interval_decomposition(a, b, c, p: int, d: int = 1) -> IntervalDecomposition | None:
    """Decompose d^(-1)A, d^(-1)B, d^(-1)C into consecutive cyclic intervals
    in this cyclic order, or None if they are not arranged that way."""
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
    return IntervalDecomposition(d, t1, t2, t3)


def _prime_3coloring(c3: Coloring) -> int:
    p = c3.n
    if c3.r != 3:
        raise ValueError(f"need an exact 3-coloring, got {c3.r} colors")
    if not modring.is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def _size_orderings(classes):
    for a, b, c in permutations(classes):
        if len(a) <= len(b) <= len(c):
            yield a, b, c


def thm3_rainbow_free(c3: Coloring, cparam: int) -> bool:
    """Is this exact 3-coloring of Z_p rainbow-free for x1 + x2 - c*x3 = 0?

    True iff, for some unit d dilating all classes at once, the size-sorted
    classes A, B, C satisfy one of
      1) A = {0} with B and C symmetric and c-periodic;
      2) A = {1} with, for c = 2, B-1 and C-1 symmetric 2-periodic, or, for
         c = -1, (B less {-2}) + 2^(-1) and (C less {-2}) + 2^(-1) symmetric;
      3) for c = -1 and |A| >= 2, the classes forming consecutive cyclic
         intervals with t1 + t2 + t3 in {1, 2}.
    """
    p = _prime_3coloring(c3)
    cparam %= p
    if gcd(cparam, p) != 1:
        raise NotApplicableError(f"c = {cparam} is not a unit mod {p}")
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
                if dec is not None and (dec.t1 + dec.t2 + dec.t3) % p in (1, 2):
                    return True
    return False


def thm5_rainbow_free(c3: Coloring, b: int) -> bool:
    """Is this exact 3-coloring of Z_p rainbow-free for x1 + x2 + x3 = b?

    True iff either the smallest class is a singleton {s} such that
    removing b - 2s and re-centering by (s - b) * 2^(-1) leaves both other
    classes symmetric, or all classes are arithmetic progressions with one
    common difference d arranging, after dilation by d^(-1), into
    consecutive cyclic intervals whose endpoint sum lies in
    {1 + d^(-1) b, 2 + d^(-1) b}.
    """
    p = _prime_3coloring(c3)
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
                if (dec.t1 + dec.t2 + dec.t3) % p in targets:
                    return True
    return False


def thm6_singleton_necessary(c3: Coloring, eq: Equation) -> bool:
    """Necessary condition for rainbow-freeness under unequal coefficients:
    some singleton color class {s} satisfies s * (a1+a2+a3) = b.

    A False result certifies the coloring has a rainbow solution.  Raises
    NotApplicableError when the coefficients are all equal or not all
    units.
    """
    p = _prime_3coloring(c3)
    if eq.n != p:
        raise ValueError(f"equation is mod {eq.n} but coloring is mod {p}")
    if eq.a1 == eq.a2 == eq.a3:
        raise NotApplicableError("requires some pair of unequal coefficients")
    if any(a == 0 for a in eq.coeffs):
        raise NotApplicableError(f"requires unit coefficients, got {eq.coeffs}")
    singles = [next(iter(cl)) for cl in c3.color_classes() if len(cl) == 1]
    return any((s * eq.a_sum - eq.b) % p == 0 for s in singles)
