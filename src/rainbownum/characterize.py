"""Structural rainbow-freeness tests for exact 3-colorings of Z_p.

These decide rainbow-freeness (or certify a rainbow must exist) from the
shape of the color classes alone: symmetric or d-periodic sets after a
simultaneous dilation, or three consecutive cyclic intervals.  The CLI
exposes the two full characterizations as ``thm3:<c>`` (for the equation
x1 + x2 - c*x3 = 0) and ``thm5`` (for x1 + x2 + x3 = b); the third check
is the necessary singleton condition for unequal coefficients.

Class roles are assigned by size, smallest first.  "Under dilation" is
read as one unit d applied simultaneously to all three classes, and all
p - 1 units are scanned in every condition (the permissive reading; the
exhaustive equivalence tests against the search oracle adjudicate it).

Only the two smallest classes, A and B, are read; the largest, C, is
never built.  Two facts make that exact.

C is decided by A and B.  The classes partition Z_p, and negation,
multiplication by a unit and the shifts used are bijections, so a map
that fixes a set Y fixes Y less S exactly when it fixes S, for any S
inside Y.  In each condition the set left over beside B and C, after the
condition's shift, is itself symmetric or periodic:
  - {0} in thm3 case 1 (A = {0}) and in case 2 with c = 2 ({1} - 1);
  - {+-3/2} in thm3 case 2 with c = -1 ({1, -2} + 2^(-1));
  - {+-(3s - b)/2} in thm5's singleton case ({s, b - 2s} + (s - b)/2).
So C passes exactly when B passes.  In the interval cases, once A and B
are consecutive intervals [t1, t2) and [t2, t3), their complement C is
forced to be the interval [t3, t1).

Ties need no search: every size-consistent assignment of the roles gives
the same verdict, so ties are broken by color.  Every reordering is a
product of swaps of two classes of equal size, and each swap keeps the
verdict:
  - B with C: the singleton conditions test B and C alike (above).  In
    the interval conditions, x -> -x (the unit -d in place of d) turns
    consecutive intervals in the order A, C, B with endpoint sum t into
    intervals in the order A, B, C with sum 3 - t.  For thm3, 3 - t lies
    in {1, 2} exactly when t does; for thm5, 3 - t lies in
    {1, 2} + (-d)^(-1) b exactly when t lies in {1, 2} + d^(-1) b.
  - A with B, both of size >= 2: only the interval conditions apply, and
    the same reflection maps the order B, A, C to A, B, C.
  - A with B, singletons {u} and {v}: thm3 cases 1 and 2 with c = 2 would
    need v = u after dilation, and case 2 with c = -1 holds iff
    v/u is -2 or -1/2 (never when u or v is 0); thm5's singleton case
    holds iff v is b - 2u or (b - u)/2, that is iff u is (b - v)/2 or
    b - 2v.  Each reads the same with u and v exchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def interval_decomposition(a, b, p: int, d: int = 1) -> IntervalDecomposition | None:
    """Decompose d^(-1)A, d^(-1)B and the rest of Z_p into consecutive
    cyclic intervals in this cyclic order, or None if they are not arranged
    that way.  A and B are disjoint and nonempty and do not cover Z_p; the
    rest is then an interval whenever A and B are consecutive ones."""
    dinv = modring.try_inverse(d, p)
    a1 = {dinv * x % p for x in a}
    b1 = {dinv * x % p for x in b}
    t1 = _interval_start(a1, p)
    if t1 is None:
        return None
    t2 = (t1 + len(a1)) % p
    if _interval_start(b1, p) != t2:
        return None
    return IntervalDecomposition(d, t1, t2, (t2 + len(b1)) % p)


def _prime_3coloring(c3: Coloring) -> int:
    p = c3.n
    if c3.r != 3:
        raise ValueError(f"need an exact 3-coloring, got {c3.r} colors")
    if not modring.is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def _two_smallest(c3: Coloring) -> tuple[list[int], list[int]]:
    """The members of c3's two smallest classes, smallest first, ties
    broken by color.  tuple.index finds the members, so each class costs
    its own size in Python steps, and the largest is never listed."""
    assign = c3.assign
    sizes = [assign.count(k) for k in range(3)]
    out = []
    for k in sorted(range(3), key=sizes.__getitem__)[:2]:
        members, x = [], -1
        for _ in range(sizes[k]):
            x = assign.index(k, x + 1)
            members.append(x)
        out.append(members)
    return out[0], out[1]


def thm3_rainbow_free(c3: Coloring, cparam: int) -> bool:
    """Is this exact 3-coloring of Z_p rainbow-free for x1 + x2 - c*x3 = 0?

    True iff, for some unit d dilating all classes at once, the size-sorted
    classes A, B, C satisfy one of
      1) A = {0} with B and C symmetric and c-periodic;
      2) A = {1} with, for c = 2, B-1 and C-1 symmetric 2-periodic, or, for
         c = -1, (B less {-2}) + 2^(-1) and (C less {-2}) + 2^(-1) symmetric;
      3) for c = -1 and |A| >= 2, the classes forming consecutive cyclic
         intervals with t1 + t2 + t3 in {1, 2}.
    C is not tested: it passes exactly when B does (module docstring).
    """
    p = _prime_3coloring(c3)
    cparam %= p
    if gcd(cparam, p) != 1:
        raise NotApplicableError(f"c = {cparam} is not a unit mod {p}")
    a0, b0 = _two_smallest(c3)
    inv2 = modring.try_inverse(2, p)
    minus_one = p - 1
    minus_two = p - 2

    def shifted(s, t):
        return {(x + t) % p for x in s}

    # p is prime, so every d in 1..p-1 is a unit
    for d in range(1, p):
        a = {d * x % p for x in a0}
        b = {d * x % p for x in b0}
        if a == {0}:
            if modring.is_symmetric(b, p) and modring.is_periodic(b, cparam, p):
                return True
        elif a == {1}:
            if cparam == 2 and (
                modring.is_symmetric(shifted(b, -1), p)
                and modring.is_periodic(shifted(b, -1), 2, p)
            ):
                return True
            if cparam == minus_one and modring.is_symmetric(
                shifted(b - {minus_two}, inv2), p
            ):
                return True
        elif len(a) >= 2 and cparam == minus_one:
            dec = interval_decomposition(a, b, p)
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
    {1 + d^(-1) b, 2 + d^(-1) b}.  The largest class C is not tested: it
    passes exactly when B does (module docstring).
    """
    p = _prime_3coloring(c3)
    b %= p
    inv2 = modring.try_inverse(2, p)
    a, bb = _two_smallest(c3)
    if len(a) == 1:
        (s,) = a
        removed = (b - 2 * s) % p
        shift = (s - b) * inv2 % p
        return modring.is_symmetric({(x + shift) % p for x in bb if x != removed}, p)
    # p is prime, so every d in 1..p-1 is a unit
    for d in range(1, p):
        dec = interval_decomposition(a, bb, p, d)
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
