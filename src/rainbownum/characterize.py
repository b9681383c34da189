"""Structural rainbow-freeness tests for exact 3-colorings of Z_p.

These decide rainbow-freeness (or certify a rainbow must exist) from the
shape of the color classes alone: symmetric or d-periodic sets after a
simultaneous dilation, or three consecutive cyclic intervals.  The CLI
exposes the two full characterizations as ``thm3:<c>`` (for the equation
x1 + x2 - c*x3 = 0) and ``thm5`` (for x1 + x2 + x3 = b); the third check
is the necessary singleton condition for unequal coefficients.

Class roles are assigned by size, smallest first.  "Under dilation" is
read as one unit d applied simultaneously to all three classes (the
permissive reading; the exhaustive equivalence tests against the search
oracle adjudicate it).  Only the interval conditions, thm3 case 3 and
thm5's interval case, scan the p - 1 units, in one shared search; a
singleton class settles every other condition without one
(``thm3_rainbow_free`` proves this).

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
    the interval conditions, x -> -x (the unit -u in place of u) turns
    consecutive intervals in the order A, C, B with endpoint sum t into
    intervals in the order A, B, C with sum 3 - t.  For thm3, 3 - t lies
    in {1, 2} exactly when t does; for thm5, 3 - t lies in
    {1, 2} + (-u)b exactly when t lies in {1, 2} + ub.
  - A with B, both of size >= 2: only the interval conditions apply, and
    the same reflection maps the order B, A, C to A, B, C.
  - A with B, singletons {u} and {v}: thm3 cases 1 and 2 with c = 2 would
    need v = u after dilation, and case 2 with c = -1 holds iff
    v/u is -2 or -1/2 (never when u or v is 0); thm5's singleton case
    holds iff v is b - 2u or (b - u)/2, that is iff u is (b - v)/2 or
    b - 2v.  Each reads the same with u and v exchanged.
"""

from __future__ import annotations

from math import gcd

from . import modring
from .coloring import Coloring
from .equation import Equation
from .errors import NotApplicableError


def _interval_start(s, p: int):
    # a nonempty proper subset of Z_p is a cyclic interval iff exactly one
    # member has its predecessor outside the set
    starts = [x for x in s if (x - 1) % p not in s]
    return starts[0] if len(starts) == 1 else None


def interval_decomposition(a, b, p: int) -> tuple[int, int, int] | None:
    """Endpoints (t1, t2, t3) when A = [t1, t2), B = [t2, t3) and the rest
    of Z_p = [t3, t1) are consecutive cyclic intervals in this order, else
    None.  A and B are disjoint and nonempty sets that do not cover Z_p;
    the rest is then an interval whenever A and B are consecutive ones."""
    t1 = _interval_start(a, p)
    if t1 is None:
        return None
    t2 = (t1 + len(a)) % p
    if _interval_start(b, p) != t2:
        return None
    return t1, t2, (t2 + len(b)) % p


def _interval_sums(a, b, p: int):
    """Yield (u, t1 + t2 + t3 mod p) for each unit u of the prime p for
    which uA, uB and the rest of Z_p are consecutive cyclic intervals.
    B is dilated only for the u, at most two, that make uA an interval."""
    for u in range(1, p):
        ua = {u * x % p for x in a}
        if _interval_start(ua, p) is None:
            continue
        dec = interval_decomposition(ua, {u * x % p for x in b}, p)
        if dec is not None:
            yield u, sum(dec) % p


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

    Only case 3 scans the dilations.  The shape of A leaves one case:
      - A = {0}: dA = {0} for every d, so only case 1 can hold, and it
        holds for dB exactly when it holds for B, since -dB = d(-B) and
        c(dB) = d(cB) while dilation by d is a bijection.  B is tested
        once, undilated.
      - A = {u}, u != 0: dA = {du} is never {0}, and is {1} only for
        d = u^(-1), so only case 2 at that one d can hold.
      - |A| >= 2: dA is never {0} or {1}, so only case 3 can hold, and
        it needs c = -1.
    """
    p = _prime_3coloring(c3)
    cparam %= p
    if gcd(cparam, p) != 1:
        raise NotApplicableError(f"c = {cparam} is not a unit mod {p}")
    a, b = _two_smallest(c3)
    minus_one = p - 1
    if len(a) >= 2:
        sums = _interval_sums(a, b, p)
        return cparam == minus_one and any(t in (1, 2) for _, t in sums)
    (u,) = a
    if u == 0:
        return modring.is_symmetric(b, p) and modring.is_periodic(b, cparam, p)
    # p is prime, so u is a unit; at p = 3, c = 2 is also -1
    d = modring.try_inverse(u, p)
    b = {d * x % p for x in b}
    if cparam == 2:
        b1 = {(x - 1) % p for x in b}
        if modring.is_symmetric(b1, p) and modring.is_periodic(b1, 2, p):
            return True
    if cparam == minus_one:
        inv2 = modring.try_inverse(2, p)
        return modring.is_symmetric({(x + inv2) % p for x in b if x != p - 2}, p)
    return False


def thm5_rainbow_free(c3: Coloring, b: int) -> bool:
    """Is this exact 3-coloring of Z_p rainbow-free for x1 + x2 + x3 = b?

    True iff either the smallest class is a singleton {s} such that
    removing b - 2s and re-centering by (s - b) * 2^(-1) leaves both other
    classes symmetric, or all classes are arithmetic progressions with one
    common difference d arranging, after dilation by d^(-1), into
    consecutive cyclic intervals whose endpoint sum lies in
    {1 + d^(-1) b, 2 + d^(-1) b}.  The interval search runs over
    u = d^(-1), which covers the units as d does, and tests the sum less
    u*b.  The largest class C is not tested: it passes exactly when B
    does (module docstring).
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
    return any((t - u * b) % p in (1, 2) for u, t in _interval_sums(a, bb, p))


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
    assign = c3.assign
    singles = [assign.index(k) for k in range(3) if assign.count(k) == 1]
    return any((s * eq.a_sum - eq.b) % p == 0 for s in singles)
