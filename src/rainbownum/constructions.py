"""Explicit rainbow-free witness colorings.

Every constructor re-verifies its output with find_rainbow before
returning it; a verification failure is never swallowed.
"""

from __future__ import annotations

from . import modring
from .coloring import Coloring, find_rainbow
from .equation import Equation
from .errors import BadModulusError, BadWitnessError, ConsistencyError


def _verify(c: Coloring, eq: Equation, err=ConsistencyError, what="construction"):
    report = find_rainbow(c, eq)
    if not report.rainbow_free:
        raise err(f"{what} admits the rainbow solution {report.witness} for {eq}")
    return c


def symmetric_interval_coloring(p: int) -> Coloring:
    """The exact 3-coloring of Z_p with classes {0}, {1, p-1}, {2..p-2}.

    Rainbow-free for x1 + x2 + x3 = 0: a rainbow solution would need
    0 + (+-1) + m = 0 with m inside the middle interval, forcing m = -+1.
    Needs a prime p >= 5 so the middle class is nonempty.
    """
    if p < 5 or not modring.is_prime(p):
        raise BadModulusError(f"need a prime >= 5, got {p}")
    c = Coloring.from_classes(p, [{0}, {1, p - 1}, set(range(2, p - 1))])
    return _verify(c, Equation(p, 1, 1, 1, 0))


def two_power_coloring(alpha: int) -> Coloring:
    """The recursive exact (alpha+1)-coloring of Z_{2^alpha}.

    Odd residues share one fresh color; even residues 2y inherit the
    coloring of y one level down; the base level is {0}, {1} on Z_2.  For
    odd coefficients and right side 0 every solution meets the even
    residues exactly 1 or 3 times, so the fresh odd color never completes
    a rainbow.  Output is verified against x1 + x2 + x3 = 0; callers
    using other odd-coefficient equations should re-verify for theirs.
    """
    if alpha < 1:
        raise BadModulusError(f"alpha must be >= 1, got {alpha}")
    assign = [0, 1]
    for level in range(2, alpha + 1):
        prev = assign
        assign = [level if x % 2 else prev[x // 2] for x in range(2 ** level)]
    c = Coloring(tuple(assign))
    return _verify(c, Equation(2 ** alpha, 1, 1, 1, 0))


def product_coloring(cp: Coloring, ct: Coloring, eq: Equation) -> Coloring:
    """Stitch witnesses for Z_p and Z_t into one for Z_{p*t} (right side 0).

    x not divisible by p keeps cp's color of x mod p; nonzero multiples of
    p get ct's color of x/p shifted past cp's colors; 0 keeps cp's color
    0.  cp must be rainbow-free with {0} a singleton class (re-indexed to
    color 0 when needed) and ct rainbow-free, both for eq read mod their
    own modulus.

    The combined coloring is re-verified, and that check is not redundant:
    a ct whose color at 0 reappears on another residue can leak a rainbow
    through the multiples of p even though both inputs are rainbow-free.
    Such inputs fail with BadWitnessError, as does any pair whose blend
    ends up with fewer than cp.r + ct.r - 1 colors.
    """
    p, t = cp.n, ct.n
    if not modring.is_prime(p):
        raise BadWitnessError(f"first factor {p} must be prime")
    if eq.n != p * t:
        raise BadWitnessError(f"equation modulus {eq.n} is not {p} * {t}")
    if eq.b != 0:
        raise BadWitnessError("product construction requires right side 0")
    zero_class = [x for x in range(p) if cp.assign[x] == cp.assign[0]]
    if zero_class != [0]:
        raise BadWitnessError("cp must color 0 in a class of its own")
    if cp.assign[0] != 0:
        swap = {cp.assign[0]: 0, 0: cp.assign[0]}
        cp = Coloring(tuple([swap.get(c, c) for c in cp.assign]))
    _verify(cp, eq.reduce_mod(p), BadWitnessError, "cp")
    _verify(ct, eq.reduce_mod(t), BadWitnessError, "ct")

    rp = cp.r
    raw = []
    for x in range(p * t):
        if x % p != 0:
            raw.append(cp.assign[x % p])
        elif x == 0:
            raw.append(0)
        else:
            raw.append(rp - 1 + ct.assign[x // p])
    kept = sorted(set(raw))
    remap = {c: k for k, c in enumerate(kept)}
    combined = Coloring(tuple([remap[c] for c in raw]))
    if combined.r != rp + ct.r - 1:
        raise BadWitnessError(
            f"combined coloring has {combined.r} colors, expected {rp + ct.r - 1}; "
            "ct's color at 0 must be 0 or recur on a nonzero residue"
        )
    return _verify(combined, eq, BadWitnessError, "combined coloring")


def z9_coloring() -> Coloring:
    """The exact 4-coloring of Z_9 with singleton classes {2}, {5}, {8}.

    Certifies rb(Z_9, x1 + x2 + x3 = 0) >= 5, which is why the composite
    product formula refuses right side 0 when 3 divides n and the
    coefficient sum is divisible by 3.
    """
    c = Coloring.from_classes(9, [{0, 1, 3, 4, 6, 7}, {2}, {5}, {8}])
    return _verify(c, Equation(9, 1, 1, 1, 0))
