"""Explicit rainbow-free witness colorings.

symmetric_interval_coloring, two_power_coloring and z9_coloring build
colorings whose rainbow-freeness is a theorem: each docstring carries the
proof, tests/test_constructions.py checks it exhaustively over a range,
and nothing here pays for it at runtime.  product_coloring takes its
factors from outside, so it checks both of them and the combined coloring
with find_rainbow and raises BadWitnessError on any failure.  A witness
handed out with a formula answer is checked once more, against that
answer's own equation, in formulas._with_witness.
"""

from __future__ import annotations

from . import modring
from .coloring import Coloring, find_rainbow
from .equation import Equation
from .errors import BadModulusError, BadWitnessError


def _verify(c: Coloring, eq: Equation, what: str) -> Coloring:
    report = find_rainbow(c, eq)
    if not report.rainbow_free:
        raise BadWitnessError(f"{what} admits the rainbow solution {report.witness} for {eq}")
    return c


def symmetric_interval_coloring(p: int) -> Coloring:
    """The exact 3-coloring of Z_p with classes {0}, {1, p-1}, {2..p-2}.

    Rainbow-free for x1 + x2 + x3 = 0: a rainbow solution takes one entry
    from each class, so it reads 0 + (+-1) + m = 0 with m in the middle
    class, and then m = -+1 lies in {1, p-1} instead.  Needs a prime
    p >= 5 so the middle class is nonempty.
    """
    if p < 5 or not modring.is_prime(p):
        raise BadModulusError(f"need a prime >= 5, got {p}")
    assign = [2] * p
    assign[0] = 0
    assign[1] = assign[-1] = 1
    return Coloring(tuple(assign))


def two_power_coloring(alpha: int) -> Coloring:
    """The recursive exact (alpha+1)-coloring c_alpha of Z_{2^alpha}.

    Odd residues share the fresh color alpha; an even residue 2y takes the
    color c_{alpha-1}(y); the base level is {0}, {1} on Z_2.

    c_alpha is rainbow-free for a1*x1 + a2*x2 + a3*x3 = 0 whenever a1, a2,
    a3 are odd.  By induction on alpha: c_1 has only two colors.  For
    alpha >= 2, a solution read mod 2 is x1 + x2 + x3 = 0, so it has 0 or
    2 odd entries.  With 2, both take the color alpha.  With 0, it is
    (2y1, 2y2, 2y3) where (y1, y2, y3) solves the same equation mod
    2^(alpha-1), whose coefficients are still odd; its colors are those
    of (y1, y2, y3) under c_{alpha-1}, which are not all distinct.
    """
    if alpha < 1:
        raise BadModulusError(f"alpha must be >= 1, got {alpha}")
    assign = [0, 1]
    for level in range(2, alpha + 1):
        prev = assign
        assign = [level] * (2 * len(prev))
        assign[::2] = prev
    return Coloring(tuple(assign))


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
    if cp.assign.count(cp.assign[0]) != 1:
        raise BadWitnessError("cp must color 0 in a class of its own")
    if cp.assign[0] != 0:
        swap = {cp.assign[0]: 0, 0: cp.assign[0]}
        cp = Coloring(tuple([swap.get(c, c) for c in cp.assign]))
    _verify(cp, eq.reduce_mod(p), "cp")
    _verify(ct, eq.reduce_mod(t), "ct")

    rp = cp.r
    # cp colors 0 with 0, so only the nonzero multiples of p need rewriting
    raw = list(cp.assign) * t
    raw[p::p] = [rp - 1 + c for c in ct.assign[1:]]
    # raw colors lie in 0..rp + ct.r - 2, so this count is right exactly
    # when they are contiguous
    used = len(set(raw))
    if used != rp + ct.r - 1:
        raise BadWitnessError(
            f"combined coloring has {used} colors, expected {rp + ct.r - 1}; "
            "ct's color at 0 must be 0 or recur on a nonzero residue"
        )
    return _verify(Coloring(tuple(raw)), eq, "combined coloring")


def z9_coloring() -> Coloring:
    """The exact 4-coloring of Z_9 with singleton classes {2}, {5}, {8}.

    Rainbow-free for x1 + x2 + x3 = 0: a rainbow solution has at most one
    entry in the large class, so two of its entries lie in {2, 5, 8}, the
    residues that are 2 mod 3.  Read mod 3, the equation makes the third
    one 2 mod 3 as well, so the solution is 2, 5, 8 in some order, and
    2 + 5 + 8 = 15 is not 0 mod 9.  This certifies
    rb(Z_9, x1 + x2 + x3 = 0) >= 5, which is why the composite product
    formula refuses right side 0 when 3 divides n and the coefficient sum
    is divisible by 3.
    """
    return Coloring.from_classes(9, [{0, 1, 3, 4, 6, 7}, {2}, {5}, {8}])
