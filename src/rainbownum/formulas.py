"""Closed-form rainbow numbers with exact applicability guards.

Each rule either returns an RbResult or raises NotCoveredError naming the
failed condition; nothing here ever falls back to the search oracle
silently (the Z_9 instance of x1 + x2 + x3 = 0 shows the composite formula
is genuinely partial).  A witness coloring attached to a result is
checked once, by _with_witness, against the result's own equation: it must
have exactly value - 1 colors and find_rainbow must find it rainbow-free.
The constructors that build it do not check it themselves; their proofs
live in the rainbownum.constructions docstrings.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import modring
from .coloring import Coloring, find_rainbow
from .constructions import symmetric_interval_coloring, two_power_coloring
from .equation import Equation, dilation_values
from .errors import ConsistencyError, NotCoveredError

PROV_CONVENTION_Z2 = "convention-z2"
PROV_Z3 = "z3-cases"
PROV_ZP_DICHOTOMY = "zp-dichotomy"
PROV_EQUAL_COEFFS = "equal-coefficients"
PROV_TWO_POWER = "two-power"
PROV_ZN_PRODUCT = "zn-product"
PROV_BRUTE = "brute-force"


@dataclass(frozen=True)
class RbResult:
    """A rainbow number plus where it came from.

    value lies in [3, n+1].  witness, when attached, is a rainbow-free
    exact coloring with exactly value - 1 colors: a lower-bound
    certificate.
    """

    value: int
    provenance: str
    witness: Coloring | None = None


def _with_witness(value: int, provenance: str, witness: Coloring, eq: Equation) -> RbResult:
    if witness.r != value - 1:
        raise ConsistencyError(
            f"witness has {witness.r} colors but value is {value}"
        )
    if not find_rainbow(witness, eq).rainbow_free:
        raise ConsistencyError(f"witness for {eq} is not rainbow-free")
    return RbResult(value, provenance, witness)


def rb_z3(eq: Equation) -> RbResult:
    """rb(Z_3, eq) for arbitrary coefficients, including zeros.

    3 when (b = 0 with a repeated coefficient) or (b != 0 with an unequal
    pair); otherwise 4, the convention value: the single exact 3-coloring
    of Z_3 is then rainbow-free.
    """
    if eq.n != 3:
        raise ValueError(f"modulus must be 3, got {eq.n}")
    a1, a2, a3, b = eq.a1, eq.a2, eq.a3, eq.b
    some_equal = a1 == a2 or a1 == a3 or a2 == a3
    all_equal = a1 == a2 == a3
    if (b == 0 and some_equal) or (b != 0 and not all_equal):
        return RbResult(3, PROV_Z3)
    return RbResult(4, PROV_Z3)


def rb_zp(eq: Equation) -> RbResult:
    """rb(Z_p, eq) for a prime modulus p = eq.n.

    p = 2 is 3 by convention and p = 3 delegates to rb_z3.  For p >= 5 the
    coefficients must all be units (NotCoveredError otherwise); equal
    coefficients give 4, and unequal ones give 3 exactly when every exact
    3-coloring of Z_p holds a rainbow solution: when a1+a2+a3 = 0 != b, or
    when the six dilation values multiplicatively generate Z_p^*.  Else 4.
    The symmetric-interval witness is attached in the equal-coefficient
    b = 0 case.
    """
    p = eq.n
    if not modring.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return RbResult(3, PROV_CONVENTION_Z2)
    if p == 3:
        return rb_z3(eq)
    if any(a == 0 for a in eq.coeffs):
        raise NotCoveredError(
            f"coefficients {eq.coeffs} mod {p} are not all units; only the "
            "search oracle applies"
        )
    if eq.a1 == eq.a2 == eq.a3:
        if eq.b == 0:
            return _with_witness(4, PROV_EQUAL_COEFFS, symmetric_interval_coloring(p), eq)
        return RbResult(4, PROV_EQUAL_COEFFS)
    closure = modring.multiplicative_closure(dilation_values(eq), p)
    value = 3 if eq.a_sum == 0 != eq.b or len(closure) == p - 1 else 4
    return RbResult(value, PROV_ZP_DICHOTOMY)


def rb_zn(eq: Equation) -> RbResult:
    """Composite formula: 2 + sum over p^a exactly dividing n = eq.n of
    a * (rb(Z_p, eq0 mod p) - 2), where eq0 is eq with b = 0.

    Covered exactly when a1*a2*a3 is a unit mod n and
      1) g = gcd(a1+a2+a3, n) divides b, and
      3) 3 | n and 3 | a1+a2+a3 do not both hold;
    the first failing condition is reported in NotCoveredError.  Condition 1
    says (a1+a2+a3)*t = b mod n has a root t, the least of which
    ``modring.least_roots`` gives.  Then x -> x - t maps the solutions of eq
    bijectively onto those of eq0, since the left side drops by exactly
    (a1+a2+a3)*t.  So c is a rainbow-free coloring for eq0 iff
    x -> c(x - t) is one for eq, with as many colors, and
    rb(Z_n, eq) = rb(Z_n, eq0).

    At n = 2^alpha the guard reads "all coefficients odd": then a1+a2+a3
    is odd, so g = 1, and 3 does not divide n.  The product is
    2 + alpha * (rb(Z_2) - 2) = alpha + 2, and two_power_coloring(alpha),
    translated by that t, is attached as the witness.
    """
    n = eq.n
    if gcd(eq.a1 * eq.a2 * eq.a3, n) != 1:
        raise NotCoveredError(f"a1*a2*a3 is not a unit mod {n}")
    (t,) = modring.least_roots(eq.a_sum, [eq.b], n)
    if t is None:
        raise NotCoveredError(
            f"gcd(a1+a2+a3, n) = {gcd(eq.a_sum, n)} does not divide b = {eq.b} "
            "(condition 1)"
        )
    if n % 3 == 0 and eq.a_sum % 3 == 0:
        raise NotCoveredError(
            "3 | n and a1+a2+a3 is divisible by 3 (condition 3); "
            "Z_9 shows the formula fails here"
        )
    eq0 = Equation(n, eq.a1, eq.a2, eq.a3, 0)
    value = 2
    for p, a in modring.factorize(n):
        value += a * (rb_zp(eq0.reduce_mod(p)).value - 2)
    if n & (n - 1):
        return RbResult(value, PROV_ZN_PRODUCT)
    witness = two_power_coloring(n.bit_length() - 1).translate(-t)
    return _with_witness(value, PROV_TWO_POWER, witness, eq)


def rb_formula(eq: Equation) -> RbResult:
    """Dispatch to the sharpest covering closed form.

    Primes go through rb_zp (which also covers a1+a2+a3 = 0 with b != 0,
    unreachable for rb_zn), everything else through rb_zn.
    """
    if modring.is_prime(eq.n):
        return rb_zp(eq)
    return rb_zn(eq)
