"""The linear equation a1*x1 + a2*x2 + a3*x3 = b over Z_n."""

from __future__ import annotations

from dataclasses import dataclass

from . import modring
from .errors import NotDivisorError

Triple = tuple[int, int, int]


@dataclass(frozen=True)
class Equation:
    """Value object for a1*x1 + a2*x2 + a3*x3 = b over Z_n.

    Coefficients are positional (the dilation-value formulas distinguish
    the three slots), so no reordering is ever applied.  All fields are
    reduced into [0, n) on construction; negative inputs are fine.
    """

    n: int
    a1: int
    a2: int
    a3: int
    b: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"modulus must be >= 2, got {self.n}")
        for name in ("a1", "a2", "a3", "b"):
            object.__setattr__(self, name, getattr(self, name) % self.n)

    @property
    def coeffs(self) -> Triple:
        return (self.a1, self.a2, self.a3)

    @property
    def a_sum(self) -> int:
        """a1 + a2 + a3 mod n, computed on demand."""
        return (self.a1 + self.a2 + self.a3) % self.n

    def is_solution(self, t: Triple) -> bool:
        s1, s2, s3 = t
        return (self.a1 * s1 + self.a2 * s2 + self.a3 * s3 - self.b) % self.n == 0

    def reduce_mod(self, m: int) -> Equation:
        """The same equation read mod a divisor m of n."""
        if m < 2 or self.n % m != 0:
            raise NotDivisorError(f"{m} is not a divisor >= 2 of {self.n}")
        return Equation(m, self.a1, self.a2, self.a3, self.b)

    def __str__(self):
        lhs = " + ".join(f"{a}*x{i}" for i, a in enumerate(self.coeffs, 1))
        return f"{lhs} = {self.b} (mod {self.n})"


def dilation_values(eq: Equation) -> tuple[int, int, int, int, int, int]:
    """The six coefficient ratios -a_j * a_i^(-1) that govern the prime
    3-vs-4 dichotomy through their multiplicative closure, as the tuple
    (d1, ..., d6) with d1 = -a3/a1, d2 = -a2/a1, d3 = -a1/a2, d4 = -a3/a2,
    d5 = -a1/a3, d6 = -a2/a3.

    All three coefficients must be units (NonUnitError otherwise); intended
    for prime moduli.
    """
    n = eq.n
    i1 = modring.try_inverse(eq.a1, n)
    i2 = modring.try_inverse(eq.a2, n)
    i3 = modring.try_inverse(eq.a3, n)
    return (
        -eq.a3 * i1 % n,
        -eq.a2 * i1 % n,
        -eq.a1 * i2 % n,
        -eq.a3 * i2 % n,
        -eq.a1 * i3 % n,
        -eq.a2 * i3 % n,
    )

