"""Exact colorings of Z_n and rainbow detection.

Rainbow detection (find_rainbow) tests one row s1 at a time on bitsets held
in Python ints: O(n*r) operations on n-bit ints for an r-coloring of Z_n,
plus an O(n) scan of the row that holds the witness.  rainbow_solutions
lists solutions in O(n^2 + #solutions) and backs the search's hypergraph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import modring
from .equation import Equation, Triple
from .errors import BadPartitionError, ModulusMismatchError


@dataclass(frozen=True)
class Coloring:
    """An exact r-coloring of Z_n stored densely: assign[x] is the color of x.

    Colors are contiguous ints 0..r-1 and every color occurs (exactness);
    the constructor rejects anything else.  Class views are derived on
    demand, never stored: the assignment array is the single source of
    truth.
    """

    assign: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assign", tuple(self.assign))
        n = len(self.assign)
        if n < 2:
            raise BadPartitionError(f"need a modulus >= 2, got {n} entries")
        used = set(self.assign)
        if used != set(range(len(used))):
            raise BadPartitionError(
                f"colors must be contiguous from 0 and all used, got {sorted(used)}"
            )

    @property
    def n(self) -> int:
        return len(self.assign)

    @property
    def r(self) -> int:
        return max(self.assign) + 1

    @classmethod
    def from_classes(cls, n: int, classes: Iterable[Iterable[int]]) -> Coloring:
        """Coloring in which the k-th class receives color k."""
        assign = [-1] * n
        for k, block in enumerate(classes):
            block = set(block)
            if not block:
                raise BadPartitionError(f"class {k} is empty")
            for x in block:
                if not 0 <= x < n:
                    raise BadPartitionError(f"residue {x} outside [0, {n})")
                if assign[x] != -1:
                    raise BadPartitionError(f"residue {x} appears in two classes")
                assign[x] = k
        if -1 in assign:
            raise BadPartitionError(f"residue {assign.index(-1)} is not covered")
        return cls(tuple(assign))

    def color_classes(self) -> list[frozenset[int]]:
        out: list[set[int]] = [set() for _ in range(self.r)]
        for x, c in enumerate(self.assign):
            out[c].add(x)
        return [frozenset(s) for s in out]

    def translate(self, k: int) -> Coloring:
        """The coloring x -> c(x + k); exactness is preserved."""
        n = self.n
        return Coloring(tuple([self.assign[(x + k) % n] for x in range(n)]))

    def dilate(self, d: int) -> Coloring:
        """The coloring whose classes are d*A for each class A of this one,
        i.e. x -> c(d^(-1) * x).  d must be a unit."""
        dinv = modring.try_inverse(d, self.n)
        n = self.n
        return Coloring(tuple([self.assign[dinv * x % n] for x in range(n)]))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "colors": list(self.assign)}

    @classmethod
    def from_json_dict(cls, obj: object) -> Coloring:
        if not isinstance(obj, dict):
            raise BadPartitionError("coloring document must be a JSON object")
        n = obj.get("n")
        colors = obj.get("colors")
        if not isinstance(n, int) or isinstance(n, bool):
            raise BadPartitionError("field 'n' must be an integer")
        if not isinstance(colors, list):
            raise BadPartitionError("field 'colors' must be a list")
        if len(colors) != n:
            raise BadPartitionError(f"'colors' has {len(colors)} entries but n = {n}")
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in colors):
            raise BadPartitionError("'colors' entries must be integers")
        return cls(tuple(colors))


def save_coloring(coloring: Coloring, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(coloring.to_json_dict(), fh)
        fh.write("\n")


def load_coloring(path) -> Coloring:
    with open(path, "r", encoding="utf-8") as fh:
        return Coloring.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class RainbowReport:
    """Outcome of rainbow detection: a witness ordered solution whose three
    entries carry three distinct colors, or None for rainbow-free."""

    witness: Triple | None

    @property
    def rainbow_free(self) -> bool:
        return self.witness is None


def rainbow_solutions(
    eq: Equation, labels: Sequence[int], start: int = 0
) -> Iterator[Triple]:
    """Ordered solutions (s1, s2, s3) of eq whose entries carry pairwise
    distinct labels and s1 >= start, in lexicographic order.

    x3 is looked up in buckets keyed by a3*x3 mod n, so the cost is
    O(n^2 + #solutions) for any coefficients, units or not; a pair (s1, s2)
    with equal labels is skipped before its bucket is read.  With the
    identity labels range(n) this lists the solutions with three distinct
    entries.
    """
    n = eq.n
    a1, a2, a3, b = eq.a1, eq.a2, eq.a3, eq.b
    by_value: list[list[int]] = [[] for _ in range(n)]
    for s3 in range(n):
        by_value[a3 * s3 % n].append(s3)
    for s1 in range(start, n):
        l1 = labels[s1]
        rest = b - a1 * s1
        for s2 in range(n):
            l2 = labels[s2]
            if l1 == l2:
                continue
            for s3 in by_value[(rest - a2 * s2) % n]:
                l3 = labels[s3]
                if l3 != l1 and l3 != l2:
                    yield (s1, s2, s3)


def _first_rainbow_row(eq: Equation, labels: Sequence[int], r: int) -> int | None:
    """The least s1 that starts a rainbow solution under labels 0..r-1, or
    None; the proof is in find_rainbow."""
    n = eq.n
    a1, a2, a3, b = eq.a1, eq.a2, eq.a3, eq.b
    full = (1 << n) - 1
    U = [0] * r
    W = [0] * r
    for x, c in enumerate(labels):
        U[c] |= 1 << (a2 * x % n)
        W[c] |= 1 << (-a3 * x % n)
    cov1 = cov2 = cov3 = 0
    for u in U:
        cov3 |= cov2 & u
        cov2 |= cov1 & u
        cov1 |= u
    P = [cov3 | cov2 & ~u for u in U]
    D = [cov2 | cov1 & ~u for u in U]
    # W doubled, so that a right shift by n - t rotates it left by t
    by_color = [(c3, w | w << n, full & ~u) for c3, (u, w) in enumerate(zip(U, W))]
    for s1 in range(n):
        l1 = labels[s1]
        shift = n - (b - a1 * s1) % n
        p, d = P[l1], D[l1]
        for c3, ww, not_u in by_color:
            if c3 != l1 and ww >> shift & (p | d & not_u):
                return s1
    return None


def find_rainbow(coloring: Coloring, eq: Equation) -> RainbowReport:
    """Search for a solution of eq whose entries get three distinct colors.

    The witness is the lexicographically first rainbow solution
    (rainbow_solutions with the coloring as labels), hence deterministic.
    Its row s1 is found by a test on bitsets held in Python ints, bit v
    standing for the value v of Z_n; rainbow_solutions then lists that row
    alone.  This costs O(n*r) operations on n-bit ints plus an O(n) scan
    of the witness row, where listing every row costs O(n^2).

    The row test.  Let t = b - a1*s1 and l1 the color of s1.  For each
    color c put U_c = {a2*x : color(x) = c} and W_c = {-a3*x : color(x) =
    c}.  (s1, x2, x3) solves eq iff a2*x2 = t + (-a3*x3), so row s1 starts
    a rainbow solution iff, for some c3 != l1, a value v lies in t + W_c3
    and in U_c2 for some c2 outside {l1, c3}.  Let S(v) = {c : v in U_c}
    and cov_k the values with |S(v)| >= k.  S(v) is not inside {l1, c3}
    iff |S(v)| >= 3; or |S(v)| = 2 and S(v) != {l1, c3}, that is v is not
    in U_l1 & U_c3; or |S(v)| = 1 and v is not in U_l1 | U_c3.  So the
    admissible values form

        X = cov3 | cov2 & ~(U_l1 & U_c3) | cov1 & ~(U_l1 | U_c3)
          = P_l1 | D_l1 & ~U_c3,

    where P_l = cov3 | cov2 & ~U_l and D_l = cov2 | cov1 & ~U_l (expand
    ~(U_l1 & U_c3) = ~U_l1 | ~U_c3 and regroup), and row s1 holds a
    rainbow solution iff (t + W_c3) & X != 0 for some c3 != l1.  The set
    t + W is W rotated left by t: with WW = W | W << n, bit v of
    WW >> (n - t) is bit (v - t) mod n of W for 0 <= v < n, and the bits
    from n up are cleared by the & with X.
    """
    if coloring.n != eq.n:
        raise ModulusMismatchError(
            f"coloring is mod {coloring.n} but equation is mod {eq.n}"
        )
    s1 = _first_rainbow_row(eq, coloring.assign, coloring.r)
    if s1 is None:
        return RainbowReport(None)
    return RainbowReport(next(rainbow_solutions(eq, coloring.assign, s1)))
