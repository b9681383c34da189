"""Exact colorings of Z_n and rainbow detection.

Rainbow detection (find_rainbow) tests each ordered pair of colors from its
smaller class on bitsets held in Python ints: for an r-coloring of Z_n,
sum over l1 != c3 of min(|class l1|, |class c3|) operations on n-bit ints
(at most n*(r - 1)), plus a bitset build.  The build takes O(n) Python
steps and shifts only the residues outside the largest class, of size m,
into n-bit ints, O((n - m)*n) digit operations, when the map's
coefficient is a unit mod n (the class images then partition Z_n, so the
largest one is the complement of the rest), and O(n^2) otherwise.
Only when a rainbow exists does a row scan name its first entry, followed
by an O(n) scan of that row for the witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Sequence

from .equation import Equation, Triple
from .errors import BadPartitionError, ConsistencyError, ModulusMismatchError


@dataclass(frozen=True)
class Coloring:
    """An exact r-coloring of Z_n stored densely: assign[x] is the color of x.

    Colors are contiguous ints 0..r-1 and every color occurs (exactness);
    the constructor rejects anything else.  r is computed once, by that
    validation, and takes no part in equality, hashing or repr.  Class
    views are derived on demand, never stored: the assignment array is
    the single source of truth.
    """

    assign: tuple[int, ...]
    r: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "r", len(used))

    @property
    def n(self) -> int:
        return len(self.assign)

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
        k %= self.n
        return Coloring(self.assign[k:] + self.assign[:k])

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
        # type(), not isinstance: bool is an int subclass, and JSON yields
        # no other
        if not {*map(type, colors)} <= {int}:
            raise BadPartitionError("'colors' entries must be integers")
        return cls(tuple(colors))


def save_coloring(coloring: Coloring, path) -> None:
    # one write of json.dumps: json.dump streams through the pure-Python
    # chunked encoder, several times slower for the same bytes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(coloring.to_json_dict()) + "\n")


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


def _image_bitsets(
    members: list[list[int]], coef: int, offset: int, n: int, big: int
) -> list[int]:
    """Per class xs of members, the bitset of {offset + coef*x : x in xs}.

    When coef is a unit mod n the map is a bijection of Z_n, so the images
    of the classes partition Z_n and the image of class big is the
    complement of the union of the others: only the residues outside
    class big are shifted in.  Otherwise every class is built by shifts.
    """
    skip = members[big] if gcd(coef, n) == 1 else None
    out = []
    rest = 0
    for xs in members:
        bits = 0
        if xs is not skip:
            for x in xs:
                bits |= 1 << ((offset + coef * x) % n)
            rest |= bits
        out.append(bits)
    if skip is not None:
        out[big] = ((1 << n) - 1) ^ rest
    return out


def _first_rainbow_row(eq: Equation, labels: Sequence[int], r: int) -> int | None:
    """The least s1 that starts a rainbow solution under labels 0..r-1, or
    None; the pair test, the row test and the build are proved in
    find_rainbow."""
    n = eq.n
    a1, a2, a3, b = eq.a1, eq.a2, eq.a3, eq.b
    full = (1 << n) - 1
    members: list[list[int]] = [[] for _ in range(r)]
    for x, c in enumerate(labels):
        members[c].append(x)
    big = members.index(max(members, key=len))
    U = _image_bitsets(members, a2, 0, n, big)
    W = _image_bitsets(members, -a3, 0, n, big)
    T: list[int] = []
    cov1 = cov2 = cov3 = 0
    for u in U:
        cov3 |= cov2 & u
        cov2 |= cov1 & u
        cov1 |= u
    P = [cov3 | cov2 & ~u for u in U]
    D = [cov2 | cov1 & ~u for u in U]
    # W doubled, so that a right shift by n - t rotates it left by t
    by_color = [(c3, w | w << n, full & ~u) for c3, (u, w) in enumerate(zip(U, W))]

    def some_pair_hits() -> bool:
        # the pair test of find_rainbow; T is built on first need
        for l1, rows in enumerate(members):
            p, d, k = P[l1], D[l1], len(rows)
            for c3, ww, not_u in by_color:
                if c3 == l1 or not (x := p | d & not_u):
                    continue
                cols = members[c3]
                if k <= len(cols):
                    for s1 in rows:
                        if ww >> (n - (b - a1 * s1) % n) & x:
                            return True
                    continue
                if not T:
                    T.extend(_image_bitsets(members, -a1, b, n, big))
                t = T[l1]
                xx = x | x << n
                for y in cols:
                    if xx >> (-a3 * y % n) & t:
                        return True
        return False

    if not some_pair_hits():
        return None
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

    The witness is the lexicographically first rainbow solution, hence
    deterministic.  Tests on bitsets held in Python ints, bit v standing
    for the value v of Z_n, decide whether a rainbow solution exists and,
    if one does, find its row s1.  That row alone is then listed, x2
    ascending and x3 read from buckets keyed by a3*x3 mod n, up to its
    first (s1, x2, x3) with three distinct colors.  A
    rainbow-free coloring costs sum over l1 != c3 of min(|class l1|,
    |class c3|) operations on n-bit ints (at most n*(r - 1), and far fewer
    when one class holds most of Z_n) plus the build below, where listing
    every row costs O(n^2) Python steps.  When a rainbow exists, the row
    test below then runs up to the witness row, followed by an O(n) scan
    of that row.

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

    The pair test.  Write X_{l1,c3} for X, t(s1) = b - a1*s1 and T_l1 =
    {t(s1) : color(s1) = l1}.  By the row test, some row of color l1
    holds a rainbow solution with x3 of color c3 iff t + w lies in X for
    some t in T_l1 and w in W_c3, and a rainbow solution exists iff this
    holds for some ordered pair l1 != c3.  A pair with X = 0 holds none.
    Otherwise the pair is tested from its smaller class: when |class l1|
    <= |class c3|, by rotating W_c3 left by t(s1) for each s1 of color l1
    and meeting X, as the row test does; else by rotating X right by
    w = -a3*y for each y of color c3 and meeting the bitset T_l1, since
    t + w lies in X iff t lies in X - w.  With XX = X | X << n, bit v of
    XX >> w is bit (v + w) mod n of X for 0 <= v < n, and T_l1 has no bit
    from n up.  The bitsets T_l of every color are built together, the
    first time some pair is tested from the c3 side.  When no pair holds
    a rainbow solution the coloring is rainbow-free; else the row test
    runs over s1 = 0, 1, ... to name the least row, so the witness is the
    one a row test alone would give.

    The build.  U, W and T are the images of the color classes under the
    maps f(x) = a2*x, f(x) = -a3*x and f(x) = b - a1*x.  The classes are
    listed first, in O(n) Python steps, and the largest, of size m, is
    chosen once.  When the coefficient of f is a unit mod n, f is a
    bijection of Z_n, so the images of the classes are disjoint and cover
    Z_n: they partition Z_n.  The image of the largest class is then the
    complement in Z_n of the union of the others, and only the n - m
    residues outside it are shifted into n-bit ints, O((n - m)*n) digit
    operations.  Otherwise two classes may share an image value, and each
    class is built by shifts, O(n^2) digit operations.
    """
    if coloring.n != eq.n:
        raise ModulusMismatchError(
            f"coloring is mod {coloring.n} but equation is mod {eq.n}"
        )
    labels = coloring.assign
    s1 = _first_rainbow_row(eq, labels, coloring.r)
    if s1 is None:
        return RainbowReport(None)
    n, a2, a3 = eq.n, eq.a2, eq.a3
    by_value: list[list[int]] = [[] for _ in range(n)]
    for s3 in range(n):
        by_value[a3 * s3 % n].append(s3)
    l1, rest = labels[s1], eq.b - eq.a1 * s1
    for s2 in range(n):
        l2 = labels[s2]
        if l2 != l1:
            for s3 in by_value[(rest - a2 * s2) % n]:
                if labels[s3] != l1 and labels[s3] != l2:
                    return RainbowReport((s1, s2, s3))
    raise ConsistencyError(f"row {s1} holds no rainbow solution")
