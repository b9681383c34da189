"""Brute-force oracle: exhaustive search over exact colorings of Z_n.

A coloring is rainbow-free iff no edge of the solution hypergraph -- the
3-element sets {u, v, w} such that some ordering solves the equation --
receives three distinct colors.  Rainbow-freeness is invariant under
renaming colors, so the search enumerates set partitions of Z_n into
exactly r blocks, encoded as restricted-growth strings, instead of labeled
colorings (an r!-fold saving).

Elements are assigned in a deterministic greedy order that completes
hypergraph edges as early as possible: under the natural 0..n-1 order the
first zero-sum edge closes near the end of the string, while the greedy
order closes one within the first three assignments.

The search looks ahead by forward checking (Haralick & Elliott,
"Increasing tree search efficiency for constraint satisfaction problems",
AI 1980): every unassigned element keeps the set of colors it may still
take, and once two elements of an edge hold different colors, the third
may only repeat one of them.  A branch dies as
soon as some element has no color left, or when the colors in use plus the
unassigned elements that may still take any color fall short of r: an
element narrowed to the colors of an edge can never open a new color.

On top of that the search applies an opening bound, a count argument over
all the colors still to open.  Pick one element from each class of a
rainbow-free completion whose color is not open yet.  These representatives
still admit any color, and no two of them lie on an edge whose third
element is already assigned: that element holds an open color, so the edge
would be rainbow.  A branch therefore dies unless the elements that may
still take any color hold an independent set, as large as the number of
colors still to open, in the graph joining the two unassigned elements of
every edge with one assigned element.  The order is fixed before the
search, so which edges have exactly one assigned element depends only on
the depth, never on the colors: the graph is built once per depth.

All cuts only drop subtrees without a solution, so the first coloring
found is the one a plain enumeration in the same order would find.

rb runs the search in two stages over one rising r, after the symmetry
line of Crawford, Ginsberg, Luks & Roy ("Symmetry-breaking predicates for
search problems", KR 1996).  When some c has (a1 + a2 + a3) c = 2b, the
reflection x -> c - x maps solutions to solutions, since
sum a_i (c - x_i) = (a1 + a2 + a3) c - b = b.  A coloring constant on its
orbits {x, c - x} is one coloring of the orbits with as many colors, and an
edge meeting an orbit twice holds two equal colors, so it is never
rainbow: such colorings correspond one-to-one to the colorings of the
quotient hypergraph, whose edges are the images of the edges meeting three
orbits, and rainbow-freeness is the same on both sides.  The first stage
searches the quotient at r = 3, 4, ... and every coloring it finds lifts to
a rainbow-free exact r-coloring of Z_n.  The full search resumes at the
quotient's first r without one: all smaller r are feasible, so by downward
closure (proved in rainbow_number_brute) its first infeasible r is rb.

The full search also breaks the symmetry of the affine maps
g(x) = u x + t, u a unit, with (u - 1) b + (a1 + a2 + a3) t = 0 (mod n), by
the lex-leader predicates of the same paper.  Each such g is a bijection of
Z_n, as u is invertible, and it sends every ordered solution to an ordered
solution: sum a_i (u x_i + t) = u b + (a1 + a2 + a3) t = b.  It keeps
distinct entries distinct, so it maps edges to edges, one-to-one, and a
coloring C is rainbow-free and exact with r colors iff C(g(x)) is.  The
search enumerates restricted-growth strings in lexicographic order, and its
cuts drop only subtrees without a solution, so the first coloring it finds
is the least solution P*.  The string of P* composed with g is a solution
too, hence not below P*: P* is a lex-leader.  A node whose prefix already
puts the string of P composed with some g below P, for every completion P,
holds no lex-leader, so cutting it never drops P*, and the first coloring,
every rb and every witness stay as they were.  The check starts at the
first failed subtree: any subset of these cuts is sound, and until a
subtree fails, every branch before the path was cut without a solution, so
a search that reaches a coloring that way has found P*, and no check could
have cut a node of its path.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import itemgetter
from typing import Iterator, Sequence

from . import modring
from .coloring import Coloring, find_rainbow
from .equation import Equation
from .errors import CapExceededError, ConsistencyError, ModulusMismatchError
from .formulas import PROV_BRUTE, RbResult


@dataclass(frozen=True)
class SearchConfig:
    """Configuration of the exhaustive search.

    ``n_cap`` is the largest modulus the oracle accepts.  At the default 48
    the slowest of the 24 shapes of ``scripts/oracle_range.py`` takes about
    2.5 s (2-core VM, Python 3.11.7).  That bound covers those shapes only:
    non-unit shapes with rb = 3 are slower well below the cap, 1,7,30 with
    b = 1 taking 7.9-9.6 s at n = 35 and 1,15,32 with b = 1 71 s at n = 40.
    The search is sequential: ``parallel`` and ``threads`` are accepted and
    ignored.  They go once the benchmark's traced run stops passing them to
    time ``search.parallel_speedup``.
    """

    n_cap: int = 48
    parallel: bool = False
    threads: int | None = None

    def __post_init__(self):
        if self.n_cap < 2:
            raise ValueError(f"n_cap must be >= 2, got {self.n_cap}")


@dataclass(frozen=True)
class RainbowHypergraph:
    """Distinct-element solution sets of an equation, as sorted 3-tuples.

    A coloring of Z_n is rainbow-free for the equation iff no edge here is
    tricolored: three distinct colors force three distinct elements.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def is_rainbow_free(self, assign: Sequence[int]) -> bool:
        for u, v, w in self.edges:
            cu, cv, cw = assign[u], assign[v], assign[w]
            if cu != cv and cu != cw and cv != cw:
                return False
        return True


def build_hypergraph(eq: Equation) -> RainbowHypergraph:
    """All unordered {s1, s2, s3} with distinct entries solving eq in some
    order, as sorted 3-tuples in lexicographic order.

    The edge set does not depend on the order of the coefficients:
    (s1, s2, s3) solves a1*x1 + a2*x2 + a3*x3 = b iff its entries, permuted
    like the coefficients, solve the permuted equation.  So the
    coefficients are sorted, an equal pair, if any, is moved to slots 1
    and 2, and s3 is read from buckets keyed by a3*s3 mod n.  When
    a1 = a2, swapping s1 and s2 maps solutions to solutions, so every edge
    has a solution with s1 < s2 (its entries are distinct) and only those
    pairs are tried.  When a1 = a2 = a3 every permutation does, so an
    edge's sorted entries solve eq, and listing s1 < s2 < s3 alone finds
    each edge exactly once.  Otherwise one edge may come from several
    solutions and is kept once.
    """
    n, b = eq.n, eq.b
    a1, a2, a3 = sorted(eq.coeffs)
    if a2 == a3:
        a1, a3 = a3, a1
    by_value: list[list[int]] = [[] for _ in range(n)]
    for s3 in range(n):
        by_value[a3 * s3 % n].append(s3)
    pair, triple = a1 == a2, a1 == a2 == a3
    edges = set()
    for s1 in range(n):
        rest = b - a1 * s1
        others = range(s1 + 1, n) if pair else [*range(s1), *range(s1 + 1, n)]
        for s2 in others:
            u, v = (s1, s2) if s1 < s2 else (s2, s1)
            for s3 in by_value[(rest - a2 * s2) % n]:
                if s3 > v:
                    edges.add((u, v, s3))
                elif triple:
                    continue
                elif s3 < u:
                    edges.add((s3, u, v))
                elif u < s3 < v:
                    edges.add((u, s3, v))
    return RainbowHypergraph(n, tuple(sorted(edges)))


def iter_exact_partitions(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of {0..n-1} into exactly r blocks, as color tuples.

    Restricted-growth encoding over the natural element order: every
    partition appears exactly once, so no two yields coincide up to color
    renaming.
    """
    if not 1 <= r <= n:
        return
    assign = [0] * n

    def rec(i: int, used: int):
        if used + (n - i) < r:
            return
        if i == n:
            if used == r:
                yield tuple(assign)
            return
        cap = used + 1 if used < r else r
        for col in range(cap):
            assign[i] = col
            yield from rec(i + 1, used + 1 if col == used else used)

    yield from rec(0, 0)


def _element_order(n: int, edges) -> list[int]:
    """Greedy assignment order: repeatedly pick the element that completes
    the most edges inside the prefix (ties: higher degree, then smaller
    value).  Deterministic.

    The key (completed, degree, -x) is packed into the int
    ``score[x] = (completed * (maxdeg + 1) + degree) * n + (n - 1 - x)``,
    which orders elements the same way since degree <= maxdeg and x < n.
    ``completed[y]`` counts the edges of y whose other two elements are in
    the prefix; it grows only when the second of those two joins, so each
    step adds ``(maxdeg + 1) * n`` to the scores along the edges of the
    element just placed.  A placed element's score drops to -1, below every
    other, so the next pick is the index of the largest score.
    """
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        incident[u].append((v, w))
        incident[v].append((u, w))
        incident[w].append((u, v))
    degree = [len(others) for others in incident]
    step = (max(degree, default=0) + 1) * n
    score = [degree[x] * n + n - 1 - x for x in range(n)]
    placed = [False] * n
    order: list[int] = []
    for _ in range(n):
        best = score.index(max(score))
        score[best] = -1
        placed[best] = True
        order.append(best)
        for y, z in incident[best]:
            if placed[y] is not placed[z]:
                score[z if placed[y] else y] += step
    return order


def _pairs_by_position(m: int, edges, pos: Sequence[int]):
    """For each of the m positions in the assignment order, the position
    pairs of edges whose last element is assigned at that step; ``pos[x]``
    is element x's position.  An edge that meets a position twice is
    dropped, and an edge whose positions repeat an earlier one's is kept
    once (neither occurs when ``pos`` is one-to-one)."""
    by_pos: list[dict[tuple[int, int], None]] = [{} for _ in range(m)]
    for u, v, w in edges:
        p, q, k = pos[u], pos[v], pos[w]
        if p > q:
            p, q = q, p
        if q > k:
            q, k = k, q
            if p > q:
                p, q = q, p
        if p != q != k:
            by_pos[k][p, q] = None
    return tuple([tuple(p) for p in by_pos])


def _independent(cand: int, adj: Sequence[int], need: int) -> bool:
    """Whether the positions in bitset ``cand`` hold ``need`` pairwise
    non-adjacent ones, ``adj[j]`` being the bitset of j's neighbors above j.

    Exact branching on the lowest candidate: take it (greedy, so a greedy
    success returns after ``need`` steps) or, if it has two neighbors left,
    drop it.  Every other candidate lies above it, so its neighbors above
    it are all the branch needs.  With at most one neighbor u left some
    largest independent set holds it (swap u for it), so taking it decides.
    A branch with fewer candidates than ``need`` is cut, and ``need`` = 1
    holds iff a candidate is left, which is tested in place of a call.
    """
    if need <= 1:
        return need <= 0 or cand != 0
    if cand.bit_count() < need:
        return False
    low = cand & -cand
    rest = cand ^ low
    nbrs = rest & adj[low.bit_length() - 1]
    if (rest != nbrs) if need == 2 else _independent(rest ^ nbrs, adj, need - 1):
        return True
    return nbrs & (nbrs - 1) != 0 and _independent(rest, adj, need)


def _plan(n, by_pos, maps=()):
    """What a search over ``by_pos`` needs besides r, built once per
    hypergraph and shared by its searches at every r.

    ``ahead[i]`` holds (p, k) for each edge whose positions are p < i < k.
    ``adjs[i][j]`` is the bitset of j's neighbors above j in the opening
    bound's pair graph once positions 0..i are assigned, which joins j and k
    for every edge p < j < k with p <= i.  ``seen[i]`` memoizes the
    ``_independent`` verdicts at depth i, keyed by ``cand | need << n``
    (``cand`` < 2**n, so the key is one-to-one).  A verdict is a function of
    ``adjs[i]``, the candidate bitset and ``need`` alone.  The graph depends
    only on the fixed order, and r enters only through ``need``, which is
    part of the key, so a verdict found at one r holds at every other and
    the memo stays valid over the whole loop over r.  ``maps`` are the
    position maps of the lex-leader check (``_position_maps``); none turns
    the check off.
    """
    ahead: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    # opened[p]: (j, k) for each edge whose positions in order are p < j < k
    opened: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, pairs in enumerate(by_pos):
        for p, i in pairs:
            ahead[i].append((p, k))
            opened[p].append((i, k))
    adj = [0] * n
    adjs = []
    for pairs in opened:
        for j, k in pairs:
            adj[j] |= 1 << k
        adjs.append(adj[:])
    seen: list[dict[int, bool]] = [{} for _ in range(n)]
    return ahead, adjs, seen, maps


def _dfs_first(n, r, by_pos, plan=None):
    """First valid coloring (colors by position), or None: the least
    rainbow-free exact r-coloring in restricted-growth order, found under
    the cuts of the module docstring.

    ``mask[k]`` holds the colors position k may still take (-1: any).  When
    position i takes color c, each edge {p, i, k} with p before i and k
    after it whose color(p) != c narrows k to {color(p), c}; an empty mask
    kills the branch, and the trail undoes the narrowing on backtrack.
    ``full`` is the bitset of unassigned positions whose mask is still -1.
    A child with positions 0..i assigned is entered only when ``full`` holds
    ``need`` = r - (colors in use) positions that are pairwise non-adjacent
    in ``adjs[i]``; ``need`` = 1 is the count test alone, so
    ``_independent`` runs only for ``need`` >= 2.

    The lex-leader check runs in ``_LexLeader`` over the plan's position
    maps, pi[j] = pos[g(order[j])] for each automorphism g, from the first
    failed subtree on: a child entered that returned no coloring, where
    ``_LexLeader`` builds the states for the current path in one sweep.  A
    straight path to a coloring does no comparison at all.

    ``plan`` is ``_plan(n, by_pos, maps)``, built here without maps when
    not given; a caller searching one hypergraph at several r passes the
    same plan to each.
    """
    ahead, adjs, seen, maps = plan or _plan(n, by_pos)
    colors = [0] * n
    mask = [-1] * n
    trail: list[tuple[int, int]] = []
    opened = [0] * r  # opened[label]: the position where P first takes it
    lex: _LexLeader | None = None

    def rec(i: int, used: int, full: int) -> bool:
        nonlocal lex
        if i == n:
            return True
        m = mask[i]
        if m == -1:
            full ^= 1 << i
        cap = used + 1 if used < r else r
        adj = adjs[i]
        verdicts = seen[i]
        for col in range(cap):
            if not m >> col & 1:
                continue
            colors[i] = col
            mark = len(trail)
            left_full = full
            bit = 1 << col
            for p, k in ahead[i]:
                cp = colors[p]
                if cp == col:
                    continue
                old = mask[k]
                new = old & ((1 << cp) | bit)
                if new != old:
                    trail.append((k, old))
                    mask[k] = new
                    if old == -1:
                        left_full ^= 1 << k
                    if not new:
                        break
            else:
                if col == used:
                    opened[col] = i
                    grown = used + 1
                else:
                    grown = used
                need = r - grown
                ok = need <= left_full.bit_count()
                if ok and need >= 2:
                    key = left_full | need << n
                    ok = verdicts.get(key)
                    if ok is None:
                        ok = verdicts[key] = _independent(left_full, adj, need)
                if not ok:
                    pass
                elif lex is None:
                    if rec(i + 1, grown, left_full):
                        return True
                    if lex is not None:  # the check started below: undo its sweep
                        lex.unwind(i)
                    elif maps:  # this is the first failed subtree
                        lex = _LexLeader(n, colors, opened, maps, i)
                elif lex.bucket[i]:
                    if lex.advance(i) and rec(i + 1, grown, left_full):
                        return True
                    lex.unwind(i)
                elif rec(i + 1, grown, left_full):
                    return True
            while len(trail) > mark:
                k, old = trail.pop()
                mask[k] = old
        return False

    try:
        return colors if rec(0, 0, (1 << n) - 1) else None
    finally:
        rec = None  # rec refers to itself; drop the cycle so no garbage is left


class _LexLeader:
    """The lex-leader comparisons of one search (see ``_dfs_first``), P
    being the search's ``colors`` and Q(j) = P(pi[j]) for each map pi.

    ``at[m]`` is the next position j that map m compares, every earlier
    one tying, or n once the map is done for the subtree.  Comparing at j
    needs positions j and pi[j], so a waiting map is listed in
    ``bucket[max(j, pi[j])]``.  As Q's string equals P's before j, it opens
    each label where P's does, at ``opened[label]``, so the label Q gives a
    color needs no state of its own.  ``undo`` logs each step as
    (map, index), and ``marks[i]`` is its length when position i took its
    current color; backtracking pops back to it, bucket entries included.

    Built for the path through positions 0..i-1 in one sweep.  A cut the
    sweep meets is not applied, which is sound as any subset of cuts is.
    """

    __slots__ = ("n", "colors", "opened", "perms", "at", "bucket", "undo", "marks")

    def __init__(self, n, colors, opened, perms, i):
        self.n, self.colors, self.opened, self.perms = n, colors, opened, perms
        # position 0 always ties, both strings starting with label 0
        self.at = [1] * len(perms)
        self.bucket = bucket = [[] for _ in range(n)]
        for m, pi in enumerate(perms):
            bucket[max(1, pi[0], pi[1])].append(m)
        self.undo: list[int] = []
        self.marks = marks = [0] * n
        for d in range(i):
            marks[d] = len(self.undo)
            if bucket[d]:
                self.advance(d)
        marks[i] = len(self.undo)

    def advance(self, i: int) -> bool:
        """Compare the maps waiting for position i; False if one cuts."""
        n, colors, opened, perms = self.n, self.colors, self.opened, self.perms
        at, bucket, undo = self.at, self.bucket, self.undo
        self.marks[i] = len(undo)
        for m in bucket[i]:
            pi = perms[m]
            j = at[m]
            undo.extend((m, j))
            while True:
                # Q's string equals P's before j, so Q opens label l at
                # opened[l] too, with P's color there through pi; the label
                # Q gives c = P(pi[j]) is below own iff some l < own has it
                own, c = colors[j], colors[pi[j]]
                t = opened[own]
                if t == j or colors[pi[t]] != c:
                    for label in range(own):
                        if colors[pi[opened[label]]] == c:
                            at[m] = n
                            return False
                    if t < j:
                        at[m] = n
                        break
                j += 1
                if j == n:
                    at[m] = n
                    break
                k = pi[j]
                if k < j:
                    k = j
                if k > i:
                    at[m] = j
                    bucket[k].append(m)
                    break
        return True

    def unwind(self, i: int) -> None:
        """Undo the steps logged since position i took its current color."""
        n, perms, at, bucket, undo = self.n, self.perms, self.at, self.bucket, self.undo
        mark = self.marks[i]
        while len(undo) > mark:
            j = undo.pop()
            m = undo.pop()
            k = at[m]
            if k < n:
                pi = perms[m]
                bucket[k if k > pi[k] else pi[k]].pop()
            at[m] = j


def _lift(eq, r, pos, colors):
    """The coloring by position ``colors`` lifted to Z_n through ``pos``
    (element -> position), relabeled in order of first appearance and
    re-verified as an exact rainbow-free r-coloring."""
    relabel: dict[int, int] = {}
    witness = Coloring(tuple([relabel.setdefault(colors[p], len(relabel)) for p in pos]))
    if witness.r != r:
        raise ConsistencyError(f"search produced {witness.r} colors instead of {r}")
    if not find_rainbow(witness, eq).rainbow_free:
        raise ConsistencyError("search produced a coloring with a rainbow solution")
    return witness


def _prepare(n, eq, cfg):
    """The hypergraph's edges, the element order and its inverse."""
    if eq.n != n:
        raise ModulusMismatchError(f"n = {n} but equation is mod {eq.n}")
    if n > cfg.n_cap:
        raise CapExceededError(f"n = {n} exceeds n_cap = {cfg.n_cap}")
    edges = build_hypergraph(eq).edges
    order = _element_order(n, edges)
    pos = [0] * n
    for i, x in enumerate(order):
        pos[x] = i
    return edges, order, pos


def _orbit_positions(eq, order):
    """Element -> orbit position for the reflection x -> c - x, with c the
    least root of (a1 + a2 + a3) c = 2b from ``modring.least_roots``,
    orbits numbered in order of first appearance in ``order``; None when
    there is no root."""
    n = eq.n
    (c,) = modring.least_roots(eq.a_sum, [2 * eq.b], n)
    if c is None:
        return None
    pos = [-1] * n
    m = 0
    for x in order:
        if pos[x] < 0:
            pos[x] = pos[(c - x) % n] = m
            m += 1
    return pos


def _affine_maps(eq):
    """The automorphisms x -> u x + t the lex-leader check uses, as (u, t).

    x -> u x + t, u a unit, maps solutions to solutions iff
    (u - 1) b + (a1 + a2 + a3) t = 0, since then
    sum a_i (u x_i + t) = u b + (a1 + a2 + a3) t = b.  These are every
    translation (u = 1) but the identity, the multiples of n / d with
    d = gcd(a1 + a2 + a3, n), and then for each unit u != 1 the one map with
    the least such t from ``modring.least_roots``, when there is one.  The
    whole group can be far larger (251 maps for 1,1,-2 over Z_21 against
    these 31), and its extra checks cost more than they cut.
    """
    n, s, b = eq.n, eq.a_sum, eq.b
    step = n // gcd(s, n)
    others = modring.units(n)[1:]
    roots = modring.least_roots(s, [(1 - u) * b for u in others], n)
    return ([(1, t) for t in range(step, n, step)]
            + [(u, t) for u, t in zip(others, roots) if t is not None])


def _position_maps(eq, order, pos):
    """The maps of ``_affine_maps`` on positions: pi[j] = pos[g(order[j])].

    ``ext[k]`` is pos[k mod n] for every k < n * n, which covers u x + t for
    all u, x, t < n, so the slice of ``ext`` from t in steps of u lists
    pos[u x + t] for x = 0..n-1; ``in_order`` reads it in the order."""
    n = eq.n
    ext = pos * n
    in_order = itemgetter(*order)
    return [list(in_order(ext[t:t + u * n:u])) for u, t in _affine_maps(eq)]


def exists_rainbow_free(
    n: int, eq: Equation, r: int, cfg: SearchConfig | None = None
) -> Coloring | None:
    """A rainbow-free exact r-coloring of Z_n for eq, or None if none exists.

    Enumeration covers every set partition into exactly r blocks, less the
    subtrees the lex-leader check shows to hold no first coloring; any
    coloring returned has been re-verified with find_rainbow (always on).
    """
    cfg = cfg or SearchConfig()
    if not 3 <= r <= n:
        raise ValueError(f"r must be in [3, {n}], got {r}")
    edges, order, pos = _prepare(n, eq, cfg)
    by_pos = _pairs_by_position(n, edges, pos)
    colors = _dfs_first(n, r, by_pos, _plan(n, by_pos, _position_maps(eq, order, pos)))
    return None if colors is None else _lift(eq, r, pos, colors)


def rainbow_number_brute(
    n: int, eq: Equation, cfg: SearchConfig | None = None
) -> RbResult:
    """rb(Z_n, eq) by the oracle: the least r in [3, n] admitting no
    rainbow-free exact r-coloring, or n + 1 when even the all-singletons
    coloring is rainbow-free.

    Attaches the rainbow-free coloring found at value - 1 colors as a
    lower-bound certificate (when value > 3).

    Stopping at the first r without a rainbow-free coloring is exact
    because the feasible r are downward closed: merging two color classes
    of a rainbow-free exact r-coloring (r > 3) gives an exact
    (r-1)-coloring, and a solution with three distinct merged colors
    already had three distinct colors before the merge, so the merged
    coloring is rainbow-free too.  Hence no r above the answer admits a
    rainbow-free coloring either; tests check this exhaustively for n <= 8.
    For the same reason the witness at value - 1 certifies every lower r,
    so only that last coloring is lifted to Z_n and re-verified.

    The search runs in the two stages of the module docstring over one
    rising r: the quotient by the reflection (skipped when there is none),
    then the full search with the lex-leader maps of ``_affine_maps``.  The
    witness is the lifted symmetric coloring whenever the quotient reached
    value - 1.  Each stage builds its pair lists and plan once and shares
    them over its r.

    A hypergraph without edges is answered without a search.  No coloring
    can then hold a tricolored edge, so every exact r-coloring with
    3 <= r <= n is rainbow-free and the value is n + 1.  The search would
    end at r = n, where the only exact coloring is the all-singletons one:
    its colors by position are 0, 1, ..., n - 1 (restricted growth forces
    each new position to open a new color), whose lift relabels Z_n in
    order of first appearance, the identity coloring.  That coloring is
    lifted and re-verified here too.  At n = 2 no r is searched: the value
    is 3 and there is no witness.
    """
    cfg = cfg or SearchConfig()
    edges, order, full = _prepare(n, eq, cfg)
    if not edges:
        witness = None if n < 3 else _lift(eq, n, full, range(n))
        return RbResult(value=n + 1, provenance=PROV_BRUTE, witness=witness)
    r, last = 3, None
    for pos in (_orbit_positions(eq, order), full):
        if pos is None:
            continue
        m = max(pos) + 1
        by_pos = _pairs_by_position(m, edges, pos)
        plan = _plan(m, by_pos, _position_maps(eq, order, pos) if pos is full else ())
        while r <= m:
            colors = _dfs_first(m, r, by_pos, plan)
            if colors is None:
                break
            last, r = (pos, colors), r + 1
    witness = None if last is None else _lift(eq, r - 1, *last)
    return RbResult(value=r, provenance=PROV_BRUTE, witness=witness)
