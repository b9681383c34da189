import ast
import gc
import random
import re
import subprocess
import sys
from itertools import combinations, combinations_with_replacement, permutations, product
from math import gcd
from pathlib import Path
from types import CodeType

import pytest
import reference_search
from solutions import shift_b

import rainbownum
from rainbownum import (
    CapExceededError,
    Equation,
    ModulusMismatchError,
    SearchConfig,
    build_hypergraph,
    exists_rainbow_free,
    find_rainbow,
    iter_exact_partitions,
    rainbow_number_brute,
    rb_formula,
)
from rainbownum.search import (
    _affine_maps,
    _LexLeader,
    _dfs_first,
    _element_order,
    _independent,
    _orbit_positions,
    _pairs_by_position,
    _plan,
    _position_maps,
)


def prepared(eq):
    """(n, by_pos) as the oracle prepares them for eq."""
    n, edges = eq.n, build_hypergraph(eq).edges
    pos = [0] * n
    for i, x in enumerate(_element_order(n, edges)):
        pos[x] = i
    return n, _pairs_by_position(n, edges, pos)


SEARCH_CODE = {
    "rec": next(c for c in _dfs_first.__code__.co_consts
                if isinstance(c, CodeType) and c.co_name == "rec"),
    "start": _LexLeader.__init__.__code__,
    "advance": _LexLeader.advance.__code__,
}


def count_calls(names, run):
    """run(), with the calls of the search functions ``names`` (keys of
    SEARCH_CODE) counted; returns (run's result, {name: calls})."""
    codes = {SEARCH_CODE[name]: name for name in names}
    calls = dict.fromkeys(names, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


def distinct_hypergraphs(max_n):
    """One equation per distinct (n, edge set), for every 2 <= n <= max_n."""
    seen = {}
    for n in range(2, max_n + 1):
        for t in product(range(n), repeat=4):
            eq = Equation(n, *t)
            seen.setdefault((n, build_hypergraph(eq).edges), eq)
    return list(seen.values())


def random_equations(seed, count, n_min, n_max):
    rng = random.Random(seed)
    eqs = []
    for _ in range(count):
        n = rng.randrange(n_min, n_max + 1)
        eqs.append(Equation(n, *(rng.randrange(n) for _ in range(4))))
    return eqs


def stirling2(n, r):
    table = [[0] * (r + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, r + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][r]


class TestHypergraph:
    def test_zero_sum_mod5(self):
        hg = build_hypergraph(Equation(5, 1, 1, 1, 0))
        assert set(hg.edges) == {(0, 1, 4), (0, 2, 3)}

    def test_zero_sum_mod3(self):
        hg = build_hypergraph(Equation(3, 1, 1, 1, 0))
        assert hg.edges == ((0, 1, 2),)

    def test_empty_for_b_one_mod3(self):
        assert build_hypergraph(Equation(3, 1, 1, 1, 1)).edges == ()

    def test_edges_have_distinct_entries(self):
        for n in (6, 8, 9):
            for coeffs in [(1, 1, 1), (2, 3, 4), (2, 2, 2), (0, 1, 2)]:
                hg = build_hypergraph(Equation(n, *coeffs, 1))
                for e in hg.edges:
                    assert len(set(e)) == 3
                    assert e == tuple(sorted(e))

    def test_matches_cubic_enumeration(self):
        # every equation with n < 8, then seeded ones up to n = 40 in each
        # coefficient shape the enumeration tells apart: all equal, an
        # equal pair in each pair of slots, all distinct; values are drawn
        # as zero, a non-unit or any residue
        eqs = [Equation(n, *t) for n in range(2, 8) for t in product(range(n), repeat=4)]
        rng = random.Random(99)

        def value(n):
            kind = rng.randrange(3)
            if kind == 0:
                return 0
            if kind == 1:
                return rng.choice([x for x in range(n) if gcd(x, n) > 1])
            return rng.randrange(n)

        for n in [*range(8, 41, 4), 21, 27, 35, 39]:
            for equal, distinct in [((0, 1, 2), 1), ((0, 1), 2), ((0, 2), 2),
                                    ((1, 2), 2), ((), 3)]:
                while True:
                    coeffs = [value(n) for _ in range(3)]
                    for i in equal[1:]:
                        coeffs[i] = coeffs[equal[0]]
                    if len(set(coeffs)) == distinct:
                        break
                eqs.append(Equation(n, *coeffs, rng.randrange(n)))
        for eq in eqs:
            n, a1, a2, a3, b = eq.n, *eq.coeffs, eq.b
            want = {t for t in combinations(range(n), 3)
                    if any((a1 * x + a2 * y + a3 * z - b) % n == 0
                           for x, y, z in permutations(t))}
            assert build_hypergraph(eq).edges == tuple(sorted(want)), eq


class TestIterExactPartitions:
    @pytest.mark.parametrize(
        "n, r, count",
        [(3, 3, 1), (4, 2, 7), (5, 3, 25), (6, 3, 90), (7, 3, 301), (7, 4, 350)],
    )
    def test_counts_match_stirling(self, n, r, count):
        parts = list(iter_exact_partitions(n, r))
        assert len(parts) == count == stirling2(n, r)

    def test_no_duplicates_up_to_renaming(self):
        seen = set()
        for assign in iter_exact_partitions(6, 3):
            blocks = {}
            for x, c in enumerate(assign):
                blocks.setdefault(c, set()).add(x)
            key = frozenset(frozenset(b) for b in blocks.values())
            assert key not in seen
            seen.add(key)

    def test_all_are_restricted_growth(self):
        for assign in iter_exact_partitions(6, 3):
            seen_max = -1
            for c in assign:
                assert c <= seen_max + 1
                seen_max = max(seen_max, c)


class TestExistsRainbowFree:
    def test_witness_exists_at_three_colors(self):
        c = exists_rainbow_free(5, Equation(5, 1, 1, 1, 0), 3)
        assert c is not None and c.r == 3
        assert find_rainbow(c, Equation(5, 1, 1, 1, 0)).rainbow_free

    def test_absent_at_four_colors(self):
        assert exists_rainbow_free(5, Equation(5, 1, 1, 1, 0), 4) is None

    def test_absent_for_z3(self):
        assert exists_rainbow_free(3, Equation(3, 1, 1, 1, 0), 3) is None

    def test_cap(self):
        with pytest.raises(CapExceededError):
            exists_rainbow_free(25, Equation(25, 1, 1, 1, 0), 3, SearchConfig(n_cap=20))

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatchError):
            exists_rainbow_free(5, Equation(7, 1, 1, 1, 0), 3)

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            exists_rainbow_free(5, Equation(5, 1, 1, 1, 0), 2)
        with pytest.raises(ValueError):
            exists_rainbow_free(5, Equation(5, 1, 1, 1, 0), 6)

    def test_pruned_matches_unpruned_existence(self):
        # oracle vs oracle: pruned DFS against the unpruned partition census
        rng = random.Random(7)
        eqs = [
            Equation(3, 1, 1, 1, 0), Equation(4, 1, 3, 3, 2),
            Equation(6, 1, 1, 1, 0), Equation(6, 2, 2, 2, 3), Equation(7, 1, 2, 3, 1),
            Equation(8, 1, 3, 5, 0), Equation(8, 0, 1, 2, 4), Equation(5, 1, 1, 3, 1),
        ]
        for _ in range(6):
            n = rng.randrange(5, 9)
            eqs.append(Equation(n, rng.randrange(n), rng.randrange(n), rng.randrange(n), rng.randrange(n)))
        for eq in eqs:
            hg = build_hypergraph(eq)
            for r in range(3, eq.n + 1):
                pruned = exists_rainbow_free(eq.n, eq, r)
                plain = next(
                    (a for a in iter_exact_partitions(eq.n, r) if hg.is_rainbow_free(a)),
                    None,
                )
                assert (pruned is None) == (plain is None), (eq, r)


class TestRainbowNumberBrute:
    @pytest.mark.parametrize(
        "n, coeffs, b, expected",
        [
            (3, (1, 1, 1), 0, 3),
            (9, (1, 1, 1), 0, 5),
            (8, (1, 1, 1), 0, 5),
            (5, (1, 2, 3), 0, 3),
            (2, (1, 1, 1), 0, 3),
            (3, (0, 1, 2), 0, 4),
        ],
    )
    def test_known_values(self, n, coeffs, b, expected):
        assert rainbow_number_brute(n, Equation(n, *coeffs, b)).value == expected

    def test_witness_attached_when_value_above_three(self):
        res = rainbow_number_brute(9, Equation(9, 1, 1, 1, 0))
        assert res.value == 5
        assert res.provenance == "brute-force"
        assert res.witness is not None and res.witness.r == 4
        assert find_rainbow(res.witness, Equation(9, 1, 1, 1, 0)).rainbow_free

    def test_no_witness_at_three(self):
        assert rainbow_number_brute(5, Equation(5, 1, 2, 3, 0)).witness is None

    def test_convention_value_gets_full_witness(self):
        res = rainbow_number_brute(3, Equation(3, 0, 1, 2, 0))
        assert res.value == 4
        assert res.witness is not None and res.witness.r == 3

    def test_monotonicity_verified_empirically(self):
        """Downward closure (proved in rainbow_number_brute's docstring),
        checked on every equation with 3 <= n <= 8.

        The search sees an equation only through its solution hypergraph,
        so each distinct hypergraph is searched once: the r admitting a
        rainbow-free exact r-coloring must form an interval [3, rb - 1],
        and for n <= 7 that set must equal the one found by the unpruned
        partition census.
        """
        seen = set()
        for n in range(3, 9):
            for a1, a2, a3, b in product(range(n), repeat=4):
                eq = Equation(n, a1, a2, a3, b)
                hg = build_hypergraph(eq)
                if (n, hg.edges) in seen:
                    continue
                seen.add((n, hg.edges))
                feasible = [r for r in range(3, n + 1) if exists_rainbow_free(n, eq, r)]
                value = rainbow_number_brute(n, eq).value
                assert feasible == list(range(3, value)), eq
                if n <= 7:
                    census = [
                        r for r in range(3, n + 1)
                        if any(hg.is_rainbow_free(a) for a in iter_exact_partitions(n, r))
                    ]
                    assert census == feasible, eq
        assert len(seen) == 493

    def test_cap(self):
        n = SearchConfig().n_cap + 1
        with pytest.raises(CapExceededError):
            rainbow_number_brute(n, Equation(n, 1, 1, 1, 0))

    def test_shift_invariance_small(self):
        for n in (5, 6, 7):
            eq = Equation(n, 1, 2, 3, 0)
            base = rainbow_number_brute(n, eq).value
            for k in range(n):
                assert rainbow_number_brute(n, shift_b(eq, k)).value == base


class TestOneLiftPerAnswer:
    """By downward closure the witness certifies every lower r, so the
    oracle lifts and re-verifies only the coloring it returns."""

    @pytest.fixture
    def lifts(self, monkeypatch):
        """The color counts of the colorings the search re-verifies."""
        seen = []

        def counted(coloring, eq):
            seen.append(coloring.r)
            return find_rainbow(coloring, eq)

        monkeypatch.setattr("rainbownum.search.find_rainbow", counted)
        return seen

    def test_deep_instances(self, lifts):
        deep = [(21, (1, 1, -2)), (20, (1, 1, -2)), (20, (1, 2, 4)),
                (21, (1, 1, 1)), (20, (1, 1, 1))]
        cfg = SearchConfig(n_cap=24)
        values = [rainbow_number_brute(n, Equation(n, *c, 0), cfg).value for n, c in deep]
        assert values == [4, 4, 4, 5, 6]
        assert lifts == [3, 3, 3, 4, 5]

    @pytest.mark.parametrize(
        "n, coeffs, value, lifted",
        [(12, (1, 1, 1), 5, [4]), (5, (1, 2, 3), 3, [])],  # rb = 3 has no witness
    )
    def test_at_most_one_call(self, lifts, n, coeffs, value, lifted):
        assert rainbow_number_brute(n, Equation(n, *coeffs, 0)).value == value
        assert lifts == lifted

    def test_exists_lifts_what_it_returns(self, lifts):
        eq = Equation(5, 1, 1, 1, 0)
        assert exists_rainbow_free(5, eq, 3) is not None
        assert lifts == [3]
        assert exists_rainbow_free(5, eq, 4) is None
        assert lifts == [3]


class TestElementOrder:
    """The incremental order against the plain one that recounts every
    candidate's completed edges at every step."""

    def test_matches_reference_small(self):
        for eq in distinct_hypergraphs(9):
            edges = build_hypergraph(eq).edges
            assert _element_order(eq.n, edges) == reference_search.element_order(eq.n, edges), eq

    def test_matches_reference_random(self):
        for eq in random_equations(41, 60, 10, 40):
            edges = build_hypergraph(eq).edges
            assert _element_order(eq.n, edges) == reference_search.element_order(eq.n, edges), eq


class TestForwardChecking:
    """The forward-checking DFS returns the plain DFS's first coloring."""

    def test_every_small_hypergraph_every_r(self):
        for eq in distinct_hypergraphs(8):
            n, by_pos = prepared(eq)
            for r in range(1, n + 1):
                assert _dfs_first(n, r, by_pos) == reference_search.dfs_first(n, r, by_pos), (eq, r)

    def test_random_equations(self):
        for eq in random_equations(12, 60, 9, 14):
            n, by_pos = prepared(eq)
            for r in range(3, n + 1):
                want = reference_search.dfs_first(n, r, by_pos)
                assert _dfs_first(n, r, by_pos) == want, (eq, r)
                if want is None:
                    break  # downward closure: no larger r has a coloring

    def test_leaves_no_cyclic_garbage(self):
        gc.collect()
        gc.disable()
        try:
            rainbow_number_brute(12, Equation(12, 1, 1, 1, 0))
            exists_rainbow_free(11, Equation(11, 1, 1, 1, 0), 4)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOpeningBound:
    """The exact independent-set test behind the opening bound, and the
    nodes the bound saves."""

    def test_independent_matches_brute_force(self):
        rng = random.Random(16)
        for _ in range(600):
            size = rng.randrange(13)
            density = rng.random()
            adj = [0] * size  # adj[j]: j's neighbors above j
            for j, k in combinations(range(size), 2):
                if rng.random() < density:
                    adj[j] |= 1 << k
            cand = rng.getrandbits(size) if size else 0
            members = [j for j in range(size) if cand >> j & 1]
            for need in range(7):
                want = any(
                    all(not adj[j] >> k & 1 for j, k in combinations(group, 2))
                    for group in combinations(members, need)
                )
                assert _independent(cand, adj, need) == want, (adj, cand, need)

    def test_deep_node_gate(self):
        # calls of the nested rec over the rb computations of the benchmark's
        # five deep instances, quotient searches included: 19,725 with
        # forward checking alone, 5,718 with the opening bound, 2,202 with
        # the symmetric stage, 824 with the lex-leader check
        rec = next(c for c in _dfs_first.__code__.co_consts
                   if isinstance(c, CodeType) and c.co_name == "rec")
        nodes = 0

        def profile(frame, event, arg):
            nonlocal nodes
            if event == "call" and frame.f_code is rec:
                nodes += 1

        cfg = SearchConfig(n_cap=24)
        deep = [(21, (1, 1, -2)), (20, (1, 1, -2)), (20, (1, 2, 4)),
                (21, (1, 1, 1)), (20, (1, 1, 1))]
        sys.setprofile(profile)
        try:
            values = [rainbow_number_brute(n, Equation(n, *c, 0), cfg).value
                      for n, c in deep]
        finally:
            sys.setprofile(None)
        assert values == [4, 4, 4, 5, 6]
        assert nodes == 824


class TestSymmetricStage:
    """rb with the quotient stage and the shared plan, against a plain
    ascending loop over the reference DFS."""

    def reference_rb(self, eq):
        n, by_pos = prepared(eq)
        for r in range(3, n + 1):
            if reference_search.dfs_first(n, r, by_pos) is None:
                return r
        return n + 1

    def check(self, eq):
        res = rainbow_number_brute(eq.n, eq)
        assert res.value == self.reference_rb(eq), eq
        if res.value == 3:
            assert res.witness is None, eq
        else:
            assert res.witness.r == res.value - 1, eq
            assert find_rainbow(res.witness, eq).rainbow_free, eq

    def test_every_small_hypergraph(self):
        for eq in distinct_hypergraphs(8):
            self.check(eq)

    def test_random_equations(self):
        for eq in random_equations(17, 150, 9, 16):
            self.check(eq)

    def test_reflection_with_non_unit_sum(self):
        # (2 + 2 + 2) c = 2b = 4 (mod 8) first holds at c = 2
        eq = Equation(8, 2, 2, 2, 2)
        pos = _orbit_positions(eq, list(range(8)))
        assert all(pos[x] == pos[(2 - x) % 8] for x in range(8))
        assert max(pos) + 1 == 5  # orbits {1} and {5} are fixed points
        self.check(eq)

    def test_no_reflection(self):
        # (1 + 1 + 2) c = 4c is never 2b = 2 (mod 8)
        eq = Equation(8, 1, 1, 2, 1)
        assert _orbit_positions(eq, list(range(8))) is None
        self.check(eq)

    def test_empty_hypergraph_runs_no_search(self):
        # no edge: every coloring is rainbow-free, so rb = n + 1 with the
        # all-singletons coloring, the identity, as witness (none at n = 2)
        empty = [Equation(n, *t, b) for n in range(2, 13)
                 for t in combinations_with_replacement(range(n), 3)
                 for b in range(n) if not build_hypergraph(Equation(n, *t, b)).edges]
        assert {eq.n for eq in empty} == set(range(2, 13))
        for eq in empty:
            res, calls = count_calls(["rec"], lambda: rainbow_number_brute(eq.n, eq))
            assert calls["rec"] == 0, eq
            assert res.value == eq.n + 1 == self.reference_rb(eq), eq
            if eq.n == 2:
                assert res.witness is None, eq
            else:
                assert res.witness.assign == tuple(range(eq.n)), eq

    def test_shared_plan_matches_fresh_calls(self):
        for eq in random_equations(18, 80, 5, 16):
            n, by_pos = prepared(eq)
            plan = _plan(n, by_pos)
            for r in range(3, n + 1):
                assert _dfs_first(n, r, by_pos, plan) == _dfs_first(n, r, by_pos), (eq, r)


def with_maps(eq):
    """(n, by_pos, plan) as the oracle's full stage prepares them for eq,
    the lex-leader maps included."""
    n, edges = eq.n, build_hypergraph(eq).edges
    order = _element_order(n, edges)
    pos = [0] * n
    for i, x in enumerate(order):
        pos[x] = i
    by_pos = _pairs_by_position(n, edges, pos)
    return n, by_pos, _plan(n, by_pos, _position_maps(eq, order, pos))


class TestLexLeader:
    """The affine maps are automorphisms, and the search that checks them
    returns the plain DFS's first coloring."""

    def check_maps(self, eq):
        n, edges = eq.n, set(build_hypergraph(eq).edges)
        maps = _affine_maps(eq)
        assert (1, 0) not in maps, eq
        for u, t in maps:
            image = {tuple(sorted((u * x + t) % n for x in e)) for e in edges}
            assert image == edges, (eq, u, t)
        return maps

    def test_maps_are_automorphisms_small(self):
        for eq in distinct_hypergraphs(8):
            self.check_maps(eq)

    def test_maps_are_automorphisms_random(self):
        # every b for each seeded coefficient triple, plus zero and non-unit
        # coefficients over Z_30
        rng = random.Random(19)
        triples = [(30, 0, 2, 4), (30, 2, 2, 2), (30, 6, 10, 15), (30, 1, 1, -2)]
        for _ in range(30):
            n = rng.randrange(9, 31)
            triples.append((n, rng.randrange(n), rng.randrange(n), rng.randrange(n)))
        found = 0
        for n, a1, a2, a3 in triples:
            for b in range(n):
                found += len(self.check_maps(Equation(n, a1, a2, a3, b)))
        assert found > 0

    def test_map_count(self):
        # 1,1,-2 over Z_21: the 20 translations and one map for each of the
        # 11 units other than 1, of the group's 251 maps besides the identity
        assert len(_affine_maps(Equation(21, 1, 1, -2, 0))) == 31
        # 1,1,1 with b = 1 over Z_8: 3t = 1 - u has a root for every unit u
        assert _affine_maps(Equation(8, 1, 1, 1, 1)) == [(3, 2), (5, 4), (7, 6)]

    def test_every_small_hypergraph_every_r(self):
        for eq in distinct_hypergraphs(8):
            n, by_pos, plan = with_maps(eq)
            for r in range(1, n + 1):
                want = reference_search.dfs_first(n, r, by_pos)
                assert _dfs_first(n, r, by_pos, plan) == want, (eq, r)

    def test_random_equations(self):
        for eq in random_equations(20, 150, 9, 16):
            n, by_pos, plan = with_maps(eq)
            for r in range(3, n + 1):
                want = reference_search.dfs_first(n, r, by_pos)
                assert _dfs_first(n, r, by_pos, plan) == want, (eq, r)
                if want is None:
                    break  # downward closure: no larger r has a coloring

    def test_straight_path_does_no_comparison(self):
        # 5,0,11 over Z_16 has rb = 17; the full stage runs r = 10..16, and
        # each search walks straight down to its coloring in n + 1 nodes
        eq = Equation(16, 5, 0, 11, 0)
        n, by_pos, plan = with_maps(eq)
        for r in range(10, 17):
            found, calls = count_calls(
                ["rec", "start", "advance"], lambda: _dfs_first(n, r, by_pos, plan))
            assert found == reference_search.dfs_first(n, r, by_pos)
            assert calls == {"rec": n + 1, "start": 0, "advance": 0}, r

    def test_failed_subtree_starts_the_check(self):
        # 1,1,1 over Z_21 at r = 5 has no coloring: the check starts once,
        # compares, and cuts nodes
        eq = Equation(21, 1, 1, 1, 0)
        n, by_pos, plan = with_maps(eq)
        found, calls = count_calls(
            ["rec", "start", "advance"], lambda: _dfs_first(n, 5, by_pos, plan))
        assert found is None
        assert calls["start"] == 1 and calls["advance"] > 0
        _, plain = count_calls(["rec"], lambda: _dfs_first(n, 5, by_pos))
        assert calls["rec"] < plain["rec"]


class TestFrontier:
    """The oracle at n = 32 and 40, against an independent answer, with the
    witness re-verified."""

    def check(self, eq, expected):
        res = rainbow_number_brute(eq.n, eq, SearchConfig(n_cap=eq.n))
        assert res.value == expected
        assert res.witness.r == expected - 1
        assert find_rainbow(res.witness, eq).rainbow_free

    def test_zero_sum_matches_formula(self):
        eq = Equation(32, 1, 1, 1, 0)
        assert rb_formula(eq).value == 7
        self.check(eq, 7)

    def test_zero_sum_matches_formula_at_40(self):
        eq = Equation(40, 1, 1, 1, 0)
        assert rb_formula(eq).value == 7
        self.check(eq, 7)

    def test_zero_coefficient_components(self):
        # With a3 = 0 and r >= 3 colors, a solution (s1, s2, x3) has
        # s1 + s2 = 1 and any x3, which can take a third color; so it is
        # rainbow iff s1 and s2 differ, and a coloring is rainbow-free iff
        # each pair {s, 1 - s} is monochromatic.  2s = 1 has no solution
        # mod 32, so the pairs split Z_32 into kappa = 16 components, exact
        # r-colorings with monochromatic components exist iff r <= 16, and
        # rb = kappa + 1 = 17.
        self.check(Equation(32, 1, 1, 0, 1), 17)


class TestParallel:
    # SearchConfig keeps parallel and threads as accepted-and-ignored
    # fields; a config that sets them must give the default's answers
    def test_parallel_matches_sequential_value_and_witness(self):
        eq = Equation(11, 1, 1, 1, 0)
        seq = exists_rainbow_free(11, eq, 3)
        par = exists_rainbow_free(
            11, eq, 3,
            SearchConfig(parallel=True, threads=2),
        )
        assert par == seq

    def test_parallel_exhaustion_agrees(self):
        eq = Equation(11, 1, 1, 1, 0)
        assert exists_rainbow_free(11, eq, 4, SearchConfig(parallel=True, threads=2)) is None

    def test_brute_value_deterministic_under_parallel(self):
        eq = Equation(12, 1, 1, 1, 0)
        seq = rainbow_number_brute(12, eq)
        par = rainbow_number_brute(12, eq, SearchConfig(parallel=True, threads=2))
        assert par.value == seq.value
        assert par.witness == seq.witness


class TestSearchConfig:
    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            SearchConfig(n_cap=1)


def test_import_loads_no_process_machinery():
    # a process pool cost every import about 20 ms and 2 MB; the search is
    # sequential, so importing the package must not pull that machinery in
    src = str(Path(rainbownum.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import rainbownum; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    done = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def _names_from_package(tree, relative):
    """Names bound by ``from rainbownum import ...`` in an ast, or by the
    package-relative ``from . import ...`` / ``from .mod import ...`` when
    ``relative``."""
    return {alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            if (node.level == 1 if relative
                else node.level == 0 and node.module == "rainbownum")
            for alias in node.names}


def test_public_surface_is_what_callers_import():
    # __all__ holds the error classes, Coloring, and what the README's
    # Python block, the CLI, the scripts and the benchmark import, no more
    root = Path(rainbownum.__file__).resolve().parents[2]
    readme = (root / "README.md").read_text(encoding="utf-8")
    callers = set()
    for block in re.findall(r"```python\n(.*?)```", readme, re.DOTALL):
        callers |= _names_from_package(ast.parse(block), relative=False)
    for path in sorted([*root.glob("scripts/*.py"), *root.glob("perfbench/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers |= _names_from_package(tree, relative=False)
    cli = Path(rainbownum.__file__).with_name("cli.py").read_text(encoding="utf-8")
    from_cli = _names_from_package(ast.parse(cli), relative=True)
    errors = {name for name, obj in vars(rainbownum.errors).items()
              if isinstance(obj, type) and issubclass(obj, rainbownum.RainbowError)}
    exported = set(rainbownum.__all__)
    assert "rb_formula" in callers and "SearchConfig" in callers
    assert callers - exported == set()
    assert exported - callers - from_cli - errors == {"Coloring"}
    assert errors <= exported
    namespace = {}
    exec("from rainbownum import *", namespace)
    assert exported <= set(namespace)


def test_no_tuple_of_generator_in_package():
    """tuple(<generator>) allocates a guessed length (10) and reallocs to the
    real length n; freed, that tuple joins the length-n free list, not the
    list it was taken from, so every call moves memory onto lists that pin
    pymalloc pools (see test_oracle_keeps_tuple_free_lists_small).  Build the
    list first: tuple([...]) allocates the exact length."""
    package = Path(rainbownum.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "tuple" and len(node.args) == 1
                    and not node.keywords
                    and isinstance(node.args[0], ast.GeneratorExp)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_oracle_keeps_tuple_free_lists_small():
    # 3,600 oracle calls on scan-sized equations, then the interpreter's count
    # of free tuples of lengths 2-19.  A tuple(<generator>) in the oracle's
    # per-call path adds about 1.5 to it per call (6,403 in all on CPython
    # 3.11.7); with exact-length tuples it stays near the 900 left after
    # start-up.
    src = str(Path(rainbownum.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from rainbownum import Equation, rainbow_number_brute\n"
        "shapes = [(1, 1, 1), (1, 1, -2), (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 3, 6)]\n"
        "for _ in range(20):\n"
        "    for n in range(2, 17):\n"
        "        for a in shapes:\n"
        "            for b in (0, 1):\n"
        "                rainbow_number_brute(n, Equation(n, *a, b))\n"
        "sys._debugmallocstats()\n"
    )
    done = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, check=True)
    free = {int(size): int(count) for count, size in re.findall(
        r"^\s*(\d+) free (\d+)-sized PyTupleObjects", done.stderr, re.M)}
    if not free:
        pytest.skip("this interpreter does not report tuple free lists")
    assert sum(free.get(size, 0) for size in range(2, 20)) < 2000, free
