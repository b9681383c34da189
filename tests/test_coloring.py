import json
import random
from itertools import product
from math import gcd

import pytest
from hypothesis import given, strategies as st
from palette import NotProjectableError, palette_view, project_palette_coloring
from solutions import rainbow_solutions, shift_b

from rainbownum import (
    BadPartitionError,
    Coloring,
    Equation,
    ModulusMismatchError,
    NotDivisorError,
    find_rainbow,
    load_coloring,
    rb_formula,
    save_coloring,
)
from rainbownum.constructions import (
    product_coloring,
    symmetric_interval_coloring,
    two_power_coloring,
)
from rainbownum.search import exists_rainbow_free

SYM5 = Coloring.from_classes(5, [{0}, {1, 4}, {2, 3}])


def cubic_find_rainbow(coloring, eq):
    """Independent reference: scan all n^3 ordered triples."""
    n = eq.n
    col = coloring.assign
    for s1 in range(n):
        for s2 in range(n):
            for s3 in range(n):
                if (eq.a1 * s1 + eq.a2 * s2 + eq.a3 * s3 - eq.b) % n == 0:
                    if col[s1] != col[s2] != col[s3] != col[s1]:
                        return (s1, s2, s3)
    return None


def random_coloring(rng, n, r):
    while True:
        assign = [rng.randrange(r) for _ in range(n)]
        if len(set(assign)) == r:
            relabel = {}
            for c in assign:
                relabel.setdefault(c, len(relabel))
            return Coloring(tuple(relabel[c] for c in assign))


class TestConstruction:
    def test_from_classes_order_is_color(self):
        assert SYM5.assign == (0, 1, 2, 2, 1)

    def test_single_class(self):
        c = Coloring.from_classes(3, [{0, 1, 2}])
        assert c.r == 1

    def test_overlap_rejected(self):
        with pytest.raises(BadPartitionError):
            Coloring.from_classes(3, [{0, 1}, {1, 2}])

    def test_gap_rejected(self):
        with pytest.raises(BadPartitionError):
            Coloring.from_classes(3, [{0}, {2}])

    def test_empty_class_rejected(self):
        with pytest.raises(BadPartitionError):
            Coloring.from_classes(3, [{0, 1, 2}, set()])

    def test_non_contiguous_assign_rejected(self):
        with pytest.raises(BadPartitionError):
            Coloring((0, 2, 2))

    def test_round_trip_through_classes(self):
        for c in (SYM5, two_power_coloring(3)):
            assert Coloring.from_classes(c.n, c.color_classes()) == c


class TestFindRainbow:
    def test_symmetric_interval_is_rainbow_free(self):
        assert find_rainbow(SYM5, Equation(5, 1, 1, 1, 0)).rainbow_free

    def test_witness_and_determinism(self):
        c = Coloring.from_classes(5, [{0}, {1}, {2, 3, 4}])
        report = find_rainbow(c, Equation(5, 1, 1, 1, 0))
        assert report.witness == (0, 1, 4)

    def test_z9_remark_coloring(self):
        c = Coloring.from_classes(9, [{0, 1, 3, 4, 6, 7}, {2}, {5}, {8}])
        assert find_rainbow(c, Equation(9, 1, 1, 1, 0)).rainbow_free

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatchError):
            find_rainbow(SYM5, Equation(7, 1, 1, 1, 0))

    def test_no_unit_coefficient_path(self):
        # all coefficients share a factor with n
        c = Coloring.from_classes(6, [{0, 3}, {1, 4}, {2, 5}])
        eq = Equation(6, 2, 2, 2, 0)
        assert find_rainbow(c, eq).witness == cubic_find_rainbow(c, eq)

    def test_matches_cubic_reference(self):
        rng = random.Random(1723)
        for _ in range(120):
            n = rng.randrange(4, 13)
            r = rng.randrange(2, min(n, 5) + 1)
            c = random_coloring(rng, n, r)
            eq = Equation(
                n,
                rng.randrange(n),
                rng.randrange(n),
                rng.randrange(n),
                rng.randrange(n),
            )
            got = find_rainbow(c, eq)
            want = cubic_find_rainbow(c, eq)
            assert got.witness == want, (eq, c.assign)
            if got.witness is not None:
                s1, s2, s3 = got.witness
                assert eq.is_solution(got.witness)
                cols = {c.assign[s1], c.assign[s2], c.assign[s3]}
                assert len(cols) == 3

    def test_rainbow_solutions_lists_all_in_lexicographic_order(self):
        rng = random.Random(4242)
        for _ in range(60):
            n = rng.randrange(2, 11)
            labels = [rng.randrange(4) for _ in range(n)]
            eq = Equation(n, *(rng.randrange(n) for _ in range(4)))
            want = [
                t for t in product(range(n), repeat=3)
                if eq.is_solution(t) and len({labels[x] for x in t}) == 3
            ]
            assert list(rainbow_solutions(eq, labels)) == want, (eq, labels)

    @given(st.data())
    def test_rainbow_status_invariant_under_color_permutation(self, data):
        n = data.draw(st.integers(4, 10))
        assign = data.draw(
            st.lists(st.integers(0, 3), min_size=n, max_size=n)
        )
        relabel = {}
        for c in assign:
            relabel.setdefault(c, len(relabel))
        coloring = Coloring(tuple(relabel[c] for c in assign))
        perm = data.draw(st.permutations(range(coloring.r)))
        permuted = Coloring(tuple(perm[c] for c in coloring.assign))
        # permuting color names is a relabeling, so re-canonicalize
        relabel2 = {}
        for c in permuted.assign:
            relabel2.setdefault(c, len(relabel2))
        permuted = Coloring(tuple(relabel2[c] for c in permuted.assign))
        eq = Equation(n, 1, 1, 1, data.draw(st.integers(0, n - 1)))
        assert (
            find_rainbow(coloring, eq).rainbow_free
            == find_rainbow(permuted, eq).rainbow_free
        )

    @pytest.mark.parametrize("n", range(5, 11))
    def test_translation_matches_shifted_equation(self, n):
        # translating the coloring by k tracks shifting b by (a1+a2+a3)*k
        rng = random.Random(n * 31)
        for _ in range(20):
            c = random_coloring(rng, n, rng.randrange(3, 5))
            eq = Equation(n, 1, rng.randrange(1, n), rng.randrange(1, n), rng.randrange(n))
            for k in range(n):
                lhs = find_rainbow(c, shift_b(eq, k)).rainbow_free
                rhs = find_rainbow(c.translate(k), eq).rainbow_free
                assert lhs == rhs


def first_rainbow(coloring, eq):
    """Plain reference for find_rainbow: the first item of the enumeration."""
    return next(rainbow_solutions(eq, coloring.assign), None)


def coloring_with_r(rng, n, r):
    """A random exact r-coloring of Z_n, any r in [1, n]."""
    assign = list(range(r)) + [rng.randrange(r) for _ in range(n - r)]
    rng.shuffle(assign)
    return Coloring(tuple(assign))


class TestRowKernel:
    """find_rainbow's bitset row test against the plain enumerator."""

    def test_random_equations_every_coefficient_and_r(self):
        # for each n, every value k in [0, n) serves as a1, a2, a3 and b,
        # and r runs through 1..n; the second coloring has one large class
        # and single residues for the other colors, so that its first
        # rainbow row is seldom row 0
        rng = random.Random(1300)
        for n in range(2, 41):
            for k in range(n):
                for pos in range(4):
                    params = [rng.randrange(n) for _ in range(4)]
                    params[pos] = k
                    eq = Equation(n, *params)
                    sparse = [0] * n
                    for color, x in enumerate(rng.sample(range(n), min(n, 4) - 1)):
                        sparse[x] = color + 1
                    for c in (coloring_with_r(rng, n, 1 + (4 * k + pos) % n),
                              Coloring(tuple(sparse))):
                        assert find_rainbow(c, eq).witness == first_rainbow(c, eq), (
                            eq, c.assign)

    def test_rainbow_free_block_colorings(self):
        # a rainbow-free coloring of Z_u lifted to Z_n along x -> x mod u
        # stays rainbow-free, since u | n reduces each solution mod u;
        # recoloring n - 1 then creates a rainbow in about half the cases
        rng = random.Random(1301)
        lifted = 0
        for _ in range(40):
            u = rng.randrange(5, 10)
            base_eq = Equation(u, *(rng.randrange(u) for _ in range(4)))
            base = exists_rainbow_free(u, base_eq, rng.randrange(3, 5))
            if base is None:
                continue
            for m in range(1, 40 // u + 1):
                n = u * m
                eq = Equation(n, base_eq.a1, base_eq.a2 + u * rng.randrange(m),
                              base_eq.a3, base_eq.b + u * rng.randrange(m))
                c = Coloring(tuple(base.assign[x % u] for x in range(n)))
                assert find_rainbow(c, eq).witness is None
                assert first_rainbow(c, eq) is None
                lifted += 1
                assign = list(c.assign)
                assign[n - 1] = (assign[n - 1] + 1) % c.r
                if set(assign) == set(range(c.r)):
                    c2 = Coloring(tuple(assign))
                    assert find_rainbow(c2, eq).witness == first_rainbow(c2, eq)
        assert lifted > 20

    def test_interval_and_two_power_witnesses(self):
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            c = symmetric_interval_coloring(p)
            for a in range(1, p):
                eq = Equation(p, a, a, a, 0)
                assert find_rainbow(c, eq).witness is first_rainbow(c, eq) is None
        rng = random.Random(1302)
        for alpha in range(2, 6):
            n = 2 ** alpha
            for b in range(n):
                eq = Equation(n, *(rng.randrange(1, n + 1, 2) for _ in range(3)), b)
                c = rb_formula(eq).witness
                assert find_rainbow(c, eq).witness is first_rainbow(c, eq) is None

    def test_only_rainbow_row_is_the_last(self):
        c = Coloring((1, 0, 0, 0, 1, 0, 0, 2))
        eq = Equation(8, 4, 7, 3, 6)
        assert {t[0] for t in rainbow_solutions(eq, c.assign)} == {7}
        assert find_rainbow(c, eq).witness == (7, 0, 6)

    def test_verify_scale_witnesses(self):
        product_eq = Equation(1616, 1071, 1071, 1071, 0)
        two_power_eq = Equation(1024, 215, 5, 11, 435)
        cases = [
            (symmetric_interval_coloring(997).translate(32), Equation(997, 1, 1, 1, -96)),
            (symmetric_interval_coloring(1009), Equation(1009, 464, 464, 464, 0)),
            (rb_formula(two_power_eq).witness, two_power_eq),
            (product_coloring(symmetric_interval_coloring(101),
                              two_power_coloring(4), product_eq), product_eq),
        ]
        for c, eq in cases:
            assert find_rainbow(c, eq).witness is first_rainbow(c, eq) is None
            # swapping the colors of the middle residue and the next one of
            # another color creates rainbow solutions (from row 435 at 997)
            assign = list(c.assign)
            x = eq.n // 2
            y = next(y for y in range(x, eq.n) if assign[y] != assign[x])
            assign[x], assign[y] = assign[y], assign[x]
            moved = Coloring(tuple(assign))
            witness = first_rainbow(moved, eq)
            assert witness is not None
            assert find_rainbow(moved, eq).witness == witness

    def test_geometric_classes_both_sides(self):
        # classes of sizes 1, 1, 2, 4, ... (the last one cut to fit n) make
        # most pairs unequal, so both sides of the pair test run; a1 and a3
        # are non-units in about half the draws, so values of T and W repeat
        rng = random.Random(2400)
        free = 0
        for n in range(2, 65):
            sizes = [1, 1]
            while sum(sizes) < n:
                sizes.append(min(sizes[-1] * 2, n - sum(sizes)))
            assign = [c for c, size in enumerate(sizes) for _ in range(size)][:n]
            divisors = [d for d in range(2, n) if n % d == 0] or [1]
            for _ in range(6):
                rng.shuffle(assign)
                c = Coloring(tuple(assign))
                a1, a3 = (rng.choice(divisors) * rng.randrange(1, n) if rng.random() < 0.5
                          else rng.randrange(n) for _ in range(2))
                eq = Equation(n, a1, rng.randrange(n), a3, rng.randrange(n))
                witness = first_rainbow(c, eq)
                assert find_rainbow(c, eq).witness == witness, (eq, c.assign)
                free += witness is None
        assert free > 10

    def test_image_bitsets_every_branch(self):
        # the build takes the largest class's bitset as a complement exactly
        # when the map's coefficient is a unit: each of a1, a2, a3 is drawn
        # a unit or a non-unit (0 in the first draw) in every combination,
        # b != 0 so that T's offset counts, and the colorings have one
        # class, one dominant class, a tie for the largest class, or random
        # classes.  Non-unit coefficients with a common factor that b lacks
        # leave the equation without solutions, so every coloring is
        # rainbow-free; there a complement taken for a non-unit would
        # invent a rainbow
        rng = random.Random(2700)
        free = witnesses = 0
        for n in (6, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 24, 25, 27, 30):
            units = [a for a in range(n) if gcd(a, n) == 1]
            non_units = [a for a in range(n) if gcd(a, n) != 1]
            for kinds in product((units, non_units), repeat=3):
                for draw in range(3):
                    coeffs = [0 if draw == 0 and kind is non_units else rng.choice(kind)
                              for kind in kinds]
                    eq = Equation(n, *coeffs, rng.randrange(1, n))
                    r = rng.randrange(3, n // 3 + 3)
                    dominant = [0] * n
                    for color, x in enumerate(rng.sample(range(n), r - 1)):
                        dominant[x] = color + 1
                    k = (n - r + 2) // 2
                    tie = [0] * k + [1] * k + list(range(2, r))
                    tie += [r - 1] * (n - len(tie))
                    rng.shuffle(tie)
                    for c in (Coloring((0,) * n), Coloring(tuple(dominant)),
                              Coloring(tuple(tie)), coloring_with_r(rng, n, r)):
                        witness = first_rainbow(c, eq)
                        assert find_rainbow(c, eq).witness == witness, (eq, c.assign)
                        if c.r >= 3:
                            free += witness is None
                            witnesses += witness is not None
        assert free > 60 and witnesses > 800

    @pytest.mark.parametrize(
        "assign, eq, pair",
        [
            # x1 in the singleton {1}, x3 in the largest class: the pair is
            # tested by rotating W from the row of the singleton
            ((2, 0, 2, 2, 2, 1), Equation(6, 2, 4, 3, 4), (0, 2)),
            # x1 in the largest class, x3 in the singleton {5}: the pair is
            # tested by rotating X once and meeting T of the largest class
            ((2, 1, 2, 2, 2, 0), Equation(6, 3, 2, 4, 4), (2, 0)),
        ],
    )
    def test_only_rainbow_pairs_a_singleton_with_the_largest_class(
            self, assign, eq, pair):
        solutions = list(rainbow_solutions(eq, assign))
        assert {(assign[s1], assign[s3]) for s1, _, s3 in solutions} == {pair}
        assert find_rainbow(Coloring(assign), eq).witness == solutions[0]


class TestTranslateDilate:
    def test_translate_classes(self):
        assert SYM5.translate(1).color_classes() == [
            frozenset({4}),
            frozenset({0, 3}),
            frozenset({1, 2}),
        ]

    def test_translate_identity_and_round_trip(self):
        assert SYM5.translate(0) == SYM5
        assert SYM5.translate(2).translate(3) == SYM5

    def test_translate_matches_definition(self):
        rng = random.Random(31)
        for n, r in [(2, 2), (5, 3), (12, 4), (31, 5)]:
            c = random_coloring(rng, n, r)
            for k in range(-2 * n, 2 * n + 1):
                assert c.translate(k).assign == tuple(
                    c.assign[(x + k) % n] for x in range(n)
                ), (c, k)

    def test_r_is_color_count(self):
        rng = random.Random(32)
        for n in range(2, 40):
            for r in range(1, min(n, 6) + 1):
                c = random_coloring(rng, n, r)
                assert c.r == max(c.assign) + 1
        assert Coloring((0, 0, 0)).r == 1

    def test_r_not_in_equality_hash_or_repr(self):
        assert "r=" not in repr(SYM5)
        assert {SYM5: 1}[Coloring.from_classes(5, [{0}, {1, 4}, {2, 3}])] == 1
        assert SYM5 == Coloring(SYM5.assign)


class TestPaletteView:
    def test_two_power_witness_palettes(self):
        view = palette_view(two_power_coloring(3), 2)
        assert view.palettes[1] == frozenset({3})
        assert view.palettes[0] == frozenset({0, 1, 2})

    def test_one_coloring(self):
        c = Coloring((0, 0, 0, 0))
        view = palette_view(c, 2)
        assert view.palettes == (frozenset({0}), frozenset({0}))

    def test_not_divisor(self):
        c = Coloring((0,) * 5 + (1,) * 5)
        with pytest.raises(NotDivisorError):
            palette_view(c, 3)

    def test_classes_partition(self):
        c = two_power_coloring(3)
        view = palette_view(c, 4)
        union = set()
        for block in view.classes:
            assert not (union & block)
            union |= block
        assert union == set(range(8))
        assert frozenset.union(*view.palettes) == set(range(c.r))


class TestProjection:
    def test_product_coloring_mod2_projection(self):
        prod = product_coloring(
            symmetric_interval_coloring(5), Coloring((0, 1)), Equation(10, 1, 1, 1, 0)
        )
        # evens carry only base colors (palette inside P_0 -> yellow), odds
        # keep the single extra color
        proj = project_palette_coloring(prod, 2, 0)
        assert proj.assign == (1, 0)

    def test_product_coloring_mod5_projection_recovers_base(self):
        prod = product_coloring(
            symmetric_interval_coloring(5), Coloring((0, 1)), Equation(10, 1, 1, 1, 0)
        )
        proj = project_palette_coloring(prod, 5, 0)
        assert proj.assign == (2, 0, 1, 1, 0)
        assert proj.color_classes() == [
            frozenset({1, 4}),
            frozenset({2, 3}),
            frozenset({0}),
        ]

    def test_class_constant_colorings_always_project(self):
        c = Coloring((0, 1, 2, 0, 1, 2))
        proj = project_palette_coloring(c, 3, 0)
        assert proj.n == 3 and proj.r == 3

    def test_not_projectable(self):
        c = Coloring((0, 2, 1, 3))
        with pytest.raises(NotProjectableError):
            project_palette_coloring(c, 2, 0)

    def test_bad_class_index(self):
        with pytest.raises(ValueError):
            project_palette_coloring(Coloring((0, 1, 0, 1)), 2, 5)

    @pytest.mark.parametrize("n, u", [(10, 2), (10, 5), (15, 3), (15, 5)])
    def test_projected_rainbow_lifts(self, n, u):
        # transfer statement (unit coefficients): a rainbow in the
        # projection implies one in the original
        rng = random.Random(n * 100 + u)
        unit_pool = [a for a in range(1, n) if gcd(a, n) == 1]
        projected = 0
        for _ in range(300):
            c = random_coloring(rng, n, rng.choice([3, 4]))
            eq = Equation(
                n, rng.choice(unit_pool), rng.choice(unit_pool),
                rng.choice(unit_pool), rng.randrange(n),
            )
            for j in range(u):
                try:
                    proj = project_palette_coloring(c, u, j)
                except NotProjectableError:
                    continue
                projected += 1
                if not find_rainbow(proj, eq.reduce_mod(u)).rainbow_free:
                    assert not find_rainbow(c, eq).rainbow_free
        assert projected > 0

        # contrapositive on genuinely rainbow-free colorings (product
        # witnesses and their dilations): the projection stays rainbow-free
        eq = Equation(n, 1, 1, 1, 0)
        t = n // 5
        ct = Coloring.from_classes(t, [{0}, set(range(1, t))])
        base = product_coloring(symmetric_interval_coloring(5), ct, eq)
        checked = 0
        # dilating by d: x -> base(d^(-1) * x)
        dilations = [
            Coloring(tuple(base.assign[pow(d, -1, n) * x % n] for x in range(n)))
            for d in unit_pool[1:4]
        ]
        for c in [base] + dilations:
            assert find_rainbow(c, eq).rainbow_free
            for j in range(u):
                try:
                    proj = project_palette_coloring(c, u, j)
                except NotProjectableError:
                    continue
                checked += 1
                assert find_rainbow(proj, eq.reduce_mod(u)).rainbow_free
        assert checked > 0


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        save_coloring(SYM5, path)
        assert load_coloring(path) == SYM5
        assert json.loads(path.read_text()) == {"n": 5, "colors": [0, 1, 2, 2, 1]}

    def test_saved_bytes(self, tmp_path):
        path = tmp_path / "c.json"
        for c in (SYM5, two_power_coloring(4), symmetric_interval_coloring(97)):
            save_coloring(c, path)
            assert path.read_text(encoding="utf-8") == json.dumps(c.to_json_dict()) + "\n"

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 4, "colors": [0, 1, 2]},          # wrong length
            {"n": 4, "colors": [0, 1, 1, 3]},       # non-contiguous
            {"n": 4, "colors": [0, 1, "x", 1]},     # non-integer entry
            {"colors": [0, 1]},                      # missing n
            [0, 1, 2],                               # not an object
        ],
    )
    def test_malformed_documents(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_coloring(path)

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 3, "colors": [0, 1, True]},       # bool is an int subclass
            {"n": 3, "colors": [0, 1, 1.0]},        # float
            {"n": 3, "colors": [0, 1, "1"]},        # string
            {"n": True, "colors": [0]},              # bool n
        ],
    )
    def test_non_integer_values_rejected(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(BadPartitionError):
            load_coloring(path)
