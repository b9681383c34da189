import random

import pytest
import reference_characterize

from rainbownum import (
    Coloring,
    Equation,
    NotApplicableError,
    build_hypergraph,
    find_rainbow,
    iter_exact_partitions,
    thm3_rainbow_free,
    thm5_rainbow_free,
)
from rainbownum.characterize import (
    interval_decomposition,
    thm6_singleton_necessary,
)
from rainbownum.constructions import symmetric_interval_coloring

SYM5 = Coloring.from_classes(5, [{0}, {1, 4}, {2, 3}])
RAINBOWY5 = Coloring.from_classes(5, [{0}, {1}, {2, 3, 4}])


def is_arithmetic_progression(s, d: int, p: int) -> bool:
    """Is s = {beta, beta + d, ..., beta + k*d} mod p for some beta?"""
    return any({(beta + k * d) % p for k in range(len(s))} == set(s) for beta in s)


class TestIntervalHelpers:
    def test_decomposition_of_consecutive_blocks(self):
        assert interval_decomposition({0}, {1, 2, 3}, 7) == (0, 1, 4)

    def test_wrapping_interval(self):
        assert interval_decomposition({6, 0}, {1, 2}, 7) == (6, 1, 3)

    def test_non_interval_returns_none(self):
        assert interval_decomposition({0, 2}, {1, 3}, 7) is None

    def test_wrong_cyclic_order_returns_none(self):
        assert interval_decomposition({0}, {4, 5, 6}, 7) is None

    def test_ap_detection(self):
        assert is_arithmetic_progression({1, 3, 5}, 2, 7)
        assert is_arithmetic_progression({0}, 3, 7)
        assert not is_arithmetic_progression({0, 1, 3}, 1, 7)
        assert is_arithmetic_progression(set(range(7)), 2, 7)


class TestThm3:
    def test_symmetric_interval_true_for_minus_one(self):
        assert thm3_rainbow_free(SYM5, -1) is True

    def test_rainbowy_false(self):
        assert thm3_rainbow_free(RAINBOWY5, -1) is False

    def test_three_intervals_mod7_false(self):
        c = Coloring.from_classes(7, [{0}, {1, 2, 3}, {4, 5, 6}])
        assert thm3_rainbow_free(c, -1) is False
        assert not find_rainbow(c, Equation(7, 1, 1, 1, 0)).rainbow_free

    def test_non_unit_cparam(self):
        with pytest.raises(NotApplicableError):
            thm3_rainbow_free(SYM5, 0)

    def test_needs_three_colors(self):
        with pytest.raises(ValueError):
            thm3_rainbow_free(Coloring((0, 1, 0, 1, 0)), -1)

    def test_needs_prime_modulus(self):
        with pytest.raises(ValueError):
            thm3_rainbow_free(Coloring((0, 1, 2, 0, 1, 2)), -1)

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("cparam_kind", ["two", "minus-one"])
    def test_matches_search_exhaustively(self, p, cparam_kind):
        cparam = 2 if cparam_kind == "two" else p - 1
        eq = Equation(p, 1, 1, -cparam, 0)
        hg = build_hypergraph(eq)
        for assign in iter_exact_partitions(p, 3):
            c = Coloring(assign)
            assert thm3_rainbow_free(c, cparam) == hg.is_rainbow_free(assign), assign


class TestThm5:
    def test_symmetric_interval_true(self):
        assert thm5_rainbow_free(SYM5, 0) is True

    def test_rainbowy_false(self):
        assert thm5_rainbow_free(RAINBOWY5, 0) is False

    def test_unique_z3_coloring_false(self):
        c = Coloring((0, 1, 2))
        assert thm5_rainbow_free(c, 0) is False

    def test_interval_case_positive(self):
        # consecutive intervals starting at 1: A = {1}, wait |A| >= 2 needed;
        # use the d = 1 interval family t1=4, t2=6, t3=1 with sum 11 = 4 mod 7
        # against b chosen so the sum condition holds: b with sum in
        # {1 + b, 2 + b} mod 7 -> b in {3, 2}
        c = Coloring.from_classes(7, [{4, 5}, {6, 0}, {1, 2, 3}])
        assert thm5_rainbow_free(c, 2) == (
            build_hypergraph(Equation(7, 1, 1, 1, 2)).is_rainbow_free(c.assign)
        )

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("b", [0, 1])
    def test_matches_search_exhaustively(self, p, b):
        eq = Equation(p, 1, 1, 1, b)
        hg = build_hypergraph(eq)
        for assign in iter_exact_partitions(p, 3):
            c = Coloring(assign)
            assert thm5_rainbow_free(c, b) == hg.is_rainbow_free(assign), assign


class TestThm6:
    def test_zero_singleton_with_zero_b(self):
        assert thm6_singleton_necessary(SYM5, Equation(5, 1, 1, 2, 0)) is True

    def test_no_singleton_is_false(self):
        c = Coloring.from_classes(7, [{0, 1}, {2, 3}, {4, 5, 6}])
        assert thm6_singleton_necessary(c, Equation(7, 1, 1, 2, 0)) is False

    def test_value_must_hit_b(self):
        c = Coloring.from_classes(5, [{1}, {0, 2}, {3, 4}])
        assert thm6_singleton_necessary(c, Equation(5, 1, 1, 2, 3)) is False
        assert thm6_singleton_necessary(c, Equation(5, 1, 1, 2, 4)) is True

    def test_equal_coefficients_not_applicable(self):
        with pytest.raises(NotApplicableError):
            thm6_singleton_necessary(SYM5, Equation(5, 2, 2, 2, 0))

    def test_zero_coefficient_not_applicable(self):
        with pytest.raises(NotApplicableError):
            thm6_singleton_necessary(SYM5, Equation(5, 5, 1, 2, 0))

    @pytest.mark.parametrize("p", [5, 7])
    def test_false_certifies_rainbow_exhaustively(self, p):
        colorings = [Coloring(a) for a in iter_exact_partitions(p, 3)]
        for a1 in range(1, p):
            for a2 in range(1, p):
                for a3 in range(1, p):
                    if a1 == a2 == a3:
                        continue
                    for b in range(p):
                        eq = Equation(p, a1, a2, a3, b)
                        hg = build_hypergraph(eq)
                        for c in colorings:
                            if not thm6_singleton_necessary(c, eq):
                                assert not hg.is_rainbow_free(c.assign), (eq, c.assign)


class TestFourBlockProgressionObstruction:
    """No partition of Z_p into four nonempty blocks A, B, C, D makes
    A|B, A|C, A|D, B, C, D all arithmetic progressions with one common
    difference."""

    @staticmethod
    def _satisfies(p, a, others, diff):
        # the roles of B, C, D are interchangeable, so only A's role matters
        groups = [a | o for o in others] + others
        return all(is_arithmetic_progression(g, diff, p) for g in groups)

    def test_exhaustive_p5(self):
        for assign in iter_exact_partitions(5, 4):
            blocks = [set() for _ in range(4)]
            for x, col in enumerate(assign):
                blocks[col].add(x)
            for i in range(4):
                others = blocks[:i] + blocks[i + 1:]
                for diff in range(1, 5):
                    assert not self._satisfies(5, blocks[i], others, diff)

    @pytest.mark.parametrize("p", [7, 11])
    def test_randomized(self, p):
        rng = random.Random(p)
        tried = 0
        while tried < 400:
            assign = [rng.randrange(4) for _ in range(p)]
            if len(set(assign)) != 4:
                continue
            tried += 1
            blocks = [set() for _ in range(4)]
            for x, col in enumerate(assign):
                blocks[col].add(x)
            for i in range(4):
                others = blocks[:i] + blocks[i + 1:]
                for diff in range(1, p):
                    assert not self._satisfies(p, blocks[i], others, diff)


class TestLargerPrimeSweep:
    """The exhaustive p in {5, 7} agreement is part of acceptance; Z_11
    (28501 exact 3-colorings) guards the size-ordered role assignment and
    the singleton/interval case split at a prime where they could drift."""

    @pytest.mark.slow
    def test_thm3_matches_search_p11(self):
        p = 11
        colorings = [Coloring(a) for a in iter_exact_partitions(p, 3)]
        for cparam in (2, p - 1):
            hg = build_hypergraph(Equation(p, 1, 1, -cparam, 0))
            for c in colorings:
                assert thm3_rainbow_free(c, cparam) == hg.is_rainbow_free(c.assign)

    @pytest.mark.slow
    def test_thm5_matches_search_p11(self):
        p = 11
        colorings = [Coloring(a) for a in iter_exact_partitions(p, 3)]
        for b in (0, 1, 2):
            hg = build_hypergraph(Equation(p, 1, 1, 1, b))
            for c in colorings:
                assert thm5_rainbow_free(c, b) == hg.is_rainbow_free(c.assign)


class TestAgainstKnownWitness:
    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_symmetric_interval_accepted(self, p):
        c = symmetric_interval_coloring(p)
        assert thm5_rainbow_free(c, 0) is True
        assert thm3_rainbow_free(c, p - 1) is True


def _seeded_3colorings(p, count, seed):
    """Exact 3-colorings of Z_p: a third drawn uniformly, a third made of
    three cyclic intervals, dilated and translated at random, and a third
    of {0} beside two symmetric classes with one residue moved at random,
    translated at random, so that both verdicts and tied sizes occur."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 0:
            assign = [rng.randrange(3) for _ in range(p)]
        elif kind == 1:
            t1, t2, t3 = sorted(rng.sample(range(p), 3))
            base = [0 if t1 <= x < t2 else 1 if t2 <= x < t3 else 2 for x in range(p)]
            d, k = rng.randrange(1, p), rng.randrange(p)
            assign = [base[(d * x + k) % p] for x in range(p)]
        else:
            # 0 alone; each pair {x, -x} to one of the two other classes
            base = [0] * p
            for x in range(1, p // 2 + 1):
                base[x] = base[p - x] = rng.randrange(1, 3)
            base[rng.randrange(1, p)] = rng.randrange(1, 3)
            k = rng.randrange(p)
            assign = [base[(x + k) % p] for x in range(p)]
        if len(set(assign)) == 3:
            out.append(Coloring(tuple(assign)))
    return out


class TestAgainstReference:
    """The package reads only the two smallest classes, ties broken by
    color; the plain reference tests all three in every size-consistent
    order, for every c and every b, and thm6 against the reference's
    class list on random unequal unit coefficients."""

    @staticmethod
    def _colorings(p):
        if p <= 7:  # every exact 3-coloring; at p = 3 all classes are singletons
            return [Coloring(a) for a in iter_exact_partitions(p, 3)]
        return _seeded_3colorings(p, 1000, seed=p)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_thm3_verdicts(self, p):
        verdicts = set()
        for c in self._colorings(p):
            for cparam in range(1, p):
                want = reference_characterize.thm3_rainbow_free(c, cparam)
                assert thm3_rainbow_free(c, cparam) == want, (c.assign, cparam)
                verdicts.add(want)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_thm5_verdicts(self, p):
        verdicts = set()
        for c in self._colorings(p):
            for b in range(p):
                want = reference_characterize.thm5_rainbow_free(c, b)
                assert thm5_rainbow_free(c, b) == want, (c.assign, b)
                verdicts.add(want)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_thm6_verdicts(self, p):
        rng = random.Random(600 + p)
        verdicts = set()
        for c in self._colorings(p):
            for _ in range(5):
                coeffs = [rng.randrange(1, p) for _ in range(3)]
                if len(set(coeffs)) == 1:
                    continue
                eq = Equation(p, *coeffs, rng.randrange(p))
                want = reference_characterize.thm6_singleton_necessary(c, eq)
                assert thm6_singleton_necessary(c, eq) == want, (c.assign, eq)
                verdicts.add(want)
        # at p = 3 every class is a singleton and a1 + a2 + a3 is a unit
        # whenever the coefficients differ, so some singleton always fits
        assert verdicts == ({True} if p == 3 else {True, False})


def _p1009_coloring(kind):
    """One exact 3-coloring of Z_1009 per path of the characterizations:
    {0} beside two symmetric classes; {u} beside classes symmetric after
    dilating by u^(-1) and shifting by 2^(-1) (thm3 case 2 with c = -1),
    in both the middle class, which the reference tests first, holding
    about a tenth of the pairs;
    the intervals [674, 1009), [0, 336), [336, 674), endpoint sum 1, read
    after dilating by 10 (10^(-1) = 101, so the reference's loops over d
    stop early); and a uniform draw."""
    p = 1009
    if kind == "intervals":
        base = [0] * 336 + [1] * 338 + [2] * 335
        return Coloring(tuple(base[10 * x % p] for x in range(p)))
    rng = random.Random(kind)
    if kind == "uniform":
        while True:
            assign = [rng.randrange(3) for _ in range(p)]
            if len(set(assign)) == 3:
                return Coloring(tuple(assign))
    u = rng.randrange(2, p)
    h = (p + 1) // 2  # 2^(-1)
    base = [0] * p
    for y in range(p // 2 + 1):
        base[y] = base[-y] = 1 if rng.random() < 0.1 else 2
    if kind == "zero":
        base[0] = 0
        return Coloring(tuple(base))
    # base is read at y = x + h with x = u^(-1) z, so z = u lands on x = 1
    base[(1 + h) % p] = 0
    uinv = pow(u, -1, p)
    return Coloring(tuple(base[(uinv * z + h) % p] for z in range(p)))


class TestLargePrimeAgainstReference:
    """At p = 1009 the singleton paths skip the dilation loop and the
    interval search dilates only A for most units; the reference still
    dilates all three classes for every unit."""

    @pytest.mark.parametrize("kind", ["zero", "unit", "intervals", "uniform"])
    def test_verdicts(self, kind):
        c = _p1009_coloring(kind)
        for cparam in (2, -1, 5):
            want = reference_characterize.thm3_rainbow_free(c, cparam)
            assert thm3_rainbow_free(c, cparam) == want, (kind, cparam)
        for b in (0, 1, 5):
            want = reference_characterize.thm5_rainbow_free(c, b)
            assert thm5_rainbow_free(c, b) == want, (kind, b)
        if kind == "intervals":
            # x1 + x2 + x3 = 0 is thm5 with b = 0 and thm3 with c = -1
            assert find_rainbow(c, Equation(1009, 1, 1, 1, 0)).rainbow_free
            assert thm5_rainbow_free(c, 0) is thm3_rainbow_free(c, -1) is True
