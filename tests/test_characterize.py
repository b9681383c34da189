import random

import pytest

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
        dec = interval_decomposition({0}, {1, 2, 3}, {4, 5, 6}, 7)
        assert (dec.t1, dec.t2, dec.t3) == (0, 1, 4)

    def test_wrapping_interval(self):
        dec = interval_decomposition({6, 0}, {1, 2}, {3, 4, 5}, 7)
        assert (dec.t1, dec.t2, dec.t3) == (6, 1, 3)

    def test_non_interval_returns_none(self):
        assert interval_decomposition({0, 2}, {1, 3}, {4, 5, 6}, 7) is None

    def test_wrong_cyclic_order_returns_none(self):
        assert interval_decomposition({0}, {4, 5, 6}, {1, 2, 3}, 7) is None

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
