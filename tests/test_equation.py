from math import gcd

import pytest
from hypothesis import given, strategies as st
from solutions import all_solutions, shift_b

from rainbownum import (
    Equation,
    NonUnitError,
    NotDivisorError,
    dilation_values,
)
from rainbownum.modring import least_roots


class TestEquationBasics:
    def test_reduces_fields(self):
        eq = Equation(5, 6, -1, 3, 12)
        assert (eq.a1, eq.a2, eq.a3, eq.b) == (1, 4, 3, 2)

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            Equation(1, 0, 0, 0, 0)

    @pytest.mark.parametrize(
        "eq, triple, expected",
        [
            (Equation(5, 1, 1, 1, 0), (1, 2, 2), True),
            (Equation(5, 1, 1, 1, 0), (0, 0, 0), True),
            (Equation(5, 1, 1, 3, 1), (0, 0, 2), True),
            (Equation(5, 1, 1, 1, 0), (1, 2, 3), False),
        ],
    )
    def test_is_solution(self, eq, triple, expected):
        assert eq.is_solution(triple) is expected

    def test_a_sum(self):
        assert Equation(5, 1, 1, 3, 0).a_sum == 0
        assert Equation(7, 1, 2, 3, 0).a_sum == 6


class TestShiftB:
    """The tests' helper for right sides b + (a1+a2+a3)*k."""

    def test_basic_shift(self):
        assert shift_b(Equation(5, 1, 1, 1, 0), 1) == Equation(5, 1, 1, 1, 3)

    def test_zero_shift_is_identity(self):
        eq = Equation(11, 2, 3, 5, 7)
        assert shift_b(eq, 0) == eq

    def test_shift_vanishes_when_sum_is_zero(self):
        eq = Equation(5, 1, 1, 3, 2)
        assert shift_b(eq, 2) == eq


class TestReduceMod:
    def test_reduce(self):
        assert Equation(15, 1, 1, 2, 0).reduce_mod(5) == Equation(5, 1, 1, 2, 0)

    def test_reduce_folds_coefficients(self):
        assert Equation(10, 7, 7, 7, 4).reduce_mod(2) == Equation(2, 1, 1, 1, 0)

    def test_non_divisor_raises(self):
        with pytest.raises(NotDivisorError):
            Equation(15, 1, 1, 2, 0).reduce_mod(4)


class TestDilationValues:
    def test_mixed_coefficients_mod5(self):
        assert dilation_values(Equation(5, 1, 1, 3, 0)) == (2, 4, 4, 2, 3, 3)

    def test_all_equal_mod7(self):
        assert dilation_values(Equation(7, 1, 1, 1, 0)) == (6,) * 6

    def test_distinct_coefficients_mod5(self):
        assert dilation_values(Equation(5, 1, 2, 3, 0)) == (2, 3, 2, 1, 3, 1)

    def test_non_unit_coefficient_raises(self):
        with pytest.raises(NonUnitError):
            dilation_values(Equation(5, 5, 1, 1, 0))

    @given(st.sampled_from([5, 7, 11, 13]), st.data())
    def test_defining_relations(self, p, data):
        a1 = data.draw(st.integers(1, p - 1))
        a2 = data.draw(st.integers(1, p - 1))
        a3 = data.draw(st.integers(1, p - 1))
        d = dilation_values(Equation(p, a1, a2, a3, 0))
        # each d value satisfies d * a_i = -a_j for its defining pair
        for val, ai, aj in [
            (d[0], a1, a3), (d[1], a1, a2), (d[2], a2, a1),
            (d[3], a2, a3), (d[4], a3, a1), (d[5], a3, a2),
        ]:
            assert (val * ai + aj) % p == 0


class TestNormalizeBToZero:
    """x -> x - t, with t the least root of (a1+a2+a3)*t = b, carries the
    solutions of eq onto those of the same coefficients with b = 0."""

    def test_example_mod5(self):
        assert least_roots(3, [3], 5) == [1]

    def test_b_zero_is_fixed_point(self):
        assert least_roots(Equation(7, 1, 1, 1, 0).a_sum, [0], 7) == [0]

    def test_no_root_gives_none(self):
        # 1 + 1 + 3 = 0 mod 5, so no translation reaches b = 2
        assert least_roots(Equation(5, 1, 1, 3, 2).a_sum, [2], 5) == [None]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_solution_bijection_exhaustive(self, n):
        # the map x -> x - t must carry solutions onto solutions, both ways
        triples = [(1, 1, 1), (1, 2, 3), (2, 3, 5), (1, 1, n - 1), (3, 4, 5)]
        for a1, a2, a3 in triples:
            eq0 = Equation(n, a1, a2, a3, 0)
            sols0 = all_solutions(eq0)
            for b, t in enumerate(least_roots(eq0.a_sum, range(n), n)):
                if t is None:
                    continue
                sols = all_solutions(Equation(n, a1, a2, a3, b))
                mapped = {
                    tuple((x - t) % n for x in s) for s in sols
                }
                assert mapped == sols0
                assert len(sols) == len(sols0)


class TestRepeatedEntryCollapse:
    """With a1+a2+a3 = 0, b = 0, and unit coefficients over a prime,
    a solution with a repeated entry is constant."""

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_exhaustive(self, p):
        for a1 in range(1, p):
            for a2 in range(1, p):
                a3 = (-a1 - a2) % p
                if a3 == 0:
                    continue
                eq = Equation(p, a1, a2, a3, 0)
                assert eq.a_sum == 0
                for s in range(p):
                    for t in range(p):
                        for triple in ((s, s, t), (s, t, s), (t, s, s)):
                            if eq.is_solution(triple) and len(set(triple)) < 3:
                                assert s == t, (eq, triple)


class TestResiduePropagation:
    """For solutions mod u*t with a3 a unit mod u: congruent first and second
    entries mod u force congruent third entries mod u."""

    def test_exhaustive_up_to_30(self):
        pairs = [
            (u, t)
            for u in range(3, 11)
            for t in range(3, 11)
            if u * t <= 30
        ]
        sample_eqs = [(1, 1, 1, 0), (2, 3, 1, 4), (1, 2, 3, 2), (4, 5, 7, 1)]
        checked = 0
        for u, t in pairs:
            n = u * t
            for a1, a2, a3, b in sample_eqs:
                if gcd(a3 % u, u) != 1:
                    continue
                eq = Equation(n, a1, a2, a3, b)
                third = {}
                for s1, s2, s3 in all_solutions(eq):
                    third.setdefault((s1 % u, s2 % u), set()).add(s3 % u)
                for residues in third.values():
                    assert len(residues) == 1
                checked += 1
        assert checked > 20
