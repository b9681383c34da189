from collections import Counter
from itertools import combinations_with_replacement, product
from math import gcd

import pytest

from rainbownum import (
    Equation,
    NotCoveredError,
    find_rainbow,
    rb_formula,
    rb_zp,
)
from rainbownum.formulas import (
    PROV_CONVENTION_Z2,
    PROV_EQUAL_COEFFS,
    PROV_TWO_POWER,
    PROV_Z3,
    PROV_ZN_PRODUCT,
    PROV_ZP_DICHOTOMY,
    rb_z3,
    rb_zn,
)
from solutions import shift_b


class TestRbZ3:
    @pytest.mark.parametrize(
        "coeffs, b, expected",
        [
            ((1, 1, 1), 0, 3),
            ((0, 1, 2), 0, 4),
            ((1, 2, 1), 1, 3),
            ((2, 2, 2), 1, 4),
            ((0, 0, 0), 0, 3),
            ((0, 0, 0), 1, 4),
        ],
    )
    def test_cases(self, coeffs, b, expected):
        res = rb_z3(Equation(3, *coeffs, b))
        assert res.value == expected
        assert res.provenance == PROV_Z3

    def test_wrong_modulus(self):
        with pytest.raises(ValueError):
            rb_z3(Equation(5, 1, 1, 1, 0))


class TestRbZp:
    def test_equal_coefficients_with_witness(self):
        res = rb_zp(Equation(5, 1, 1, 1, 0))
        assert res.value == 4
        assert res.provenance == PROV_EQUAL_COEFFS
        assert res.witness is not None
        assert res.witness.color_classes() == [
            frozenset({0}), frozenset({1, 4}), frozenset({2, 3}),
        ]

    def test_equal_coefficients_nonzero_b_no_witness(self):
        res = rb_zp(Equation(7, 2, 2, 2, 3))
        assert res.value == 4 and res.witness is None

    def test_zero_sum_nonzero_b(self):
        res = rb_zp(Equation(5, 1, 1, 3, 1))
        assert res.value == 3
        assert res.provenance == PROV_ZP_DICHOTOMY

    def test_small_closure_gives_four(self):
        assert rb_zp(Equation(7, 1, 1, 6, 0)).value == 4

    def test_generating_closure_gives_three(self):
        assert rb_zp(Equation(5, 1, 2, 3, 0)).value == 3

    def test_p2_convention(self):
        res = rb_zp(Equation(2, 1, 1, 1, 0))
        assert res.value == 3 and res.provenance == PROV_CONVENTION_Z2

    def test_p3_delegates(self):
        assert rb_zp(Equation(3, 1, 1, 1, 0)).value == 3

    def test_zero_coefficient_not_covered(self):
        with pytest.raises(NotCoveredError):
            rb_zp(Equation(5, 5, 1, 1, 0))

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            rb_zp(Equation(6, 1, 1, 1, 0))

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_value_always_three_or_four(self, p):
        for a1, a2, a3 in product(range(1, p), repeat=3):
            for b in (0, 1):
                assert rb_zp(Equation(p, a1, a2, a3, b)).value in (3, 4)


class TestRbTwoPower:
    def test_alpha_one_is_convention(self):
        res = rb_zn(Equation(2, 1, 1, 1, 0))
        assert res.value == 3
        assert res.witness is not None and res.witness.r == 2

    def test_alpha_three(self):
        res = rb_zn(Equation(8, 1, 1, 1, 0))
        assert res.value == 5
        assert res.provenance == PROV_TWO_POWER
        assert res.witness.color_classes() == [
            frozenset({0}), frozenset({4}), frozenset({2, 6}),
            frozenset({1, 3, 5, 7}),
        ]

    def test_even_coefficient_not_covered(self):
        with pytest.raises(NotCoveredError):
            rb_zn(Equation(4, 2, 1, 1, 0))

    @pytest.mark.parametrize("b", [1, 3, 5])
    def test_nonzero_b_witness_is_translated_and_verified(self, b):
        eq = Equation(8, 1, 3, 3, b)
        res = rb_zn(eq)
        assert res.value == 5
        assert res.witness is not None and res.witness.r == 4
        assert find_rainbow(res.witness, eq).rainbow_free


class TestRbZn:
    def test_two_power_single_factor(self):
        assert rb_zn(Equation(8, 1, 1, 1, 0)).value == 5

    def test_ten(self):
        res = rb_zn(Equation(10, 1, 1, 1, 0))
        assert res.value == 5
        assert res.provenance == PROV_ZN_PRODUCT

    def test_fifteen(self):
        assert rb_zn(Equation(15, 1, 1, 2, 0)).value == 4

    def test_z9_not_covered(self):
        with pytest.raises(NotCoveredError) as exc:
            rb_zn(Equation(9, 1, 1, 1, 0))
        assert "condition 3" in exc.value.reason

    def test_non_unit_product_not_covered(self):
        with pytest.raises(NotCoveredError) as exc:
            rb_zn(Equation(10, 2, 1, 1, 0))
        assert "unit" in exc.value.reason

    def test_condition_one_failure_named(self):
        with pytest.raises(NotCoveredError) as exc:
            rb_zn(Equation(12, 1, 1, 1, 1))
        assert "condition 1" in exc.value.reason

    def test_nonzero_b_condition_one(self, brute_rb):
        # all coefficients units mod 12 and a1+a2+a3 = 7 is a unit, so b
        # translates to 0: 2 + 2*(rb(Z_2)-2) + (rb(Z_3)-2) = 5
        eq = Equation(12, 1, 1, 5, 2)
        res = rb_zn(eq)
        assert res.value == 5
        assert brute_rb(12, eq).value == 5

    def test_shift_invariance_where_covered(self):
        for n, coeffs in [(10, (1, 1, 1)), (14, (1, 1, 3)), (15, (1, 1, 2))]:
            eq = Equation(n, *coeffs, 0)
            if gcd(eq.a_sum, n) != 1:
                continue
            base = rb_zn(eq).value
            for k in range(n):
                assert rb_zn(shift_b(eq, k)).value == base


class TestRbFormulaDispatch:
    def test_prime_goes_to_zp(self):
        assert rb_formula(Equation(5, 1, 1, 3, 1)).value == 3

    def test_two_power_gets_witness(self):
        res = rb_formula(Equation(8, 1, 1, 1, 0))
        assert res.provenance == PROV_TWO_POWER and res.witness is not None

    def test_composite_goes_to_zn(self):
        assert rb_formula(Equation(10, 1, 1, 1, 0)).provenance == PROV_ZN_PRODUCT

    def test_not_covered_propagates(self):
        with pytest.raises(NotCoveredError):
            rb_formula(Equation(9, 1, 1, 1, 0))


def _symmetry_classes(n):
    """Every (a1, a2, a3, b) over Z_n, grouped into orbits of the maps that
    leave rb unchanged (u a unit).  Permuting the coefficients permutes each
    solution's entries; (a, b) -> (ua, ub) keeps the solution set; the
    dilation x -> ux carries the solutions of (a, b) onto those of (a, ub);
    the translation x -> x - 1 carries them onto those of
    (a, b - (a1+a2+a3)).  A bijection of Z_n that maps solutions onto
    solutions maps rainbow-free colorings onto rainbow-free colorings."""
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    seen = set()
    for start in product(range(n), repeat=4):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            a1, a2, a3, b = frontier.pop()
            images = [
                (a2, a1, a3, b), (a1, a3, a2, b), (a1, a2, a3, (b - a1 - a2 - a3) % n),
            ]
            for u in units:
                images.append((u * a1 % n, u * a2 % n, u * a3 % n, u * b % n))
                images.append((a1, a2, a3, u * b % n))
            for image in images:
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
        yield orbit


class TestSymmetryInvariance:
    """rb_formula gives one value on each symmetry class, or refuses it all."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_one_answer_per_class(self, n):
        for orbit in _symmetry_classes(n):
            answers = set()
            for a1, a2, a3, b in orbit:
                try:
                    answers.add(rb_formula(Equation(n, a1, a2, a3, b)).value)
                except NotCoveredError:
                    answers.add(None)
            assert len(answers) == 1, (n, min(orbit), answers)


class TestFormulaOracleAgreement:
    """The dichotomy value equals the oracle value for every unit triple and
    every b; {5, 7} runs inside the acceptance sweep, the larger primes here."""

    @pytest.mark.slow
    @pytest.mark.parametrize("p", [11, 13])
    def test_exhaustive_large_primes(self, p):
        from rainbownum import rainbow_number_brute

        for a1, a2, a3 in product(range(1, p), repeat=3):
            for b in range(p):
                eq = Equation(p, a1, a2, a3, b)
                assert rb_zp(eq).value == rainbow_number_brute(p, eq).value, eq


class TestTranslatedRightSide:
    """b != 0 where g = gcd(a1+a2+a3, n) > 1 divides b: rb_zn answers these
    through the translation to b = 0, and each answer equals the oracle's."""

    def test_agrees_with_oracle(self):
        from rainbownum import rainbow_number_brute

        covered = Counter()
        for n in range(4, 17):
            for a1, a2, a3 in combinations_with_replacement(range(n), 3):
                g = gcd(a1 + a2 + a3, n)
                if g == 1:
                    continue
                for b in range(g, n, g):
                    eq = Equation(n, a1, a2, a3, b)
                    try:
                        value = rb_formula(eq).value
                    except NotCoveredError:
                        continue
                    assert value == rainbow_number_brute(n, eq).value, eq
                    covered[n] += 1
        assert covered == {10: 4, 14: 8, 15: 32}


class TestTwoPowerOracleAgreement:
    """At n = 2^alpha rb_formula answers exactly when every coefficient is
    odd, with alpha + 2, the oracle's value, and an (alpha + 1)-color
    witness; every sorted triple at n = 4 and 8, every odd one at 16."""

    def test_agrees_with_oracle(self):
        from rainbownum import rainbow_number_brute

        answered = 0
        for alpha, pool in ((2, range(4)), (3, range(8)), (4, range(1, 16, 2))):
            n = 2 ** alpha
            for coeffs in combinations_with_replacement(pool, 3):
                for b in range(n):
                    eq = Equation(n, *coeffs, b)
                    if not all(a % 2 for a in coeffs):
                        with pytest.raises(NotCoveredError):
                            rb_formula(eq)
                        continue
                    res = rb_formula(eq)
                    assert res.value == alpha + 2 == rainbow_number_brute(n, eq).value, eq
                    assert res.provenance == PROV_TWO_POWER
                    assert res.witness.r == alpha + 1
                    assert find_rainbow(res.witness, eq).rainbow_free
                    answered += 1
        assert answered == 2096


class TestLowerBoundConsistency:
    """2 + sum alpha_k (rb(Z_pk) - 2) never exceeds the oracle value, even
    where the composite formula is not covered."""

    @pytest.mark.parametrize("n", [6, 8, 9, 10, 12])
    def test_fast_moduli(self, n, brute_rb):
        self._check(n, brute_rb)

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [13, 14, 15, 16])
    def test_slow_moduli(self, n, brute_rb):
        self._check(n, brute_rb)

    @staticmethod
    def _check(n, brute_rb):
        from rainbownum.modring import factorize

        coeff_pool = [
            (1, 1, 1), (1, 1, 3), (1, 2, 3), (1, 1, 2), (1, 3, 5), (1, 2, 1),
        ]
        checked = 0
        for coeffs in coeff_pool:
            eq = Equation(n, *coeffs, 0)
            if gcd(eq.a1 * eq.a2 * eq.a3, n) != 1:
                continue
            bound = 2 + sum(
                a * (rb_zp(eq.reduce_mod(p)).value - 2) for p, a in factorize(n)
            )
            assert bound <= brute_rb(n, eq).value, (n, coeffs)
            checked += 1
        assert checked > 0
