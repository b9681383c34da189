import random

import pytest

from rainbownum import (
    BadModulusError,
    BadWitnessError,
    Coloring,
    Equation,
    exists_rainbow_free,
    find_rainbow,
)
from rainbownum.constructions import (
    product_coloring,
    symmetric_interval_coloring,
    two_power_coloring,
    z9_coloring,
)
from rainbownum.modring import is_symmetric


class TestSymmetricInterval:
    def test_p5(self):
        assert symmetric_interval_coloring(5).color_classes() == [
            frozenset({0}), frozenset({1, 4}), frozenset({2, 3}),
        ]

    def test_p7(self):
        assert symmetric_interval_coloring(7).color_classes() == [
            frozenset({0}), frozenset({1, 6}), frozenset({2, 3, 4, 5}),
        ]

    @pytest.mark.parametrize("p", [3, 4, 9, 15])
    def test_bad_modulus(self, p):
        with pytest.raises(BadModulusError):
            symmetric_interval_coloring(p)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_rainbow_free_and_symmetric_classes(self, p):
        c = symmetric_interval_coloring(p)
        assert find_rainbow(c, Equation(p, 1, 1, 1, 0)).rainbow_free
        _, ring, middle = c.color_classes()
        assert is_symmetric(ring, p)
        assert is_symmetric(middle, p)


class TestTwoPower:
    def test_base(self):
        assert two_power_coloring(1).assign == (0, 1)

    def test_alpha2(self):
        assert two_power_coloring(2).color_classes() == [
            frozenset({0}), frozenset({2}), frozenset({1, 3}),
        ]

    def test_alpha3(self):
        assert two_power_coloring(3).color_classes() == [
            frozenset({0}), frozenset({4}), frozenset({2, 6}),
            frozenset({1, 3, 5, 7}),
        ]

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    def test_color_count_and_rainbow_freeness(self, alpha):
        c = two_power_coloring(alpha)
        n = 2**alpha
        assert c.n == n
        assert c.r == alpha + 1
        assert find_rainbow(c, Equation(n, 1, 1, 1, 0)).rainbow_free

    @pytest.mark.parametrize("alpha", [2, 3])
    def test_rainbow_free_for_other_odd_coefficients(self, alpha):
        n = 2**alpha
        c = two_power_coloring(alpha)
        rng = random.Random(alpha)
        for _ in range(10):
            coeffs = [rng.randrange(1, n, 2) for _ in range(3)]
            assert find_rainbow(c, Equation(n, *coeffs, 0)).rainbow_free

    def test_bad_alpha(self):
        with pytest.raises(BadModulusError):
            two_power_coloring(0)


class TestProduct:
    def test_five_times_two(self):
        prod = product_coloring(
            symmetric_interval_coloring(5), Coloring((0, 1)), Equation(10, 1, 1, 1, 0)
        )
        assert prod.color_classes() == [
            frozenset({0}), frozenset({1, 4, 6, 9}), frozenset({2, 3, 7, 8}),
            frozenset({5}),
        ]

    def test_five_times_three(self):
        # a 2-coloring of Z_3 is trivially rainbow-free; its zero class must
        # stay isolated for the blend to stay rainbow-free
        ct = Coloring.from_classes(3, [{0}, {1, 2}])
        prod = product_coloring(
            symmetric_interval_coloring(5), ct, Equation(15, 1, 1, 1, 0)
        )
        assert prod.n == 15 and prod.r == 4
        assert find_rainbow(prod, Equation(15, 1, 1, 1, 0)).rainbow_free

    def test_seven_times_two(self):
        prod = product_coloring(
            symmetric_interval_coloring(7), Coloring((0, 1)), Equation(14, 1, 1, 1, 0)
        )
        assert prod.n == 14 and prod.r == 4
        assert find_rainbow(prod, Equation(14, 1, 1, 1, 0)).rainbow_free

    @pytest.mark.parametrize("p, t", [(5, 2), (5, 3), (7, 2)])
    def test_color_count_identity(self, p, t):
        cp = symmetric_interval_coloring(p)
        ct = Coloring.from_classes(t, [{0}, set(range(1, t))])
        prod = product_coloring(cp, ct, Equation(p * t, 1, 1, 1, 0))
        assert prod.r == cp.r + ct.r - 1

    def test_zero_class_reindexed_not_rejected(self):
        # same partition as the symmetric-interval witness, zero class
        # listed last so it carries color 2 before re-indexing
        cp = Coloring.from_classes(5, [{1, 4}, {2, 3}, {0}])
        prod = product_coloring(cp, Coloring((0, 1)), Equation(10, 1, 1, 1, 0))
        assert prod.color_classes()[0] == frozenset({0})

    def test_non_singleton_zero_rejected(self):
        cp = Coloring.from_classes(5, [{0, 1}, {2, 3, 4}])
        with pytest.raises(BadWitnessError):
            product_coloring(cp, Coloring((0, 1)), Equation(10, 1, 1, 1, 0))

    def test_rainbow_input_rejected(self):
        bad = Coloring.from_classes(5, [{0}, {1}, {2, 3, 4}])
        with pytest.raises(BadWitnessError):
            product_coloring(bad, Coloring((0, 1)), Equation(10, 1, 1, 1, 0))

    def test_leaky_ct_rejected_by_verification(self):
        # ct rainbow-free, but its color at 0 recurs at a residue that
        # completes a solution through 0: the blend has a rainbow and must
        # be refused rather than returned
        ct = Coloring.from_classes(3, [{0, 1}, {2}])
        with pytest.raises(BadWitnessError):
            product_coloring(
                symmetric_interval_coloring(5), ct, Equation(15, 1, 1, 1, 0)
            )

    def test_composite_first_factor_rejected(self):
        cp = Coloring.from_classes(4, [{0}, {1, 2, 3}])
        with pytest.raises(BadWitnessError):
            product_coloring(cp, Coloring((0, 1)), Equation(8, 1, 1, 1, 0))

    def test_nonzero_b_rejected(self):
        with pytest.raises(BadWitnessError):
            product_coloring(
                symmetric_interval_coloring(5), Coloring((0, 1)), Equation(10, 1, 1, 1, 1)
            )

    def test_search_supplied_unequal_coefficient_base(self):
        # no formula here constructs the rainbow-free 3-coloring needed as
        # cp when the coefficients are unequal; the oracle supplies it, and
        # the singleton it carries must sit at 0 since 0 * (a1+a2+a3) = 0
        eq7 = Equation(7, 1, 1, 6, 0)
        cp = exists_rainbow_free(7, eq7, 3)
        assert cp is not None
        assert [x for x in range(7) if cp.assign[x] == cp.assign[0]] == [0]
        eq14 = Equation(14, 1, 1, 6, 0)
        prod = product_coloring(cp, Coloring((0, 1)), eq14)
        assert prod.r == 4
        assert find_rainbow(prod, eq14).rainbow_free


class TestZ9:
    def test_classes(self):
        assert z9_coloring().color_classes() == [
            frozenset({0, 1, 3, 4, 6, 7}), frozenset({2}), frozenset({5}),
            frozenset({8}),
        ]

    def test_rainbow_free(self):
        assert find_rainbow(z9_coloring(), Equation(9, 1, 1, 1, 0)).rainbow_free

    def test_color_count(self):
        assert z9_coloring().r == 4
