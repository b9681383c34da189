from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from rainbownum import NonUnitError, modring


class TestTryInverse:
    @pytest.mark.parametrize("a, n, expected", [(3, 5, 2), (1, 9, 1), (2, 5, 3)])
    def test_known_inverses(self, a, n, expected):
        assert modring.try_inverse(a, n) == expected

    def test_non_unit_raises(self):
        with pytest.raises(NonUnitError):
            modring.try_inverse(3, 9)

    @given(st.integers(2, 500), st.integers(-1000, 1000))
    def test_inverse_property(self, n, a):
        assume(gcd(a % n, n) == 1)
        assert a * modring.try_inverse(a, n) % n == 1

    @given(st.integers(2, 500), st.integers(0, 499))
    def test_raises_exactly_on_non_units(self, n, a):
        a %= n
        if gcd(a, n) == 1:
            modring.try_inverse(a, n)
        else:
            with pytest.raises(NonUnitError):
                modring.try_inverse(a, n)


class TestLeastRoots:
    @pytest.mark.parametrize("n", range(2, 31))
    def test_matches_plain_scan_exhaustively(self, n):
        # every a in 0..n-1 and every c in -n..n-1
        cs = range(-n, n)
        for a in range(n):
            scan = [
                next((t for t in range(n) if (a * t - c) % n == 0), None)
                for c in cs
            ]
            assert modring.least_roots(a, cs, n) == scan, a

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            modring.least_roots(1, [0], 1)


class TestIsUnit:
    def test_units_list(self):
        assert modring.units(12) == [1, 5, 7, 11]
        assert modring.units(7) == [1, 2, 3, 4, 5, 6]


class TestFactorize:
    @pytest.mark.parametrize(
        "n, expected",
        [(12, [(2, 2), (3, 1)]), (7, [(7, 1)]), (15, [(3, 1), (5, 1)]), (1024, [(2, 10)])],
    )
    def test_examples(self, n, expected):
        assert modring.factorize(n) == expected

    def test_recomposes_exhaustively(self):
        for n in range(2, 10_001):
            fact = modring.factorize(n)
            prod = 1
            prev = 1
            for p, e in fact:
                assert p > prev, "primes must ascend"
                assert modring.is_prime(p)
                prev = p
                prod *= p**e
            assert prod == n

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            modring.factorize(1)


class TestMultiplicativeClosure:
    def test_generator_of_z5(self):
        assert modring.multiplicative_closure([2], 5) == frozenset({1, 2, 3, 4})

    def test_identity_subgroup(self):
        assert modring.multiplicative_closure([1], 7) == frozenset({1})

    def test_involution(self):
        assert modring.multiplicative_closure([4], 5) == frozenset({1, 4})

    def test_non_unit_generator_raises(self):
        with pytest.raises(NonUnitError):
            modring.multiplicative_closure([3], 9)

    @given(
        st.integers(2, 120),
        st.lists(st.integers(-200, 200), min_size=1, max_size=4),
    )
    def test_closed_and_contains_generators(self, n, gens):
        gens = [g % n for g in gens]
        assume(all(gcd(g, n) == 1 for g in gens))
        closure = modring.multiplicative_closure(gens, n)
        assert 1 in closure
        assert set(gens) <= closure
        for x in closure:
            for y in closure:
                assert x * y % n in closure

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
    def test_lagrange_for_cyclic_subgroups(self, p):
        for g in range(1, p):
            size = len(modring.multiplicative_closure([g], p))
            assert (p - 1) % size == 0


class TestSetPredicates:
    def test_symmetric_examples(self):
        assert modring.is_symmetric({1, 4}, 5)
        assert modring.is_symmetric({0}, 5)
        assert not modring.is_symmetric({1, 2}, 5)

    def test_periodic_examples(self):
        assert modring.is_periodic({1, 2, 4}, 2, 7)
        assert modring.is_periodic({0}, 3, 7)
        assert not modring.is_periodic({1, 2}, 2, 5)

    def test_periodic_non_unit_raises(self):
        with pytest.raises(NonUnitError):
            modring.is_periodic({1, 2}, 2, 6)

    @given(st.integers(2, 60), st.sets(st.integers(0, 59)))
    def test_symmetric_is_minus_one_periodic(self, n, members):
        members = {x % n for x in members}
        assert modring.is_symmetric(members, n) == modring.is_periodic(members, n - 1, n)
