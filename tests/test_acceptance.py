"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints one [PASS]/[FAIL] line
(visible with `pytest -s`); all expected values are exact, no tolerances.
Run just this module with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import product
from math import gcd

import pytest
from solutions import all_solutions, shift_b

from rainbownum import (
    Coloring,
    Equation,
    NotCoveredError,
    build_hypergraph,
    find_rainbow,
    iter_exact_partitions,
    rainbow_number_brute,
    rb_zp,
    thm3_rainbow_free,
    thm5_rainbow_free,
)
from rainbownum.constructions import (
    product_coloring,
    symmetric_interval_coloring,
    two_power_coloring,
    z9_coloring,
)
from rainbownum.formulas import rb_z3, rb_zn
from rainbownum.modring import least_roots


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_criterion_1_equal_coefficients_prime(brute_rb):
    with criterion("1: rb(Z_p, x1+x2+x3=0) = 4 by brute force for p in {5,7,11,13}"):
        for p in (5, 7, 11, 13):
            assert brute_rb(p, Equation(p, 1, 1, 1, 0)).value == 4, p


def test_criterion_2_dichotomy_sweep():
    with criterion(
        "2: rb_zp matches brute force for every unit triple and every b "
        "at p in {5,7} (320 + 1512 equations)"
    ):
        for p, expected_count in ((5, 320), (7, 1512)):
            count = 0
            for a1, a2, a3 in product(range(1, p), repeat=3):
                for b in range(p):
                    eq = Equation(p, a1, a2, a3, b)
                    count += 1
                    assert rb_zp(eq).value == rainbow_number_brute(p, eq).value, eq
            assert count == expected_count, (p, count)


@pytest.mark.slow
def test_criterion_3_two_power(brute_rb):
    with criterion(
        "3: brute force gives alpha+2 on Z_4 and Z_8 for six odd triples "
        "and b in {0,1,3}, and rb(Z_16) = 6"
    ):
        triples = [(1, 1, 1), (1, 1, 3), (1, 3, 1), (3, 1, 1), (1, 3, 3), (3, 3, 3)]
        for coeffs in triples:
            for b in (0, 1, 3):
                assert brute_rb(4, Equation(4, *coeffs, b)).value == 4, (coeffs, b)
                assert brute_rb(8, Equation(8, *coeffs, b)).value == 5, (coeffs, b)
        assert brute_rb(16, Equation(16, 1, 1, 1, 0)).value == 6


def test_criterion_4_z9_counterexample(brute_rb):
    with criterion(
        "4: z9 coloring is rainbow-free, rb(Z_9) = 5 by brute force, and "
        "rb_zn reports NotCovered"
    ):
        eq = Equation(9, 1, 1, 1, 0)
        c = z9_coloring()
        assert find_rainbow(c, eq).rainbow_free
        assert c.r == 4
        assert brute_rb(9, eq).value == 5
        with pytest.raises(NotCoveredError):
            rb_zn(eq)


@pytest.mark.slow
def test_criterion_5_composite_formula(brute_rb):
    with criterion(
        "5: rb_zn gives rb(Z_10, x1+x2+x3=0) = 5 = brute force and "
        "rb(Z_15, x1+x2+2x3=0) = 4 = brute force"
    ):
        eq10 = Equation(10, 1, 1, 1, 0)
        assert rb_zn(eq10).value == 5
        assert brute_rb(10, eq10).value == 5
        eq15 = Equation(15, 1, 1, 2, 0)
        assert rb_zn(eq15).value == 4
        assert brute_rb(15, eq15).value == 4


def test_criterion_6_lower_bound_constructions():
    with criterion(
        "6: product witnesses for (p,t) in {(5,2),(5,3),(7,2)} and the "
        "two-power witnesses for alpha <= 4 verify with the exact color counts"
    ):
        for p, t in ((5, 2), (5, 3), (7, 2)):
            cp = symmetric_interval_coloring(p)
            ct = Coloring.from_classes(t, [{0}, set(range(1, t))])
            eq = Equation(p * t, 1, 1, 1, 0)
            prod = product_coloring(cp, ct, eq)
            assert prod.r == cp.r + ct.r - 1, (p, t)
            assert find_rainbow(prod, eq).rainbow_free, (p, t)
        for alpha in (1, 2, 3, 4):
            c = two_power_coloring(alpha)
            assert c.r == alpha + 1
            assert find_rainbow(c, Equation(2**alpha, 1, 1, 1, 0)).rainbow_free


def test_criterion_7_characterization_equivalence():
    with criterion(
        "7: thm5 (b in {0,1}) and thm3 (c in {2, p-1}) agree with the "
        "search verdict on every exact 3-coloring at p in {5,7}"
    ):
        for p, expected_partitions in ((5, 25), (7, 301)):
            colorings = [Coloring(a) for a in iter_exact_partitions(p, 3)]
            assert len(colorings) == expected_partitions
            for b in (0, 1):
                hg = build_hypergraph(Equation(p, 1, 1, 1, b))
                for c in colorings:
                    assert thm5_rainbow_free(c, b) == hg.is_rainbow_free(c.assign)
            for cparam in (2, p - 1):
                hg = build_hypergraph(Equation(p, 1, 1, -cparam, 0))
                for c in colorings:
                    assert thm3_rainbow_free(c, cparam) == hg.is_rainbow_free(c.assign)


def test_criterion_8a_translation_bijection():
    with criterion(
        "8a: translating by the least root t of (a1+a2+a3)*t = b is a "
        "solution bijection onto b = 0, exhaustive over the solution space "
        "for n <= 12 and every b with a root"
    ):
        for n in range(2, 13):
            for coeffs in [(1, 1, 1), (1, 2, 3), (2, 3, 5), (1, 1, n - 1), (3, 4, 5)]:
                eq0 = Equation(n, *coeffs, 0)
                sols0 = all_solutions(eq0)
                roots = least_roots(eq0.a_sum, range(n), n)
                for b, t in enumerate(roots):
                    if t is None:
                        continue
                    sols = all_solutions(Equation(n, *coeffs, b))
                    mapped = {tuple((x - t) % n for x in s) for s in sols}
                    assert mapped == sols0
                    assert len(sols) == len(sols0)


@pytest.mark.slow
def test_criterion_8b_rb_invariant_under_b_shift():
    with criterion(
        "8b: brute-force rb is invariant under b -> b + (a1+a2+a3)k "
        "for n in {5..10}"
    ):
        for n in range(5, 11):
            for coeffs in [(1, 1, 1), (1, 2, 3)]:
                base_eq = Equation(n, *coeffs, 0)
                shifted = {shift_b(base_eq, k) for k in range(n)}
                values = {rainbow_number_brute(n, e).value for e in shifted}
                assert len(values) == 1, (n, coeffs, values)


def test_criterion_8c_repeated_entry_collapse():
    with criterion(
        "8c: zero-sum unit-coefficient solutions over Z_p with a repeated "
        "entry are constant, exhaustive for p <= 13"
    ):
        for p in (3, 5, 7, 11, 13):
            for a1 in range(1, p):
                for a2 in range(1, p):
                    a3 = (-a1 - a2) % p
                    if a3 == 0:
                        continue
                    eq = Equation(p, a1, a2, a3, 0)
                    for s in range(p):
                        for t in range(p):
                            for triple in ((s, s, t), (s, t, s), (t, s, s)):
                                if eq.is_solution(triple):
                                    assert s == t, (eq, triple)


def test_criterion_8d_residue_propagation():
    with criterion(
        "8d: third entries of solutions are determined mod u by the first "
        "two, exhaustive for u*t <= 30 with a3 a unit mod u"
    ):
        for u in range(3, 11):
            for t in range(3, 11):
                if u * t > 30:
                    continue
                n = u * t
                for coeffs, b in [((1, 1, 1), 0), ((2, 3, 1), 4), ((1, 2, 3), 2)]:
                    if gcd(coeffs[2] % u, u) != 1:
                        continue
                    eq = Equation(n, *coeffs, b)
                    third: dict[tuple[int, int], set[int]] = {}
                    for s1, s2, s3 in all_solutions(eq):
                        third.setdefault((s1 % u, s2 % u), set()).add(s3 % u)
                    assert all(len(v) == 1 for v in third.values()), (u, t, coeffs)


def test_criterion_9_z3_convention(brute_rb):
    with criterion(
        "9: rb(Z_3, 0*x1+x2+2x3=0) = 4 = n+1 and rb_z3 matches brute force "
        "on all 81 coefficient tuples"
    ):
        assert brute_rb(3, Equation(3, 0, 1, 2, 0)).value == 4
        for a1, a2, a3, b in product(range(3), repeat=4):
            eq = Equation(3, a1, a2, a3, b)
            assert rb_z3(eq).value == rainbow_number_brute(3, eq).value, eq
