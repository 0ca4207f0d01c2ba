import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rotmorse.intpoly import IntPolynomial
from rotmorse.patterns import morse_polynomial
from rotmorse.topology import (
    _gaussian_binomials,
    is_perfect,
    morse_remainder,
    morse_split_by_last_sign,
    poincare_from_basis,
    poincare_product,
)

from helpers import add_coeffs, enumerate_basis, enumerate_basis_degrees, evaluate, shift_coeffs


def expand_product_naive(n):
    """Independent expansion of (1+t)(1+t^2)...(1+t^(n-1)) by shift-and-add."""
    coeffs = [1]
    for k in range(1, n):
        out = [0] * (len(coeffs) + k)
        for i, a in enumerate(coeffs):
            out[i] += a
            out[i + k] += a
        coeffs = out
    return coeffs


def test_product_frozen_values():
    assert poincare_product(1) == IntPolynomial([1])
    assert poincare_product(2) == IntPolynomial([1, 1])
    assert poincare_product(4).to_list() == [1, 1, 1, 2, 1, 1, 1]


def test_product_matches_naive_expansion():
    for n in range(1, 41):
        assert poincare_product(n).to_list() == expand_product_naive(n)


def test_basis_small_frozen():
    assert enumerate_basis(1) == [()]
    assert enumerate_basis(2) == [(), (1,)]
    assert enumerate_basis(3) == [(), (1,), (2,), (1, 2)]


def test_basis_matches_direct_subset_enumeration():
    for n in range(1, 11):
        got = sorted(enumerate_basis(n))
        expected = sorted(s for k in range(n) for s in combinations(range(1, n), k))
        assert got == expected
        assert len(got) == 2 ** (n - 1)


def test_poincare_from_basis_small():
    assert poincare_from_basis(3).to_list() == [1, 1, 1, 1]
    assert poincare_from_basis(4).coefficient(3) == 2


def test_poincare_from_basis_equals_basis_histogram():
    for n in range(1, 15):
        expected = IntPolynomial.counting(sum(b) for b in enumerate_basis(n))
        assert poincare_from_basis(n) == expected


def test_poincare_from_basis_equals_the_enumerated_degrees():
    # the count by exterior power against the int-list doubling
    for n in range(1, 21):
        assert poincare_from_basis(n) == IntPolynomial.counting(enumerate_basis_degrees(n))


def test_each_exterior_power_is_its_subset_sums():
    # Lambda^s has the degrees of t^(s(s+1)/2) [n-1 choose s]_t
    for n in range(1, 13):
        powers = list(_gaussian_binomials(n - 1))
        assert len(powers) == n
        for s, g in enumerate(powers):
            expected = IntPolynomial.counting(sum(b) for b in combinations(range(1, n), s))
            assert IntPolynomial(shift_coeffs(g, s * (s + 1) // 2)) == expected


def test_poincare_from_basis_lists_no_basis_element():
    # the enumeration held 2^21 ints at n = 22, a 25 MB tracemalloc peak
    poincare_from_basis(22)
    tracemalloc.start()
    try:
        poincare_from_basis(22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_poincare_from_basis_rejects_n_below_one():
    with pytest.raises(ValueError):
        poincare_from_basis(0)


def test_two_routes_agree():
    for n in range(1, 81):
        assert poincare_from_basis(n) == poincare_product(n)


def test_count_and_degree_identities():
    for n in range(1, 81):
        p = poincare_product(n)
        assert evaluate(p, 1) == 2 ** (n - 1)
        assert p.degree == n * (n - 1) // 2


def test_palindrome_property():
    for n in range(1, 81):
        coeffs = poincare_product(n).coeffs
        assert coeffs == coeffs[::-1]


def test_remainder_perfect_case():
    p = poincare_product(5)
    assert morse_remainder(p, p) == IntPolynomial.zero()


def test_remainder_worked_example():
    # (1 + 2t + t^2) - (1 + t) = t + t^2 = (1 + t) * t
    assert morse_remainder(IntPolynomial([1, 2, 1]), IntPolynomial([1, 1])) == IntPolynomial([0, 1])


def test_remainder_infeasible():
    # t^2 is not divisible by 1 + t with a nonnegative quotient
    assert morse_remainder(IntPolynomial([1, 0, 1]), IntPolynomial([1])) is None


def test_remainder_constant_difference_infeasible():
    assert morse_remainder(IntPolynomial([3]), IntPolynomial([1])) is None


def test_remainder_rejects_non_polynomial_input():
    with pytest.raises(TypeError):
        morse_remainder([1, 1], IntPolynomial([1]))


@given(
    st.lists(st.integers(0, 9), max_size=6),
    st.lists(st.integers(0, 9), max_size=6),
)
def test_remainder_soundness(pm_coeffs, r_coeffs):
    # P_f = P_M + (1 + t) R
    p_f = add_coeffs(pm_coeffs, r_coeffs, shift_coeffs(r_coeffs, 1))
    assert morse_remainder(IntPolynomial(p_f), IntPolynomial(pm_coeffs)) == IntPolynomial(r_coeffs)


def test_is_perfect_n5():
    report = is_perfect(5)
    assert report.perfect
    assert report.morse.to_list() == [1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1]
    assert report.remainder == IntPolynomial.zero()
    assert report.morse == report.poincare_basis == report.poincare_product


def test_is_perfect_n1():
    report = is_perfect(1)
    assert report.perfect and report.morse == IntPolynomial([1])


def test_is_perfect_random_costs_n8():
    c = np.sort(np.random.default_rng(17).uniform(0.0, 10.0, 8))
    assert is_perfect(8, c).perfect


def test_split_by_last_sign():
    for m in range(2, 10):
        minus, plus = morse_split_by_last_sign(m)
        prev = morse_polynomial(m - 1)
        assert minus == prev
        assert plus.coeffs == shift_coeffs(prev.coeffs, m - 1)
        assert add_coeffs(minus.coeffs, plus.coeffs) == morse_polynomial(m).coeffs


def test_split_needs_dimension_two():
    with pytest.raises(ValueError, match=r"^m must be >= 2, got 1$"):
        morse_split_by_last_sign(1)


@pytest.mark.parametrize("m", ["3", None, 2.5], ids=repr)
def test_split_refuses_a_dimension_that_is_not_an_integer(m):
    # the one integer rule, before any comparison: no TypeError from m < 2
    with pytest.raises(ValueError, match=rf"^m must be an integer, got {re.escape(repr(m))}$"):
        morse_split_by_last_sign(m)
