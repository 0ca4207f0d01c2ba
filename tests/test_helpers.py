import numpy as np
import pytest

from rotmorse.intpoly import IntPolynomial
from rotmorse.patterns import _index, sign_patterns

from helpers import (
    add_coeffs,
    assert_same_text,
    enumerate_basis,
    enumerate_basis_degrees,
    enumerate_morse_indices,
    evaluate,
    random_costs,
    shift_coeffs,
)


def test_random_costs_strictly_increasing():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5):
        c = random_costs(n, rng)
        assert c.size == n and c[0] >= 0.0
        assert np.all(np.diff(c) > 0)


def test_coefficient_shift_add_and_evaluate():
    assert shift_coeffs((1, 2), 2) == (0, 0, 1, 2)
    assert shift_coeffs((1, 2), 0) == (1, 2)
    assert add_coeffs((1, 2), (0, 1, 1)) == (1, 3, 1)
    assert add_coeffs((1,), (), (0, 0, 4)) == (1, 0, 4)
    assert add_coeffs() == ()
    assert evaluate(IntPolynomial([1, 2]), 3) == 7
    assert evaluate(IntPolynomial.zero(), 5) == 0


def test_enumerate_morse_indices_is_the_index_of_every_pattern():
    for n in range(1, 12):
        assert sorted(enumerate_morse_indices(n)) == sorted(_index(eps) for eps in sign_patterns(n))


def test_enumerate_basis_degrees_is_the_degree_of_every_basis_element():
    for n in range(1, 12):
        assert enumerate_basis_degrees(n) == [sum(b) for b in enumerate_basis(n)]


def test_assert_same_text_names_the_first_differing_line():
    assert_same_text("a\nb\n", "a\nb\n")
    with pytest.raises(AssertionError, match=r"line 2: got 'b\\n', expected 'c\\n'"):
        assert_same_text("a\nb\n", "a\nc\n")
    with pytest.raises(AssertionError, match=r"\(lengths 2 and 4\); first at line 2: got None, expected"):
        assert_same_text("a\n", "a\nb\n")
