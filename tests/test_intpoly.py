import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rotmorse.intpoly import IntPolynomial, _exact_quotient, _shift_add

from helpers import add_coeffs, evaluate, shift_coeffs


def test_trailing_zeros_trimmed():
    assert IntPolynomial([1, 0, 2, 0, 0]).coeffs == (1, 0, 2)


def test_zero_polynomial():
    p = IntPolynomial([0, 0])
    assert not p
    assert p.degree == -1
    assert str(p) == "0"
    assert p.to_list() == []


def test_rejects_negative_and_non_integer():
    with pytest.raises(ValueError):
        IntPolynomial([1, -1])
    with pytest.raises(TypeError):
        IntPolynomial([1.5])


def test_str_format():
    assert str(IntPolynomial([1, 1, 0, 2])) == "1 + t + 2t^3"
    assert str(IntPolynomial([0, 3])) == "3t"
    assert str(IntPolynomial([5])) == "5"


def test_coefficient_out_of_range_is_zero():
    p = IntPolynomial([4, 5])
    assert p.coefficient(0) == 4 and p.coefficient(7) == 0 and p.coefficient(-1) == 0


def test_counting_histogram():
    assert IntPolynomial.counting([]) == IntPolynomial.zero()
    assert IntPolynomial.counting([5, 0, 2, 2]).coeffs == (1, 0, 2, 0, 0, 1)
    with pytest.raises(ValueError):
        IntPolynomial.counting([1, -1])


@given(st.lists(st.integers(0, 30), max_size=40))
def test_counting_total_is_length(degrees):
    assert evaluate(IntPolynomial.counting(degrees), 1) == len(degrees)


COEFFS = st.lists(st.integers(0, 50), max_size=12)


@given(COEFFS, COEFFS, st.integers(0, 15))
@example([], [], 0)
@example([], [1, 2], 3)
@example([4, 5], [], 3)
@example([1, 2], [3], 0)
@example([1, 2, 3, 4, 5, 6], [7], 2)  # len(b) + k < len(a)
def test_shift_add_is_a_plus_t_to_the_k_times_b(a, b, k):
    a_before, b_before = list(a), list(b)
    out = _shift_add(a, b, k)
    assert tuple(out) == add_coeffs(a, shift_coeffs(b, k))
    assert out is not a and out is not b
    assert (a, b) == (a_before, b_before)


@given(COEFFS, st.integers(0, 15))
def test_shift_add_of_a_list_with_itself_leaves_it_unchanged(x, k):
    before = list(x)
    assert tuple(_shift_add(x, x, k)) == add_coeffs(before, shift_coeffs(before, k))
    assert x == before


def _times_one_minus(a, s):
    """The coefficient list of a * (1 - t^s), of length len(a) + s."""
    out = list(a) + [0] * s
    for i, x in enumerate(a, s):
        out[i] -= x
    return out


@given(st.lists(st.integers(-50, 50), max_size=12), st.integers(1, 8))
@example([], 1)
@example([1, 2, 3], 5)
def test_exact_quotient_undoes_one_minus_t_to_the_s(a, s):
    b = _times_one_minus(a, s)
    before = list(b)
    assert _exact_quotient(b, s) == a
    assert b == before


@given(st.lists(st.integers(-50, 50), max_size=12), st.integers(1, 8), st.data())
def test_exact_quotient_refuses_a_perturbed_multiple(a, s, data):
    # t^j is not a multiple of 1 - t^s, so neither is b + t^j
    b = _times_one_minus(a, s)
    b[data.draw(st.integers(0, len(b) - 1))] += 1
    with pytest.raises(ArithmeticError, match=rf"^1 - t\^{s} does not divide "):
        _exact_quotient(b, s)


def test_exact_quotient_frozen_values():
    assert _exact_quotient([1, 0, -1], 2) == [1]
    assert _exact_quotient([1, 1, -1, -1], 2) == [1, 1]
    assert _exact_quotient([], 3) == []
    with pytest.raises(ArithmeticError):
        _exact_quotient([1], 3)
