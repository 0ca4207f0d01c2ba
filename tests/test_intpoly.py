import pytest
from hypothesis import given
from hypothesis import strategies as st

from rotmorse.intpoly import IntPolynomial

coeff_lists = st.lists(st.integers(0, 50), max_size=8)


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


def test_monomial_and_one():
    assert IntPolynomial.monomial(3).coeffs == (0, 0, 0, 1)
    assert IntPolynomial.one() == IntPolynomial([1])
    with pytest.raises(ValueError):
        IntPolynomial.monomial(-1)


def test_add_mul_eval():
    p, q = IntPolynomial([1, 2]), IntPolynomial([0, 1, 1])
    assert (p + q).coeffs == (1, 3, 1)
    assert (p * q).coeffs == (0, 1, 3, 2)
    assert p(3) == 7
    assert IntPolynomial.zero()(5) == 0


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
    assert IntPolynomial.counting(degrees)(1) == len(degrees)


@given(coeff_lists, coeff_lists)
def test_mul_matches_evaluation(a, b):
    p, q = IntPolynomial(a), IntPolynomial(b)
    for x in (0, 1, 2, -1, 5):
        assert (p * q)(x) == p(x) * q(x)


@given(coeff_lists, coeff_lists)
def test_add_matches_evaluation(a, b):
    p, q = IntPolynomial(a), IntPolynomial(b)
    for x in (1, 2, -2):
        assert (p + q)(x) == p(x) + q(x)
