import pytest
from hypothesis import given
from hypothesis import strategies as st

from rotmorse.intpoly import IntPolynomial

from helpers import evaluate


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
