import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from rotmorse.critical import (
    _hessian_diagonal,
    _index,
    _pattern_table,
    _sign_table,
    critical_value,
    default_costs,
    embed_pattern,
    enumerate_critical_points,
    hessian_diagonal,
    index_by_formula,
    index_by_hessian,
    validate_costs,
)
from rotmorse.intpoly import IntPolynomial
from rotmorse.patterns import morse_polynomial, sign_patterns, validate_pattern
from rotmorse.topology import poincare_product

from helpers import enumerate_morse_indices, evaluate, random_costs


def brute_force_records(n, c):
    """Independent reference: exhaust the sign cube with scalar loops."""
    out = []
    for eps in itertools.product((1, -1), repeat=n):
        if math.prod(eps) != 1:
            continue
        index = sum(i - 1 for i in range(1, n + 1) if eps[i - 1] == 1)
        value = sum(ci * ei for ci, ei in zip(c, eps))
        out.append((eps, index, value))
    return out


def test_n2_records_frozen():
    recs = enumerate_critical_points(2, [1.0, 2.0])
    assert [(r.pattern, r.index, r.value) for r in recs] == [
        ((1, 1), 1, 3.0),
        ((-1, -1), 0, -3.0),
    ]


def test_n3_records_frozen():
    recs = enumerate_critical_points(3, [1.0, 2.0, 3.0])
    assert [(r.pattern, r.index, r.value) for r in recs] == [
        ((1, 1, 1), 3, 6.0),
        ((1, -1, -1), 0, -4.0),
        ((-1, 1, -1), 1, -2.0),
        ((-1, -1, 1), 2, 0.0),
    ]


def test_n1_single_record():
    (rec,) = enumerate_critical_points(1, [2.5])
    assert rec.pattern == (1,) and rec.index == 0 and rec.value == 2.5
    assert rec.hessian_diagonal.size == 0


def test_matches_brute_force():
    rng = np.random.default_rng(1)
    for n in range(1, 7):
        c = np.sort(rng.uniform(0.0, 10.0, n))
        expected = brute_force_records(n, c)
        recs = enumerate_critical_points(n, c)
        assert [(r.pattern, r.index) for r in recs] == [(e, i) for e, i, _ in expected]
        for rec, (_, _, value) in zip(recs, expected):
            assert rec.value == pytest.approx(value, abs=1e-12)


def test_cardinality_up_to_12():
    for n in range(1, 13):
        assert len(sign_patterns(n)) == 2 ** (n - 1)


@pytest.mark.parametrize("n", range(1, 15))
def test_sign_table_is_the_stacked_sign_patterns_bitwise(n):
    table = _sign_table(n)
    assert table.shape == (2 ** (n - 1), n)
    expected = np.array(sign_patterns(n), dtype=float)
    assert table.dtype == expected.dtype and table.tobytes() == expected.tobytes()
    if n == 1:
        assert table.tolist() == [[1.0]]


def test_enumeration_order_plus_first():
    assert sign_patterns(3) == [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]


def test_index_formula_examples():
    assert index_by_formula((-1,) * 4) == 0
    assert index_by_formula((1, 1, 1)) == 3
    assert index_by_formula((-1, 1, -1)) == 1


def test_index_zero_pattern_parity():
    # even n: all-minus; odd n: plus only in the cheapest slot
    assert index_by_formula((-1, -1, -1, -1)) == 0
    assert index_by_formula((1, -1, -1)) == 0


def test_hessian_diagonal_example():
    assert_array_equal(hessian_diagonal((-1, 1, -1), [1, 2, 3]), [-1.0, 4.0, 1.0])


def test_hessian_diagonal_of_a_pattern_stack_equals_rows():
    rng = np.random.default_rng(6)
    for n in range(1, 9):
        c = np.sort(rng.uniform(0.0, 10.0, n))
        patterns = sign_patterns(n)
        stacked = _hessian_diagonal(np.array(patterns), c)
        assert stacked.shape == (len(patterns), n * (n - 1) // 2)
        for row, eps in zip(stacked, patterns):
            assert row.tobytes() == hessian_diagonal(eps, c).tobytes()


def test_index_of_a_pattern_stack_equals_the_position_sum():
    for n in range(1, 12):
        patterns = sign_patterns(n)
        expected = [sum(i for i, e in enumerate(eps) if e == 1) for eps in patterns]
        assert _index(np.array(patterns)).tolist() == expected
        assert _index(np.array(patterns, dtype=float)).tolist() == expected


def test_hessian_all_minus_positive_definite():
    hd = hessian_diagonal((-1,) * 4, [1, 2, 3, 4])
    assert np.all(hd > 0)
    assert index_by_hessian((-1,) * 4, [1, 2, 3, 4]) == 0


def test_hessian_all_plus_top_index():
    hd = hessian_diagonal((1,) * 4, [1, 2, 3, 4])
    assert np.all(hd < 0)
    assert index_by_hessian((1,) * 4, [1, 2, 3, 4]) == 6


def test_index_equivalence_exhaustive_small():
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        for _ in range(10):
            c = np.sort(rng.uniform(0.0, 10.0, n))
            for eps in sign_patterns(n):
                assert index_by_formula(eps) == index_by_hessian(eps, c)


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_index_equivalence_property(n, seed):
    c = np.sort(np.random.default_rng(seed).uniform(0.0, 10.0, n))
    for eps in sign_patterns(n):
        assert index_by_formula(eps) == index_by_hessian(eps, c)


def test_critical_value_two_forms_agree():
    for n in range(1, 9):
        c = default_costs(n)
        total = float(np.sum(c))
        for eps in sign_patterns(n):
            plus = sum(c[i] for i in range(n) if eps[i] == 1)
            assert critical_value(eps, c) == pytest.approx(2 * plus - total, abs=1e-9)


def test_critical_value_examples():
    assert critical_value((1, 1, 1), [1, 2, 3]) == 6.0
    assert critical_value((1, -1, -1), [1, 2, 3]) == -4.0


def test_morse_polynomial_small():
    assert morse_polynomial(1) == IntPolynomial([1])
    assert morse_polynomial(2) == IntPolynomial([1, 1])
    assert morse_polynomial(4).to_list() == [1, 1, 1, 2, 1, 1, 1]


def test_morse_polynomial_count_and_degree():
    for n in range(1, 13):
        p = morse_polynomial(n)
        assert evaluate(p, 1) == 2 ** (n - 1)
        assert p.degree == n * (n - 1) // 2


def test_morse_polynomial_equals_pattern_histogram():
    rng = np.random.default_rng(12)
    for n in range(1, 15):
        # the tuple route: one _index call per enumerated sign pattern
        expected = IntPolynomial.counting(_index(eps) for eps in sign_patterns(n))
        assert morse_polynomial(n) == expected
        assert morse_polynomial(n, random_costs(n, rng)) == expected


def test_morse_polynomial_equals_the_enumerated_indices():
    # the count by index and parity against the int-list enumeration
    rng = np.random.default_rng(13)
    for n in range(1, 21):
        expected = IntPolynomial.counting(enumerate_morse_indices(n))
        assert morse_polynomial(n) == expected
        assert morse_polynomial(n, random_costs(n, rng)) == expected


def test_morse_polynomial_equals_the_poincare_product_far_beyond_enumeration():
    # the paper's theorem through the count, at n no enumeration reaches
    for n in range(1, 81):
        assert morse_polynomial(n) == poincare_product(n)


def test_morse_polynomial_rejects_bad_input():
    with pytest.raises(ValueError):
        morse_polynomial(0)
    with pytest.raises(ValueError):
        morse_polynomial(3, [1.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        morse_polynomial(3, [1.0, 2.0])


def test_records_equal_the_public_closed_forms_bitwise():
    rng = np.random.default_rng(13)
    for n, c in [(n, w) for n in range(1, 12) for w in (default_costs(n), random_costs(n, rng))]:
        records = enumerate_critical_points(n, c)
        assert [r.pattern for r in records] == sign_patterns(n)
        for r in records:
            assert type(r.index) is int and r.index == index_by_formula(r.pattern)
            assert type(r.value) is float
            value = np.float64(r.value).tobytes()
            assert value == np.float64(critical_value(r.pattern, c)).tobytes()
            assert value == np.dot(c, np.array(r.pattern, dtype=float)).tobytes()
            assert r.hessian_diagonal.tobytes() == hessian_diagonal(r.pattern, c).tobytes()


@pytest.mark.parametrize("n", [6, 8, 11, 16])
def test_values_near_the_float64_limit_have_the_sign_of_the_exact_sum(n):
    # Most values overflow here. Each must do so with the sign of its exact
    # sum, and none may be NaN (an inf - inf inside the dot product). A value
    # whose exact sum lies within the dot product's rounding bound
    # n*eps*sum(c) may round to either sign, as a finite sum does anywhere.
    c = np.linspace(1e308, 1.7e308, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        signs, _, values, _ = _pattern_table(n, c)
    assert np.isinf(values).any()
    weights = [Fraction(x) for x in c.tolist()]
    total = sum(weights)
    bound = n * Fraction(np.finfo(float).eps) * total
    for eps, value in zip(signs.tolist(), values.tolist()):
        assert not math.isnan(value)
        exact = 2 * sum(w for w, e in zip(weights, eps) if e > 0) - total
        if abs(exact) > bound:
            assert (value > 0) == (exact > 0), (eps, value)


def test_unique_extremes():
    rng = np.random.default_rng(9)
    for n in range(2, 9):
        c = np.sort(rng.uniform(0.0, 5.0, n))
        recs = enumerate_critical_points(n, c)
        d = n * (n - 1) // 2
        zeros = [r for r in recs if r.index == 0]
        tops = [r for r in recs if r.index == d]
        assert len(zeros) == 1 and len(tops) == 1
        assert tops[0].pattern == (1,) * n
        assert min(recs, key=lambda r: r.value) is zeros[0]


def test_c1_zero_keeps_hessian_nondegenerate():
    c = [0.0, 1.0, 2.0]
    for eps in sign_patterns(3):
        assert np.all(hessian_diagonal(eps, c) != 0)


def test_cost_validation():
    with pytest.raises(ValueError):
        validate_costs([1.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        validate_costs([-1.0, 1.0])
    with pytest.raises(ValueError):
        validate_costs([2.0, 1.0])
    with pytest.raises(ValueError):
        enumerate_critical_points(3, [1, 1, 2])


def test_pattern_validation():
    with pytest.raises(ValueError):
        validate_pattern((1, -1))  # product -1
    with pytest.raises(ValueError):
        validate_pattern((1, 0, -1))
    with pytest.raises(ValueError):
        validate_pattern(())
    # An entry must equal +-1 as given; nothing is truncated to an int first.
    for eps in [(1.7, -1.2, -1), (1.5, 1.2), (1, math.inf, 1), (1, None, 1), ("1", "1"), (1, math.nan, 1)]:
        with pytest.raises(ValueError, match="entries must be"):
            validate_pattern(eps)
    with pytest.raises(ValueError, match=re.escape("got (0.5, 1)")):
        validate_pattern((0.5, 1))
    with pytest.raises(ValueError):
        index_by_formula((1.7, -1.2, -1))
    with pytest.raises(ValueError):
        embed_pattern((1.5, 1.2))
    eps = validate_pattern((1.0, np.int64(1), np.float64(-1.0), -1))
    assert eps == (1, 1, -1, -1) and all(type(e) is int for e in eps)
