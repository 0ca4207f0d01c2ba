import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rotmorse.critical import enumerate_critical_points, validate_costs
from rotmorse.patterns import (
    _check_descent,
    _gap,
    _top,
    default_weights,
    morse_polynomial,
    sign_patterns,
    validate_weights,
)
from rotmorse.rotations import generator, givens_curve, haar_sample, pair_indices
from rotmorse.topology import is_perfect, poincare_from_basis, poincare_product

WEIGHTS = [
    [1.0, 2.0, 3.0],
    [0.0, 5e-324, 1.0],
    [-0.0, 1.0, 2.0],
    [1e308, 1.5e308, 1.7e308],
    [1, 2, 3],
    ["1", "2.5", "3"],
    np.array([0.5, 1.0, 4.0]),
    [1.0, 1.0, 2.0],
    [2.0, 1.0, 3.0],
    [-1.0, 1.0, 2.0],
    [math.nan, 1.0, 2.0],
    [1.0, math.inf, 2.0],
    [1.0, 2.0],
    [1.0, 2.0, 3.0, 4.0],
    [],
    5.0,
    "123",
    [[1.0, 2.0, 3.0]],
    ["1", "x", "3"],
    np.zeros((2, 0)),
    np.ones((3, 1)),
    np.asarray(5.0),
]


def _outcome(check, c):
    try:
        return list(check(c, n=3))
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("c", WEIGHTS, ids=repr)
def test_validate_costs_keeps_the_rule_of_validate_weights(c):
    # validate_costs converts to float64 and applies the one weight rule,
    # so both accept the same weights and refuse the rest with one message.
    assert _outcome(validate_weights, c) == _outcome(validate_costs, c)


# Admissible weights: sorted distinct finite floats >= 0, or subnormal
# ones k * 5e-324 (exact for k < 2^52) spaced by a few units, then maybe 1.
ADMISSIBLE = st.one_of(
    st.lists(st.floats(0.0, 1e300), min_size=1, max_size=8).map(lambda xs: sorted({abs(x) for x in xs})),
    st.builds(
        lambda start, steps, top: [k * 5e-324 for k in itertools.accumulate(steps, initial=start)] + top,
        st.integers(0, 2**30),
        st.lists(st.integers(1, 2**20), max_size=6),
        st.sampled_from([[], [1.0]]),
    ),
)


@given(ADMISSIBLE)
@example([0.0])
@example([0.0, 5e-324, 1.0])
@example([1e-320, 1.5e-320])
def test_top_and_gap_are_the_chambers_last_weight_and_smallest_step(c):
    validate_weights(c)
    for weights in (c, np.array(c)):
        # bit for bit what numpy gives, as a float, at every n including 1
        assert _top(weights).hex() == float(np.asarray(c)[-1]).hex()
        assert _gap(weights).hex() == float(np.diff(c).min(initial=np.inf)).hex()
        assert type(_top(weights)) is type(_gap(weights)) is float


@pytest.mark.parametrize(
    "c, weights_refuse, descent_refuses",
    [
        ((1.0, 1.0), True, True),
        ((-0.0, 0.0), True, True),
        ((0.0, 5e-324, 1.0), False, True),  # ties once scaled by 1/2
        ((0.0, 1e-323, 1.0), False, False),
    ],
    ids=repr,
)
def test_both_tie_tests_refuse_exactly_the_ties_of_the_gap(c, weights_refuse, descent_refuses):
    # validate_weights refuses a gap <= 0 of the weights, _check_descent one
    # of the weights scaled by _scale.
    for refuses, check, message in (
        (weights_refuse, validate_weights, "strictly increasing"),
        (descent_refuses, lambda c: _check_descent(c, 1e-8), "float64 range"),
    ):
        if refuses:
            with pytest.raises(ValueError, match=message):
                check(list(c))
        else:
            check(list(c))


def test_validate_weights_returns_floats():
    assert validate_weights([0, 1, 2]) == [0.0, 1.0, 2.0]
    assert all(type(x) is float for x in validate_weights(np.arange(1.0, 4.0)))
    assert validate_weights(default_weights(4), n=4) == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize(
    "function",
    [
        default_weights,
        enumerate_critical_points,
        sign_patterns,
        pair_indices,
        haar_sample,
        poincare_product,
        morse_polynomial,
        poincare_from_basis,
        is_perfect,
        pytest.param(functools.partial(givens_curve, (1, 2), 0.1), id="givens_curve"),
        pytest.param(functools.partial(generator, (1, 2)), id="generator"),
    ],
)
def test_n_below_1_is_refused(function):
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        function(0)
    # A count must be an integer as operator.index takes it: 3.0 is refused
    # by the rule's owner too, not by range() or numpy with a TypeError.
    for n in (2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match=rf"^n must be an integer, got {re.escape(repr(n))}$"):
            function(n)

