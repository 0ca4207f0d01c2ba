import functools
import math
import re

import numpy as np
import pytest

from rotmorse.critical import enumerate_critical_points, validate_costs
from rotmorse.patterns import default_weights, morse_polynomial, sign_patterns, validate_weights
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

