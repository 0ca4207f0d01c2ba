"""Closed forms at the critical points of the weighted-trace objective on
SO(n), as float64 arrays.

The objective f(A) = sum_i c(i) * A(i,i) with strictly increasing
nonnegative weights has a finite critical set: the diagonal matrices with
entries eps(i) = +-1 and det = +1. Everything about a critical point is a
closed form in its sign pattern. The patterns themselves, their int
indices, the Morse polynomial and the weight rule live in the numpy-free
`patterns` module, their one import path. This module adds what needs
arrays: critical values and Hessian diagonals, which inherit the floating
type of the weights, and the stacked table of the whole critical set.

Closed forms, for a pattern eps and weights c:

* Morse index = sum over 1-based positions i with eps(i) = +1 of (i - 1);
  equivalently the number of negative entries among the Hessian diagonal.
* Hessian of f in the tangent-pair basis is diagonal, with entry
  -c(a)*eps(a) - c(b)*eps(b) at the pair (a, b).
* Critical value = sum_i c(i)*eps(i).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .patterns import _check_n, default_weights, validate_pattern, validate_weights
from .rotations import _pair_arrays


def validate_costs(c, n: int | None = None) -> np.ndarray:
    """The weights as a 1-d float64 array, checked by the weight rule of
    patterns.validate_weights (of length n if given)."""
    c = np.asarray(c, dtype=float)
    validate_weights(c.tolist(), n=n)
    return c


def default_costs(n: int) -> np.ndarray:
    """patterns.default_weights(n), c(i) = i, as a float64 array."""
    return np.array(default_weights(n))


def _sign_table(n: int) -> np.ndarray:
    """sign_patterns(n) as a (2^(n-1), n) float array, built from bits.

    Row p carries the n bits of 2p + (the parity of p), most significant
    first, 1 standing for a -1: the first n-1 signs are the bits of p, and
    the last is -1 exactly when p has an odd number of set bits, which
    makes the product +1. That is the order of sign_patterns, whose body
    stays numpy-free.
    """
    p = np.arange(2 ** (n - 1))
    negative = (2 * p + (np.bitwise_count(p) & 1))[:, None] >> np.arange(n - 1, -1, -1) & 1
    return 1.0 - 2.0 * negative


# The closed forms of the module docstring, each written once. Callers
# pass a validated pattern and weights.


def _index(eps) -> np.ndarray:
    # eps may also be a (P, n) stack of patterns, giving (P,).
    return np.dot(np.asarray(eps) == 1, np.arange(np.shape(eps)[-1]))


def _value(eps, c: np.ndarray) -> np.ndarray:
    # eps may also be a (P, n) stack of patterns, giving (P,). vecdot takes
    # one BLAS dot per pattern, the bits of np.dot(c, eps). Near the top of
    # the float64 range a partial sum can overflow with the wrong sign, or
    # two can meet as inf - inf. A value that is not finite is summed again
    # over c / 2^k with 2^k >= n, where no partial sum overflows; times 2^k
    # it overflows, if at all, with the sign of the exact sum.
    eps = np.asarray(eps, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.vecdot(eps, c)
        finite = np.isfinite(value)
        if not finite.all():
            scale = 2.0 ** (c.size - 1).bit_length()
            value = np.where(finite, value, np.vecdot(eps, c / scale) * scale)
    return value


def _hessian_diagonal(eps, c: np.ndarray) -> np.ndarray:
    # eps may also be a (P, n) stack of patterns, giving (P, d), or the float
    # diagonals of a stack of matrices, giving the diagonal of the tangent
    # Hessian at each: riemannian._tangent_hessian writes it there, and
    # riemannian._descend divides the gradient by its sizes.
    iu, ju = _pair_arrays(c.size)
    w = c * np.asarray(eps, dtype=float)
    h = w.take(iu, axis=-1)
    h += w.take(ju, axis=-1)
    return np.negative(h, out=h)  # in place: -(w_a + w_b) with one temporary fewer


def index_by_formula(eps) -> int:
    """Morse index straight from the sign pattern.

    Sum of (i - 1) over the 1-based positions i carrying +1. The index is 0
    exactly when +1 occurs nowhere (even n) or only in position 1 (odd n);
    the all-(-1) pattern exists in SO(n) only for even n.
    """
    return int(_index(validate_pattern(eps)))


def hessian_diagonal(eps, c) -> np.ndarray:
    """Diagonal of the tangent-pair Hessian at the pattern's matrix.

    Entry for the pair (a, b) is -c(a)*eps(a) - c(b)*eps(b), in
    pair_indices order. The off-diagonal entries vanish identically at
    critical points and are not stored; strict monotonicity of c keeps
    every stored entry nonzero.
    """
    eps = validate_pattern(eps)
    c = validate_costs(c, n=len(eps))
    return _hessian_diagonal(eps, c)


def index_by_hessian(eps, c) -> int:
    """Morse index as the count of negative Hessian-diagonal entries."""
    return int(np.count_nonzero(hessian_diagonal(eps, c) < 0))


def critical_value(eps, c) -> float:
    """Objective value at the pattern's matrix: sum_i c(i)*eps(i).

    Algebraically equal to 2*(sum of c over +1 positions) - sum(c). The
    floating objective at the embedded pattern is the same dot product, but
    over the strided diagonal, which BLAS may sum in another order: the
    two agree within rounding, and bit for bit where every partial sum is
    exact, as at integer weights.
    """
    eps = validate_pattern(eps)
    c = validate_costs(c, n=len(eps))
    return float(_value(eps, c))


def embed_pattern(eps) -> np.ndarray:
    """The diagonal rotation matrix carrying the sign pattern."""
    return np.diag(np.asarray(validate_pattern(eps), dtype=float))


CriticalPointRecord = namedtuple("CriticalPointRecord", ("pattern", "index", "value", "hessian_diagonal"))
CriticalPointRecord.__doc__ = """One critical point: sign pattern, Morse index, value, and the
Hessian diagonal in pair_indices order."""


def _pattern_table(n: int, c: np.ndarray) -> tuple:
    """The critical set as stacked arrays, one row per pattern in
    sign_patterns(n) order: the (P, n) float sign table, the (P,) int
    indices, the (P,) values and the (P, d) Hessian diagonals.

    One stacked call each of the closed forms, so the floats carry the bits
    of critical_value and hessian_diagonal. Callers pass validated weights.
    Near the top of the float64 range a value or Hessian entry overflows to
    +-inf, with the sign of its exact sum; that is its float result, so
    numpy is not asked to warn about it.
    """
    signs = _sign_table(n)
    with np.errstate(over="ignore"):
        return signs, _index(signs), _value(signs, c), _hessian_diagonal(signs, c)


def enumerate_critical_points(n: int, c=None) -> list:
    """All 2^(n-1) critical points, fully populated.

    Order follows sign_patterns(n), so output is deterministic. Weights
    default to c(i) = i. Each record holds one row of _pattern_table.
    """
    _check_n(n)
    c = default_costs(n) if c is None else validate_costs(c, n=n)
    signs, indices, values, hessians = _pattern_table(n, c)
    patterns = map(tuple, signs.astype(int).tolist())
    return list(map(CriticalPointRecord, patterns, indices.tolist(), values.tolist(), hessians))
