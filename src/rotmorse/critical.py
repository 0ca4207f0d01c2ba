"""Exact combinatorial layer for the weighted-trace objective on SO(n).

The objective f(A) = sum_i c(i) * A(i,i) with strictly increasing
nonnegative weights has a finite critical set: the diagonal matrices with
entries eps(i) = +-1 and det = +1. Everything about a critical point is a
closed form in its sign pattern, so this layer works with patterns
directly and stays exact — indices and counts are integers, and only the
critical values inherit the floating type of the weights.

Closed forms, for a pattern eps and weights c:

* Morse index = sum over 1-based positions i with eps(i) = +1 of (i - 1);
  equivalently the number of negative entries among the Hessian diagonal.
* Hessian of f in the tangent-pair basis is diagonal, with entry
  -c(a)*eps(a) - c(b)*eps(b) at the pair (a, b).
* Critical value = sum_i c(i)*eps(i).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .intpoly import IntPolynomial
from .rotations import pair_indices


def validate_costs(c, n: int | None = None) -> np.ndarray:
    """Check 0 <= c[0] and strict increase; return the weights as float64.

    Strictness is what keeps every Hessian entry c(a)*eps(a) + c(b)*eps(b)
    away from zero: with 0 <= c(a) < c(b), both the sum and the difference
    of two distinct weights are nonzero, even when c[0] == 0.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("cost vector must be a nonempty 1-d sequence")
    if n is not None and c.size != n:
        raise ValueError(f"cost vector has length {c.size}, expected {n}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost vector entries must be finite")
    if c[0] < 0:
        raise ValueError("cost vector must satisfy 0 <= c_1")
    if c.size > 1 and not np.all(np.diff(c) > 0):
        raise ValueError("cost vector must be strictly increasing")
    return c


def default_costs(n: int) -> np.ndarray:
    """The integer weights c(i) = i, the reproducible default everywhere."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return np.arange(1, n + 1, dtype=float)


def validate_pattern(eps) -> tuple:
    """Normalize a sign pattern to a tuple of +-1 ints with product +1."""
    eps = tuple(int(e) for e in eps)
    if not eps:
        raise ValueError("sign pattern must be nonempty")
    if any(e not in (-1, 1) for e in eps):
        raise ValueError(f"sign pattern entries must be +-1, got {eps}")
    if math.prod(eps) != 1:
        raise ValueError("sign pattern must have product +1 (det constraint of SO(n))")
    return eps


def sign_patterns(n: int) -> list:
    """All 2^(n-1) admissible sign patterns, lexicographic with +1 first.

    The first n-1 signs run over the sign cube in lexicographic order and
    the last sign is their product, which makes the full product +1. This
    is the same order as filtering all 2^n sign vectors lexicographically.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [head + (math.prod(head),) for head in itertools.product((1, -1), repeat=n - 1)]


# The closed forms of the module docstring, each written once. Callers
# pass a validated pattern and weights.


def _index(eps) -> int:
    return sum(i for i, e in enumerate(eps) if e == 1)


def _value(eps, c: np.ndarray) -> float:
    return float(np.dot(c, np.asarray(eps, dtype=float)))


def _hessian_diagonal(eps, c: np.ndarray, iu: np.ndarray, ju: np.ndarray) -> np.ndarray:
    w = c * np.asarray(eps, dtype=float)
    return -(w[iu] + w[ju])


def index_by_formula(eps) -> int:
    """Morse index straight from the sign pattern.

    Sum of (i - 1) over the 1-based positions i carrying +1. The index is 0
    exactly when +1 occurs nowhere (even n) or only in position 1 (odd n);
    the all-(-1) pattern exists in SO(n) only for even n.
    """
    return _index(validate_pattern(eps))


def hessian_diagonal(eps, c) -> np.ndarray:
    """Diagonal of the tangent-pair Hessian at the pattern's matrix.

    Entry for the pair (a, b) is -c(a)*eps(a) - c(b)*eps(b), in
    pair_indices order. The off-diagonal entries vanish identically at
    critical points and are not stored; strict monotonicity of c keeps
    every stored entry nonzero.
    """
    eps = validate_pattern(eps)
    c = validate_costs(c, n=len(eps))
    return _hessian_diagonal(eps, c, *np.triu_indices(len(eps), k=1))


def index_by_hessian(eps, c) -> int:
    """Morse index as the count of negative Hessian-diagonal entries."""
    return int(np.count_nonzero(hessian_diagonal(eps, c) < 0))


def critical_value(eps, c) -> float:
    """Objective value at the pattern's matrix: sum_i c(i)*eps(i).

    Algebraically equal to 2*(sum of c over +1 positions) - sum(c). Uses
    the same dot-product expression as the floating objective so the two
    layers agree bit for bit on embedded patterns.
    """
    eps = validate_pattern(eps)
    c = validate_costs(c, n=len(eps))
    return _value(eps, c)


def embed_pattern(eps) -> np.ndarray:
    """The diagonal rotation matrix carrying the sign pattern."""
    return np.diag(np.asarray(validate_pattern(eps), dtype=float))


@dataclass(frozen=True)
class CriticalPointRecord:
    """One critical point: sign pattern, Morse index, value, and the
    Hessian diagonal in pair_indices order."""

    pattern: tuple
    index: int
    value: float
    hessian_diagonal: np.ndarray

    def to_json_dict(self) -> dict:
        pairs = pair_indices(len(self.pattern))
        return {
            "eps": list(self.pattern),
            "index": self.index,
            "value": self.value,
            "hessian_diagonal": {
                f"({i},{j})": h
                for (i, j), h in zip(pairs, self.hessian_diagonal.tolist())
            },
        }


def enumerate_critical_points(n: int, c=None) -> list:
    """All 2^(n-1) critical points, fully populated.

    Order follows sign_patterns(n), so output is deterministic. Weights
    default to c(i) = i.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    c = default_costs(n) if c is None else validate_costs(c, n=n)
    iu, ju = np.triu_indices(n, k=1)
    return [
        CriticalPointRecord(eps, _index(eps), _value(eps, c), _hessian_diagonal(eps, c, iu, ju))
        for eps in sign_patterns(n)
    ]


def morse_polynomial(n: int, c=None) -> IntPolynomial:
    """Generating polynomial of the critical set: coefficient of t^k counts
    the critical points of index k. Equals the expanded product
    (1+t)(1+t^2)...(1+t^(n-1)) for any admissible weights, which are
    validated but do not enter the count."""
    patterns = sign_patterns(n)
    if c is not None:
        validate_costs(c, n=n)
    return IntPolynomial.counting(_index(eps) for eps in patterns)
