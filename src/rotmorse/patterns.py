"""Exact sign-pattern layer, free of numpy: the critical set of the
weighted trace as sign patterns, their Morse indices as ints, the Morse
polynomial counted by index, and the one owner of each rule on counts and
weights: what an integer is (operator.index's rule), n >= 1, admissible
weights, their top and gap, the descent's weights and tolerance, and the
seeded draw's seed and samples.

Nothing here imports numpy, so `topology`, the `polynomials` command and
every argument check of the CLI run without it. The float layer
(`critical`, `riemannian`, `verify`) builds on these functions:
`critical.validate_costs` converts its input to a float64 array and
checks it with `validate_weights`, `gradient_flow` and `run_all_suites`
add `_check_descent`, and `run_all_suites` then `_check_draw`.
"""

from __future__ import annotations

import itertools
import math
import operator

from .intpoly import IntPolynomial, _shift_add


def _check_count(name: str, x, least: int) -> None:
    """ValueError unless operator.index takes x (3.0 it refuses), then unless x >= least."""
    try:
        operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None
    if x < least:
        raise ValueError(f"{name} must be >= {least}, got {x}")


def _check_n(n: int) -> None:
    """The dimension rule: _check_count of n >= 1."""
    _check_count("n", n, 1)


def _check_draw(seed: int, samples: int) -> None:
    """The seeded draw's rule: _check_count of seed >= 0, then of samples >= 1."""
    _check_count("seed", seed, 0)
    _check_count("samples", samples, 1)


def validate_weights(c, n: int | None = None) -> list:
    """The weight rule: a nonempty sequence of finite floats (of length n
    if given) with 0 <= c[0] and strict increase. Returns the weights as a
    list of floats.

    Strictness is what keeps every Hessian entry c(a)*eps(a) + c(b)*eps(b)
    away from zero: with 0 <= c(a) < c(b), both the sum and the difference
    of two distinct weights are nonzero, even when c[0] == 0.
    """
    try:
        c = [] if isinstance(c, str) else [float(x) for x in c]
    except TypeError:  # not a flat sequence of reals: reported as not 1-d below
        c = []
    if not c:
        raise ValueError("cost vector must be a nonempty 1-d sequence")
    if n is not None and len(c) != n:
        raise ValueError(f"cost vector has length {len(c)}, expected {n}")
    if not all(map(math.isfinite, c)):
        raise ValueError("cost vector entries must be finite")
    if c[0] < 0:
        raise ValueError("cost vector must satisfy 0 <= c_1")
    if _gap(c) <= 0:
        raise ValueError("cost vector must be strictly increasing")
    return c


def _top(c) -> float:
    """The largest of admissible weights (a list or a 1-d array), c[-1]."""
    return float(c[-1])


def _gap(c) -> float:
    """The smallest step between consecutive finite weights (a list or a 1-d
    array), inf for one weight: positive exactly when they strictly increase,
    as b - a of finite doubles is 0 only when b == a."""
    return min((float(b) - float(a) for a, b in zip(c, c[1:])), default=math.inf)


def _scale(c) -> float:
    """The power of two s that puts _top(c*s) in [0.5, 1), or 2**1023 at most."""
    return math.ldexp(1.0, min(1023, -math.frexp(_top(c))[1]))


def _check_descent(c, grad_tol: float) -> None:
    """The descent's rule beyond validate_weights, for weights that passed
    it (a list or a 1-d array): ValueError for weights that tie once
    scaled by _scale, then for a tolerance that is not finite and positive.
    """
    s = _scale(c)
    if _gap([x * s for x in c]) <= 0:
        raise ValueError("cost vector spans more than the float64 range: scaled to max < 1, it ties")
    if not (math.isfinite(grad_tol) and grad_tol > 0):
        raise ValueError(f"grad_tol must be finite and positive, got {grad_tol!r}")


def default_weights(n: int) -> list:
    """The integer weights c(i) = i, as floats: the reproducible default
    everywhere."""
    _check_n(n)
    return [float(i) for i in range(1, n + 1)]


def validate_pattern(eps) -> tuple:
    """Normalize a sign pattern to a tuple of +-1 ints with product +1. Each
    entry must equal 1 or -1 as given: 1.0 does, while 1.5 and "1" do not."""
    eps = tuple(eps)
    if not eps:
        raise ValueError("sign pattern must be nonempty")
    if any(e not in (-1, 1) for e in eps):
        raise ValueError(f"sign pattern entries must be +-1, got {eps}")
    eps = tuple(map(int, eps))
    if math.prod(eps) != 1:
        raise ValueError("sign pattern must have product +1 (det constraint of SO(n))")
    return eps


def sign_patterns(n: int) -> list:
    """All 2^(n-1) admissible sign patterns, lexicographic with +1 first.

    The first n-1 signs run over the sign cube in lexicographic order and
    the last sign is their product, which makes the full product +1. This
    is the same order as filtering all 2^n sign vectors lexicographically.
    """
    _check_n(n)
    return [head + (math.prod(head),) for head in itertools.product((1, -1), repeat=n - 1)]


def _index(eps) -> int:
    # The Morse index of one validated pattern: the sum of the 0-based
    # positions carrying +1. critical._index is its stacked twin.
    return sum(j for j, e in enumerate(eps) if e == 1)


def morse_polynomial(n: int, c=None) -> IntPolynomial:
    """Generating polynomial of the critical set: coefficient of t^k counts
    the critical points of index k. Equals the expanded product
    (1+t)(1+t^2)...(1+t^(n-1)) for any admissible weights, which are
    validated but do not enter the count.

    The patterns are counted by index, not listed: over the free head
    eps(1..n-1), two coefficient lists count the heads by index, split by
    the parity of their -1 count. At 0-based position j a +1 adds j to the
    index (a shift by j) and a -1 flips the parity, so each position is one
    _shift_add per list. The lists have at most n(n-1)/2 + 1 entries, so
    the count takes O(n^3) integer additions where the patterns number
    2^(n-1). The last sign is the head's product, +1 exactly for the even
    heads, which therefore gain n - 1. The result counts the same multiset
    as _index over sign_patterns(n).
    """
    _check_n(n)
    if c is not None:
        validate_weights(c, n=n)
    even, odd = [1], []
    for j in range(n - 1):
        even, odd = _shift_add(odd, even, j), _shift_add(even, odd, j)
    return IntPolynomial(_shift_add(odd, even, n - 1))
