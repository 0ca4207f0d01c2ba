"""Exact sign-pattern layer, free of numpy: the critical set of the
weighted trace as sign patterns, their Morse indices as ints, the Morse
polynomial, and the one owner of each rule on counts and weights: n >= 1,
admissible weights, the descent's weights and tolerance, the seeded
draw's seed and samples, and what an integral number as given is.

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

from .intpoly import IntPolynomial


def _check_n(n: int) -> None:
    """The dimension rule: ValueError unless n >= 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def _integral(x) -> bool:
    """Whether x is an integral number as given: 2.0 is, while 2.5, nan,
    inf, None and "2" are not."""
    try:
        return x == int(x)
    except (TypeError, ValueError, OverflowError):
        return False


def _check_draw(seed: int, samples: int) -> None:
    """The seeded draw's rule: ValueError unless seed >= 0, then unless samples >= 1."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


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
    if any(b <= a for a, b in zip(c, c[1:])):
        raise ValueError("cost vector must be strictly increasing")
    return c


def _scale(c) -> float:
    """The power of two s that puts max(c*s) in [0.5, 1), or 2**1023 at most."""
    return math.ldexp(1.0, min(1023, -math.frexp(c[-1])[1]))


def _check_descent(c, grad_tol: float) -> None:
    """The descent's rule beyond validate_weights, for weights that passed
    it (a list or a 1-d array): ValueError for weights that tie once
    scaled by _scale, then for a tolerance that is not finite and positive.
    """
    s = _scale(c)
    scaled = [float(x) * s for x in c]
    if any(b <= a for a, b in zip(scaled, scaled[1:])):
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

    Every pattern is still enumerated, as one int index rather than a
    tuple, by doubling over the free head eps(1..n-1): the heads are kept
    in two lists by the parity of their -1 count, and at 0-based position
    j a +1 adds j to the index while a -1 flips the parity. The last sign
    is the head's product, +1 exactly for the even heads, which therefore
    gain n - 1. The result counts the same multiset as _index over
    sign_patterns(n).
    """
    _check_n(n)
    if c is not None:
        validate_weights(c, n=n)
    even, odd = [0], []
    for j in range(n - 1):
        even, odd = [i + j for i in even] + odd, [i + j for i in odd] + even
    return IntPolynomial.counting([i + n - 1 for i in even] + odd)
