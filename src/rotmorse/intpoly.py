"""Dense polynomials with nonnegative integer coefficients, used as exact
count vectors (critical points per Morse index, Z2 Betti numbers): built by
counting degrees or from coefficients, then compared and printed.

`IntPolynomial` has no arithmetic. The exact layer's arithmetic is two
private operations on plain coefficient lists: `_shift_add`, a + t^k * b,
from which the Morse count in `patterns` and the product in `topology` are
built, and `_exact_quotient`, a / (1 - t^s), which `topology` uses to count
the exterior-algebra basis by Gaussian binomials.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Iterable


def _shift_add(a: list, b: list, k: int) -> list:
    """The coefficient list of a + t^k * b, as a new list of length
    max(len(a), len(b) + k). Neither a nor b is written, so a and b may be
    the same list."""
    out = a + [0] * (len(b) + k - len(a))
    for i, x in enumerate(b, k):
        out[i] += x
    return out


def _exact_quotient(a: list, s: int) -> list:
    """The coefficient list of a / (1 - t^s), s >= 1, where 1 - t^s divides a.

    Divides from the lowest degree up: q_i = a_i + q_(i-s). The division is
    exact if and only if the top s entries of that running quotient are 0;
    they are then dropped. Anything else raises ArithmeticError, so an
    inexact quotient is never truncated silently. a is not written.
    """
    q = list(a)
    for i in range(s, len(q)):
        q[i] += q[i - s]
    cut = max(len(q) - s, 0)
    if any(q[cut:]):
        raise ArithmeticError(f"1 - t^{s} does not divide {a!r}")
    return q[:cut]


class IntPolynomial:
    """Polynomial sum(coeffs[k] * t^k) with coeffs[k] >= 0, stored dense."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = []
        for c in coeffs:
            try:
                c = operator.index(c)
            except TypeError:
                raise TypeError(f"coefficients must be integers, got {c!r}") from None
            if c < 0:
                raise ValueError(f"coefficients must be nonnegative, got {c}")
            cs.append(c)
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def counting(cls, degrees: Iterable[int]) -> "IntPolynomial":
        """Histogram of degrees: the coefficient of t^k counts the entries
        equal to k. Empty input gives the zero polynomial."""
        counts = Counter(degrees)
        if counts and min(counts) < 0:
            raise ValueError(f"degrees must be nonnegative, got {min(counts)}")
        return cls(counts[k] for k in range(max(counts, default=-1) + 1))

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coefficient(self, k: int) -> int:
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else 0

    def to_list(self) -> list:
        """Coefficients ascending in degree (the JSON wire form)."""
        return list(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                base = "t" if k == 1 else f"t^{k}"
                terms.append(base if c == 1 else f"{c}{base}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"IntPolynomial({self._coeffs!r})"
