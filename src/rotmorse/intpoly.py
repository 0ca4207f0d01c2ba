"""Dense polynomials with nonnegative integer coefficients.

These polynomials carry counts (critical points per Morse index, Z2 Betti
numbers), so nonnegativity is part of the contract and every operation is
exact integer arithmetic. Python integers are unbounded, so coefficient
growth needs no overflow guard.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Iterable


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
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "IntPolynomial":
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (coeff,))

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

    def __add__(self, other) -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __mul__(self, other) -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return IntPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPolynomial(out)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

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
