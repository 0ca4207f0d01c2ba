"""Exact polynomial layer: Poincaré polynomial of SO(n) two independent ways,
the Morse-inequality remainder, and the perfectness verdict.

The Z2 homology of SO(n) is the exterior algebra on generators
e_1, ..., e_(n-1) with deg(e_i) = i, so the k-th Z2 Betti number counts
subsets of {1, ..., n-1} with element sum k. That gives two routes to the
Poincaré polynomial — expand the product (1+t)(1+t^2)...(1+t^(n-1)), or
enumerate the monomial basis and bin by degree — which must agree.

Floating point is deliberately absent from this module: the Morse
inequality P_f = P_M + (1+t) R is an exact integer statement and is
decided by synthetic division at t = -1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .critical import index_by_formula, morse_polynomial, sign_patterns
from .intpoly import IntPolynomial


def poincare_product(n: int) -> IntPolynomial:
    """Expanded product (1+t)(1+t^2)...(1+t^(n-1)); the constant 1 for n=1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    poly = IntPolynomial.one()
    for k in range(1, n):
        poly = poly * (IntPolynomial.one() + IntPolynomial.monomial(k))
    return poly


def enumerate_basis(n: int) -> list:
    """Monomial basis of the Z2 exterior algebra on e_1, ..., e_(n-1).

    Each element is the sorted tuple of its generator labels, () being the
    unit; its degree is the sum of the labels. Built by the doubling
    recursion basis(m+1) = basis(m) + [b + (m,) for b in basis(m)], which
    fixes a deterministic order and agrees with direct subset enumeration.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    basis = [()]
    for g in range(1, n):
        basis = basis + [b + (g,) for b in basis]
    return basis


def basis_degree(element) -> int:
    """Degree of a basis element: the sum of its generator labels."""
    return sum(element)


def poincare_from_basis(n: int) -> IntPolynomial:
    """Poincaré polynomial by binning basis elements by degree.

    The coefficient of t^k is the k-th Z2 Betti number of SO(n).
    """
    return IntPolynomial.counting(basis_degree(element) for element in enumerate_basis(n))


def morse_remainder(p_f: IntPolynomial, p_m: IntPolynomial):
    """Solve P_f = P_M + (1+t) R for R with nonnegative integer coefficients.

    Returns R when it exists and None otherwise. A None verdict certifies
    that P_f cannot be the Morse polynomial of any Morse function on a
    manifold with Poincaré polynomial P_M. Exact synthetic division at the
    root t = -1; no floating point.
    """
    if not isinstance(p_f, IntPolynomial) or not isinstance(p_m, IntPolynomial):
        raise TypeError("morse_remainder expects IntPolynomial arguments")
    a, b = p_f.coeffs, p_m.coeffs
    m = max(len(a), len(b))
    diff = [p_f.coefficient(k) - p_m.coefficient(k) for k in range(m)]
    while diff and diff[-1] == 0:
        diff.pop()
    if not diff:
        return IntPolynomial.zero()
    top = len(diff) - 1
    if top == 0:
        return None  # nonzero constant difference is never divisible by 1+t
    quot = [0] * top
    quot[top - 1] = diff[top]
    for k in range(top - 1, 0, -1):
        quot[k - 1] = diff[k] - quot[k]
    remainder = diff[0] - quot[0]
    if remainder != 0 or any(q < 0 for q in quot):
        return None
    return IntPolynomial(quot)


@dataclass(frozen=True)
class PerfectnessReport:
    """Outcome of the three-way polynomial comparison for one dimension."""

    n: int
    morse: IntPolynomial
    poincare_basis: IntPolynomial
    poincare_product: IntPolynomial
    remainder: IntPolynomial | None
    perfect: bool


def is_perfect(n: int, c=None) -> PerfectnessReport:
    """Compare the Morse polynomial against both Poincaré computations.

    Perfect means all three polynomials are identical and the
    Morse-inequality remainder vanishes.
    """
    p_f = morse_polynomial(n, c)
    p_basis = poincare_from_basis(n)
    p_prod = poincare_product(n)
    remainder = morse_remainder(p_f, p_basis)
    perfect = p_f == p_basis == p_prod and remainder == IntPolynomial.zero()
    return PerfectnessReport(
        n=n,
        morse=p_f,
        poincare_basis=p_basis,
        poincare_product=p_prod,
        remainder=remainder,
        perfect=perfect,
    )


def morse_split_by_last_sign(m: int):
    """Split the dimension-m Morse polynomial by the sign of eps(m).

    Returns (minus, plus): the index generating polynomials over patterns
    with eps(m) = -1 and eps(m) = +1. Dropping a trailing -1 leaves a
    det = -1 pattern of size m-1 with the same index, while a trailing +1
    adds m-1 to the index of a det = +1 pattern, so

        minus == morse_polynomial(m-1),
        plus  == t^(m-1) * morse_polynomial(m-1),

    and their sum is morse_polynomial(m) — the induction step behind the
    product formula.
    """
    if m < 2:
        raise ValueError("the last-sign split needs dimension >= 2")
    patterns = sign_patterns(m)
    minus = IntPolynomial.counting(index_by_formula(eps) for eps in patterns if eps[-1] == -1)
    plus = IntPolynomial.counting(index_by_formula(eps) for eps in patterns if eps[-1] == 1)
    return minus, plus
