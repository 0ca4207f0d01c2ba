"""Exact polynomial layer: Poincaré polynomial of SO(n) two independent ways,
the Morse-inequality remainder, and the perfectness verdict.

The Z2 homology of SO(n) is the exterior algebra on generators
e_1, ..., e_(n-1) with deg(e_i) = i, so the k-th Z2 Betti number counts
subsets of {1, ..., n-1} with element sum k. is_perfect compares three
routes to that polynomial, and no two of them share a count:

- patterns.morse_polynomial counts the sign patterns by index and parity;
- poincare_product expands (1+t)(1+t^2)...(1+t^(n-1)), one _shift_add per
  factor;
- poincare_from_basis counts the basis by exterior power: the products of
  s distinct generators have the degrees of t^(s(s+1)/2) [n-1 choose s]_t
  (Hatcher, Algebraic Topology, §3.D), and each Gaussian binomial is the
  previous one times 1 - t^(n-s), divided exactly by 1 - t^s.

Each route takes O(n^3) integer additions and lists no pattern or basis
element. What ties the last two is the q-binomial theorem,
prod_(i=1..m) (1 + t^i) = sum_(s=0..m) t^(s(s+1)/2) [m choose s]_t
(Andrews, The Theory of Partitions, 1976, ch. 3), which neither route
computes.

Floating point is absent from this module: the Morse inequality
P_f = P_M + (1+t) R is an exact integer statement and is decided by
synthetic division at t = -1. It imports only the numpy-free `patterns`
and `intpoly` and the standard library's `collections`, so
`import rotmorse.topology` loads neither numpy nor `dataclasses` or
`typing`.
"""

from __future__ import annotations

from collections import namedtuple

from .intpoly import IntPolynomial, _exact_quotient, _shift_add
from .patterns import _check_count, _check_n, _index, morse_polynomial, sign_patterns


def poincare_product(n: int) -> IntPolynomial:
    """Expanded product (1+t)(1+t^2)...(1+t^(n-1)); the constant 1 for n=1.
    Multiplying by 1 + t^k adds a copy of the coefficients shifted up by k."""
    _check_n(n)
    coeffs = [1]
    for k in range(1, n):
        coeffs = _shift_add(coeffs, coeffs, k)
    return IntPolynomial(coeffs)


def _gaussian_binomials(m: int):
    """Yield the coefficient lists of the Gaussian binomials [m choose s]_t
    for s = 0..m: the coefficient of t^k in [m choose s]_t counts the
    s-subsets of {1, ..., m} whose element sum exceeds the least one,
    s(s+1)/2, by k.

    Each comes from the previous one by the q-Pascal step
    [m, s] = [m, s-1] (1 - t^(m-s+1)) / (1 - t^s): one subtraction pass,
    then one exact division, which raises rather than truncate.
    """
    g = [1]
    yield g
    for s in range(1, m + 1):
        k = m - s + 1
        q = g + [0] * k
        for i, x in enumerate(g, k):
            q[i] -= x
        g = _exact_quotient(q, s)
        yield g


def poincare_from_basis(n: int) -> IntPolynomial:
    """Poincaré polynomial by counting the basis by exterior power.

    The coefficient of t^k is the k-th Z2 Betti number of SO(n): the number
    of basis elements e_(i_1)...e_(i_s) of degree i_1 + ... + i_s = k. The
    elements of length s have the degrees of t^(s(s+1)/2) [n-1 choose s]_t,
    so the sum of those shifted Gaussian binomials over s = 0..n-1 counts
    the whole basis without listing its 2^(n-1) elements.
    """
    _check_n(n)
    total = [0]
    for s, g in enumerate(_gaussian_binomials(n - 1)):
        total = _shift_add(total, g, s * (s + 1) // 2)
    return IntPolynomial(total)


def morse_remainder(p_f: IntPolynomial, p_m: IntPolynomial):
    """Solve P_f = P_M + (1+t) R for R with nonnegative integer coefficients.

    Returns R when it exists and None otherwise. A None verdict certifies
    that P_f cannot be the Morse polynomial of any Morse function on a
    manifold with Poincaré polynomial P_M. Exact division by 1+t from the
    lowest degree up: with d = P_f - P_M, r_k = d_k - r_(k-1), and the
    division is exact when the last r_k is 0. No floating point.
    """
    if not isinstance(p_f, IntPolynomial) or not isinstance(p_m, IntPolynomial):
        raise TypeError("morse_remainder expects IntPolynomial arguments")
    r, prev = [], 0
    for k in range(max(len(p_f.coeffs), len(p_m.coeffs))):
        prev = p_f.coefficient(k) - p_m.coefficient(k) - prev
        r.append(prev)
    if prev != 0 or any(x < 0 for x in r):
        return None
    return IntPolynomial(r)


PerfectnessReport = namedtuple(
    "PerfectnessReport", ("n", "morse", "poincare_basis", "poincare_product", "remainder", "perfect")
)
PerfectnessReport.__doc__ = """Outcome of the three-way polynomial comparison for one dimension:
the int n, the IntPolynomials morse, poincare_basis and poincare_product,
the remainder (an IntPolynomial, or None when none exists) and the bool
perfect. Immutable, like the tuple it is."""


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
    _check_count("m", m, 2)
    patterns = sign_patterns(m)
    minus = IntPolynomial.counting(_index(eps) for eps in patterns if eps[-1] == -1)
    plus = IntPolynomial.counting(_index(eps) for eps in patterns if eps[-1] == 1)
    return minus, plus
