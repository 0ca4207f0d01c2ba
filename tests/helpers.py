"""Shared test helpers: reference implementations that the package's own
kernels are checked against."""

import numpy as np


def random_costs(n: int, rng) -> np.ndarray:
    """Strictly increasing weights drawn uniformly from [0, 10]."""
    while True:
        c = np.sort(rng.uniform(0.0, 10.0, size=n))
        if n == 1 or np.all(np.diff(c) > 0):
            return c


def reference_haar_sample(n: int, rng) -> np.ndarray:
    """One Haar-uniform rotation, one matrix at a time: QR of a standard
    normal matrix, columns rescaled so R has a positive diagonal, and the
    first column flipped if det is -1."""
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    d = np.sign(np.diagonal(R))
    d[d == 0] = 1.0
    Q = Q * d
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def reference_classify(A):
    """The sign pattern A is entrywise within 1e-6 of, if it has det +1;
    otherwise None (also for NaN entries). One matrix at a time."""
    eps = np.where(np.diagonal(A) >= 0.0, 1, -1)
    if np.prod(eps) == 1 and np.abs(A - np.diag(eps)).max() <= 1e-6:
        return tuple(int(e) for e in eps)
    return None


def enumerate_basis(n: int) -> list:
    """Monomial basis of the Z2 exterior algebra on e_1, ..., e_(n-1), the
    Z2 cohomology of SO(n) (Hatcher, Algebraic Topology, §3.D).

    Each element is the sorted tuple of its generator labels, () being the
    unit; its degree is the sum of the labels. Built by the doubling
    recursion basis(m+1) = basis(m) + [b + (m,) for b in basis(m)], which
    fixes a deterministic order and agrees with direct subset enumeration.
    """
    basis = [()]
    for g in range(1, n):
        basis = basis + [b + (g,) for b in basis]
    return basis


def evaluate(p, x: int) -> int:
    """The IntPolynomial p at the integer x, by Horner's rule."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def shift_coeffs(coeffs, k: int) -> tuple:
    """The coefficients of t^k times the polynomial with these coefficients."""
    return (0,) * k + tuple(coeffs)


def add_coeffs(*polys) -> tuple:
    """The coefficients of the sum of the polynomials with these coefficient
    sequences, padded with zeros to the longest."""
    size = max(map(len, polys), default=0)
    return tuple(sum(p[k] for p in polys if k < len(p)) for k in range(size))
