"""Rotation-group substrate: Givens curves, tangent generators, Haar sampling,
the Cayley retraction, and membership checks.

Conventions shared by the whole package:

* Coordinate pairs ``(i, j)`` are 1-based with ``1 <= i < j <= n``.
  ``pair_indices(n)`` lists them lexicographically; its length
  ``n*(n-1)/2`` is the dimension of SO(n), and every pair-indexed vector
  (tangent coefficients, gradients, Hessian rows) follows this order.
* Tangent directions at ``A`` are spanned by the raw generator basis
  ``{A @ E_ij}`` where ``E_ij`` holds -1 at ``(i, j)`` and +1 at ``(j, i)``,
  with no Frobenius rescaling.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .patterns import _check_n, _integral

#: Default tolerance for "is this matrix on the manifold" checks: two orders
#: above double-precision noise, far below any flow tolerance.
MEMBERSHIP_TOL = 1e-10


def pair_count(n: int) -> int:
    """Dimension of SO(n): the number of coordinate pairs (i, j), i < j."""
    return n * (n - 1) // 2


@lru_cache(maxsize=None)
def pair_indices(n: int) -> tuple:
    """All 1-based pairs (i, j) with i < j, in lexicographic order."""
    _check_n(n)
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


@lru_cache(maxsize=None)
def _pair_arrays(n: int) -> tuple:
    """pair_indices(n) as read-only 0-based row and column arrays (iu, ju)."""
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


@lru_cache(maxsize=None)
def _pair_flat(n: int) -> np.ndarray:
    """pair_indices(n) as read-only positions i*n + j in a row-major n*n
    matrix (0-based)."""
    iu, ju = _pair_arrays(n)
    flat = iu * n + ju
    flat.flags.writeable = False
    return flat


def _check_square(A, nonempty: bool = False) -> np.ndarray:
    """A as a float array; ValueError unless square (and, if nonempty, n >= 1)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if nonempty and A.shape[0] < 1:
        raise ValueError(f"need a matrix with n >= 1, got shape {A.shape}")
    return A


def _validate_pair(pair, n: int) -> tuple:
    # Each index must be an integral number as given: 2.0 is 2, 2.5 is refused.
    i, j = pair
    if not (_integral(i) and _integral(j) and 1 <= i < j <= n):
        raise ValueError(f"pair index {pair!r} invalid for dimension {n}: need integers 1 <= i < j <= n")
    return int(i), int(j)


def givens_curve(pair, theta: float, n: int) -> np.ndarray:
    """The rotation B_ij(theta) acting in the (i, j) coordinate plane.

    Identity except for the four entries (i,i) = (j,j) = cos(theta),
    (i,j) = -sin(theta), (j,i) = sin(theta). For fixed (i, j) this is a
    one-parameter curve through the identity whose translates A @ B_ij(theta)
    sweep out the tangent directions at A.
    """
    i, j = _validate_pair(pair, n)
    c, s = math.cos(theta), math.sin(theta)
    B = np.eye(n)
    B[i - 1, i - 1] = c
    B[j - 1, j - 1] = c
    B[i - 1, j - 1] = -s
    B[j - 1, i - 1] = s
    return B


def generator(pair, n: int) -> np.ndarray:
    """d/dtheta B_ij(theta) at theta = 0: -1 at (i, j), +1 at (j, i)."""
    i, j = _validate_pair(pair, n)
    E = np.zeros((n, n))
    E[i - 1, j - 1] = -1.0
    E[j - 1, i - 1] = 1.0
    return E


def _haar(n: int, samples: int, rng) -> np.ndarray:
    """A (samples, n, n) stack of Haar-uniform rotations from one draw.

    QR-orthonormalizes a stack of standard normal matrices, then rescales
    columns so each triangular factor has positive diagonal (plain QR
    output is not Haar without this), and finally flips the first column
    of each matrix with det -1 to land in SO(n). Every matrix goes through
    the LAPACK calls it would get alone, and one draw of S matrices reads
    the stream S draws of one would, so the stack equals S haar_sample
    calls on one generator. Nothing is checked.
    """
    Q, R = np.linalg.qr(np.random.default_rng(rng).standard_normal((samples, n, n)))
    d = np.sign(np.diagonal(R, 0, -2, -1))
    d[d == 0] = 1.0
    Q = Q * d[:, None, :]
    flip = np.linalg.det(Q) < 0
    Q[flip, :, 0] = -Q[flip, :, 0]
    return Q


def haar_sample(n: int, rng=None) -> np.ndarray:
    """Draw a Haar-uniform rotation matrix (see _haar).

    ``rng`` may be a seed or a numpy Generator; the draw is deterministic
    given the seed.
    """
    _check_n(n)
    return _haar(n, 1, rng)[0]


def _check_coeffs(coeffs, n: int) -> np.ndarray:
    """coeffs as a float array; ValueError unless it holds pair_count(n) entries."""
    coeffs = np.asarray(coeffs, dtype=float)
    d = pair_count(n)
    if coeffs.shape != (d,):
        raise ValueError(f"expected {d} pair coefficients for n={n}, got shape {coeffs.shape}")
    return coeffs


@lru_cache(maxsize=None)
def _cayley_basis(n: int) -> tuple:
    """Read-only (B, e): coeffs @ B is K = sum_p coeffs[p] * generator(p)
    flattened row-major, and e is the flattened identity."""
    B = np.array([generator(p, n).ravel() for p in pair_indices(n)]).reshape(-1, n * n)
    e = np.eye(n).ravel()
    B.flags.writeable = False
    e.flags.writeable = False
    return B, e


def _cayley(A: np.ndarray, coeffs: np.ndarray, step) -> np.ndarray:
    """A @ solve(I - X, I + X) with X = (step/2) * K(coeffs), over stacks.

    A is (..., n, n), coeffs (..., d) and step broadcasts over the leading
    axes of coeffs. Each entry of (step/2 * coeffs) @ B is one coefficient
    or zero, so I + X is exact, and X is skew, so I - X is its transpose.
    Every matrix of a stack goes through the same LAPACK and BLAS calls it
    would get alone, so its result does not depend on the rest of the
    stack. Nothing is checked.
    """
    n = A.shape[-1]
    B, e = _cayley_basis(n)
    half = 0.5 * np.asarray(step)[..., None] * coeffs
    P = (half @ B + e).reshape(half.shape[:-1] + (n, n))
    return A @ np.linalg.solve(P.mT, P)


def retract(A, coeffs, step: float) -> np.ndarray:
    """Move from A along tangent coefficients by the Cayley transform:
    A @ (I - X)^-1 (I + X) with X = (step/2) * K.

    K is skew, so I - X is invertible for every real step and the result
    is a rotation up to rounding (residuals ~1e-15 per call). The curve
    agrees with A @ expm(step * K) to second order in step: along a single
    pair it turns by 2*atan(step/2) instead of step.
    """
    A = _check_square(A)
    return _cayley(A, _check_coeffs(coeffs, A.shape[0]), float(step))


def is_rotation(A, tol: float = MEMBERSHIP_TOL) -> bool:
    """True iff A is finite, ||A A^t - I||_inf <= tol and |det(A) - 1| <= tol."""
    A = _check_square(A, nonempty=True)
    if not np.isfinite(A).all():
        return False
    n = A.shape[0]
    resid = np.abs(A @ A.T - np.eye(n)).max()
    return bool(resid <= tol and abs(np.linalg.det(A) - 1.0) <= tol)
