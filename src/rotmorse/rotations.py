"""Rotation-group substrate: Givens curves, tangent generators, Haar sampling,
retraction, and membership checks.

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
from scipy.linalg import expm

#: Default tolerance for "is this matrix on the manifold" checks: two orders
#: above double-precision noise, far below any flow tolerance.
MEMBERSHIP_TOL = 1e-10


def pair_count(n: int) -> int:
    """Dimension of SO(n): the number of coordinate pairs (i, j), i < j."""
    return n * (n - 1) // 2


@lru_cache(maxsize=None)
def pair_indices(n: int) -> tuple:
    """All 1-based pairs (i, j) with i < j, in lexicographic order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def _validate_pair(pair, n: int) -> tuple:
    i, j = pair
    i, j = int(i), int(j)
    if not (1 <= i < j <= n):
        raise ValueError(f"pair index {pair!r} invalid for dimension {n}: need 1 <= i < j <= n")
    return i, j


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


def curve_velocity(A, pair, side: str = "right") -> np.ndarray:
    """Velocity at theta = 0 of the rotation-plane curve through A.

    side="right" differentiates A @ B_ij(theta); side="left" differentiates
    B_ij(theta) @ A. The right family is the canonical tangent basis
    everywhere in this package; the left family exists for cross-checks.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    E = generator(pair, A.shape[0])
    if side == "right":
        return A @ E
    if side == "left":
        return E @ A
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def haar_sample(n: int, rng=None) -> np.ndarray:
    """Draw a Haar-uniform rotation matrix.

    QR-orthonormalizes a standard normal matrix, then rescales columns so
    the triangular factor has positive diagonal (plain QR output is not
    Haar without this), and finally flips the first column if needed to
    land in the det = +1 component.

    ``rng`` may be a seed or a numpy Generator; the draw is deterministic
    given the seed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(rng)
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    d = np.sign(np.diagonal(R))
    d[d == 0] = 1.0
    Q = Q * d
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def skew_from_coeffs(coeffs, n: int) -> np.ndarray:
    """Skew matrix K = sum_p coeffs[p] * E_p over pair_indices(n).

    K holds +coeffs at (j, i) and -coeffs at (i, j) for each pair.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    d = pair_count(n)
    if coeffs.shape != (d,):
        raise ValueError(f"expected {d} pair coefficients for n={n}, got shape {coeffs.shape}")
    iu, ju = np.triu_indices(n, k=1)
    K = np.zeros((n, n))
    K[iu, ju] = -coeffs
    K[ju, iu] = coeffs
    return K


def retract(A, coeffs, step: float) -> np.ndarray:
    """Move from A along tangent coefficients: A @ expm(step * K).

    The exponential of a skew matrix is a rotation, so the result stays on
    the manifold up to rounding (residuals ~1e-15 per call for moderate
    step * ||K||).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    K = skew_from_coeffs(coeffs, A.shape[0])
    return A @ expm(step * K)


def is_rotation(A, tol: float = MEMBERSHIP_TOL) -> bool:
    """True iff ||A A^t - I||_inf <= tol and |det(A) - 1| <= tol."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    resid = np.abs(A @ A.T - np.eye(n)).max()
    return bool(resid <= tol and abs(np.linalg.det(A) - 1.0) <= tol)
