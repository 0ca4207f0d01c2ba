"""Rotation-group substrate: Givens curves, tangent generators, Haar sampling,
the Cayley retraction and its inverse chart, and membership checks.

Conventions shared by the whole package:

* Coordinate pairs ``(i, j)`` are 1-based with ``1 <= i < j <= n``.
  ``pair_indices(n)`` lists them lexicographically; its length
  ``n*(n-1)/2`` is the dimension of SO(n), and every pair-indexed vector
  (tangent coefficients, gradients, Hessian rows) follows this order.
* Tangent directions at ``A`` are spanned by the raw generator basis
  ``{A @ E_ij}`` where ``E_ij`` holds -1 at ``(i, j)`` and +1 at ``(j, i)``,
  with no Frobenius rescaling. The kernels keep tangent vectors as
  pair-indexed coefficient vectors v. Only ``_cayley`` forms the skew
  matrix K = sum_p v_p E_p they stand for, which holds -v_p at (i, j) and
  v_p at (j, i), from one scatter into the positions of ``_pair_flat``.
* ``_chart`` is ``_cayley``'s inverse at a sign pattern D: the skew
  W = (I - D A)(I + D A)^-1 gives back A = D (I + W)^-1 (I - W), the
  Cayley step from D along -W. Its max entry is a distance in radians
  from A to D, the one critical point in the chart, and
  ``riemannian._classify`` reads it.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from .patterns import _check_n

#: Default tolerance for "is this matrix on the manifold" checks: two orders
#: above double-precision noise, far below any flow tolerance.
MEMBERSHIP_TOL = 1e-10


def pair_count(n: int) -> int:
    """Dimension of SO(n): the number of coordinate pairs (i, j), i < j."""
    _check_n(n)
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
    """Read-only row-major flat positions of pair_indices(n), as a (2, d)
    array: iu * n + ju above the diagonal, ju * n + iu below it. A take at
    them from a flattened (..., n * n) stack is a new C-contiguous
    (..., 2, d) array; np.vecdot's bits depend on its operands' layout, and
    a fancy index K[..., iu, ju] can come back strided."""
    iu, ju = _pair_arrays(n)
    flat = np.stack([iu * n + ju, ju * n + iu])
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
    _check_n(n)
    # Each index must be an integer as operator.index takes it, as n must:
    # 2.0 is refused, and so is anything that does not unpack into two indices.
    try:
        i, j = map(operator.index, pair)
    except (TypeError, ValueError):
        i = j = 0
    if not 1 <= i < j <= n:
        raise ValueError(f"pair index {pair!r} invalid for dimension {n}: need integers 1 <= i < j <= n")
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


def _cayley(A: np.ndarray, v: np.ndarray, step) -> np.ndarray:
    """A @ solve(I - X, I + X) over stacks, X the skew matrix of the pair
    coefficients (step/2) * v.

    A is (..., n, n), v is (..., d) in pair_indices order, and step
    broadcasts over their leading axes. U holds (step/2) * v_p at (i, j),
    one product rounded once, from one scatter, and X = U^T - U holds
    -(step/2) * v_p there and (step/2) * v_p at (j, i). Its zero diagonal
    is set to 1, so I + X is exact, and X is skew, so I - X is its
    transpose. Every matrix of a stack goes through the same LAPACK and
    BLAS calls it would get alone, so its result does not depend on the
    rest of the stack. Nothing is checked.
    """
    n = A.shape[-1]
    half = (0.5 * np.asarray(step))[..., None] * v
    U = np.zeros(half.shape[:-1] + (n, n))
    U.reshape(half.shape[:-1] + (n * n,))[..., _pair_flat(n)[0]] = half
    X = np.subtract(U.mT, U, order="C")  # so that the flat reshape is a view
    X.reshape(half.shape[:-1] + (n * n,))[..., :: n + 1] = 1.0
    return A @ np.linalg.solve(X.mT, X)


def _chart(A: np.ndarray) -> tuple:
    """(signs, dist) of every matrix of an (S, n, n) stack: the signs of its
    diagonal, and max |W_ij| over the Cayley chart W = (I - D A)(I + D A)^-1
    of its own pattern D = diag(signs), or inf where the signs have product
    -1, I + D A is singular or W is not finite.

    W is skew on SO(n), and _cayley is its inverse: a Givens turn by theta
    reads tan(theta/2), so dist is in radians and does not depend on the
    weights. I + D D' is singular for every other pattern D', so the chart
    holds one critical point, D itself. If a singular matrix makes the
    stacked solve raise, the rows where slogdet (solve's LU) has sign != 0
    are solved again as one stack, each to its own bits. Nothing is checked.
    """
    signs = np.where(A.diagonal(0, -2, -1) >= 0.0, 1, -1)
    dist = np.full(len(A), np.inf)
    live = np.prod(signs, axis=-1) == 1
    X = signs[live][:, :, None] * A[live]
    M, N = np.eye(A.shape[-1]) + X, np.eye(A.shape[-1]) - X
    try:
        W = np.linalg.solve(M, N)
    except np.linalg.LinAlgError:
        with np.errstate(all="ignore"):
            solvable = np.linalg.slogdet(M).sign != 0
        live[live] = solvable
        W = np.linalg.solve(M[solvable], N[solvable])
    size = np.abs(W).max(axis=(-2, -1), initial=0.0)
    dist[live] = np.where(np.isfinite(size), size, np.inf)
    return signs, dist


def retract(A, coeffs, step: float) -> np.ndarray:
    """Move from A along tangent coefficients by the Cayley transform:
    A @ (I - X)^-1 (I + X) with X = (step/2) * K, K the skew matrix that
    the coefficients stand for (see _cayley).

    K is skew, so I - X is invertible for every real step and the result
    is a rotation up to rounding (residuals ~1e-15 per call). The curve
    agrees with A @ expm(step * K) to second order in step: along a single
    pair it turns by 2*atan(step/2) instead of step. A step or a
    coefficient that is not finite, or a product step/2 * coefficient that
    overflows, raises ValueError.
    """
    A = _check_square(A, nonempty=True)
    coeffs = _check_coeffs(coeffs, A.shape[0])
    step = float(step)
    with np.errstate(over="ignore"):  # as _cayley forms (step/2) * coeffs
        if not (math.isfinite(step) and np.isfinite(coeffs).all() and np.isfinite(0.5 * step * coeffs).all()):
            raise ValueError(f"step, pair coefficients and step/2 * coeffs must be finite, got step {step!r}")
    return _cayley(A, coeffs, step)


def is_rotation(A, tol: float = MEMBERSHIP_TOL) -> bool:
    """True iff A is finite, ||A A^t - I||_inf <= tol and |det(A) - 1| <= tol.
    Entries near 1e308 overflow A A^t to a residual that fails, not a warning."""
    A = _check_square(A, nonempty=True)
    if not np.isfinite(A).all():
        return False
    n = A.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.abs(A @ A.T - np.eye(n)).max()
    return bool(resid <= tol and abs(np.linalg.det(A) - 1.0) <= tol)
