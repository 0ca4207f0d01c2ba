"""Floating-point Riemannian layer for the weighted-trace objective on SO(n).

Evaluates the objective, its directional derivatives and second derivatives
in the tangent-pair basis, counts negative Hessian eigenvalues, and runs a
gradient descent whose limits empirically recover the analytic critical
set. The descent steps along the Cayley retraction (``rotations._cayley``,
retract's kernel) in the direction of the gradient over the Hessian
diagonal floored at the smallest gap between weights. Each pass takes the
gradient once per live point, stops the points at their tolerance (or the
gradient's rounding floor) or cap, and makes one trial for the rest, a
unit step or half a refused one, under an Armijo test that allows for the
objective's rounding. It runs a batch of
starts as one (S, n, n) stack; a single start is a batch of one. Its
results have one row per start (final points, iteration counts, gradient
norms, a converged mask and the classified limit patterns); gradient_flow
turns the one row of a single start into a FlowResult namedtuple.

All derivatives are taken along the rotation-plane curves of
``rotations.givens_curve``. The right family A @ B_ij(theta) is the
canonical parameterization; the left family B_ij(theta) @ A exists for
cross-checks only. Gradient norms are relative to this raw generator
basis — a different normalization would rescale them — but criticality,
classification, and index counts do not depend on that choice.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .critical import _hessian_diagonal, _value, validate_costs
from .patterns import _check_count, _check_descent, _gap, _scale, _top
from .rotations import _cayley, _chart, _check_square, _pair_arrays, _pair_flat, is_rotation

# Line-search constants of gradient_flow. Every trial, accepted or refused,
# counts toward max_iterations. A refused trial is a null step: the next
# trial is _BACKTRACK times its step, and a trial after an accepted step is 1.
_ARMIJO = 1e-4
_BACKTRACK = 0.5
# The objective rounds by about n * _EPS * top, top = patterns._top(c), and
# the Armijo test allows that much: a trial is kept if f(trial) <= f +
# n * _EPS * top - _ARMIJO * step * <g, p>, f the current value. Near a
# limit the off-diagonal entries are about _EPS, so each gradient component
# c_i A_ij - c_j A_ji carries a rounding error of about _EPS^2 * top; a
# descent stops once its gradient norm is at most n * _EPS^2 * top.
_EPS = 2.0**-52  # the float64 machine epsilon
# _blocks keeps every stacked temporary here and in verify at most this many
# bytes, below glibc's 128 KiB mmap threshold: freeing a mapped block raises
# the threshold, after which freed blocks stay resident and peak RSS grows.
_STACK_BYTES = 1 << 17
# The default iteration cap of every descent.
_MAX_ITERATIONS = 100_000

# _banded_indices treats |λ| <= _ZERO_BAND * max |λ| as zero.
_ZERO_BAND = 1e-9
# _classify's radius, in radians, on rotations._chart's distance.
_CHART_RADIUS = 5e-7


def _check_args(A, c) -> tuple:
    """(A, c) as a float (n, n) matrix and validated float weights of length n."""
    c = validate_costs(c)
    A = np.asarray(A, dtype=float)
    if A.shape != (c.size, c.size):
        raise ValueError(f"matrix shape {A.shape} does not match cost vector length {c.size}")
    return A, c


def _check_start(A0, n: int) -> np.ndarray:
    """A fresh float copy of a descent start; ValueError unless an (n, n) rotation."""
    A = np.array(A0, dtype=float)
    if A.shape != (n, n):
        raise ValueError(f"start matrix has shape {A.shape}, expected ({n}, {n})")
    if not is_rotation(A):
        raise ValueError("start matrix is not a rotation matrix within membership tolerance")
    return A


def _blocks(count: int, item_bytes: int):
    """Slices of range(count), each of as many items as fit in _STACK_BYTES (at least one)."""
    size = max(1, _STACK_BYTES // max(1, item_bytes))
    return (slice(first, first + size) for first in range(0, count, size))


# The closed forms, each written once. Callers pass validated float weights
# and a float (..., n, n) stack of matrices; the kernels check nothing.
# Each gradient and tangent Hessian entry is one entry of M = diag(c) A, or
# the sum or difference of two, rounded once, and is formed elementwise, so
# a matrix gets the same bits alone as in any stack. Tangent vectors are
# pair vectors. np.vecdot computes each entry with the same BLAS dot that
# np.dot uses on one contiguous vector; the pair vectors it reads are taken
# C-contiguous at rotations._pair_flat, as np.dot's own operands are.


def _objective(A: np.ndarray, c: np.ndarray):
    return np.vecdot(A.diagonal(0, -2, -1), c)


def _gradient(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    # g_p = f(A @ E_p) = c(i)*A(i,j) - c(j)*A(j,i) for p = (i, j): with
    # M = diag(c) A, the upper take of M less the lower one, rounded once.
    n = c.size
    M = (c[:, None] * A).reshape(A.shape[:-2] + (n * n,)).take(_pair_flat(n), axis=-1)
    return M[..., 0, :] - M[..., 1, :]


def objective(A, c) -> float:
    """Weighted trace sum_i c(i) * A(i,i). A sum that is not finite is taken
    again as critical_value takes it, so at an embedded pattern the value
    overflows, if at all, with the sign of the exact sum, and is not NaN."""
    A, c = _check_args(A, c)
    return float(_value(A.diagonal(), c))


def curve_derivatives(A, c, side: str = "right") -> np.ndarray:
    """First derivatives of the objective along all rotation-plane curves.

    In pair_indices order. side="right" differentiates the curves
    A @ B_ij(theta): component (i, j) is c(i)*A(i,j) - c(j)*A(j,i).
    side="left" differentiates B_ij(theta) @ A: component (i, j) is
    -c(i)*A(j,i) + c(j)*A(i,j). Each component is that difference of two
    products, rounded once. Both vanish identically (exact zeros, of
    either sign) on embedded sign-pattern matrices. Off the manifold a
    product c(i)*A(i,j) can overflow: the components that read it are inf
    or NaN, and the others keep their finite values.
    """
    A, c = _check_args(A, c)
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _curve_derivatives(A, c, side == "left")


def _curve_derivatives(A: np.ndarray, c: np.ndarray, left: bool) -> np.ndarray:
    # f reads only the diagonal, so f(B @ A) = f(A^T @ B^T) and the left
    # curve through A is the right curve through A^T, reversed.
    return -_gradient(A.mT, c) if left else _gradient(A, c)


@lru_cache(maxsize=None)
def _hessian_index(n: int) -> tuple:
    """Read-only (rows, source) of the off-diagonal nonzeros of the tangent
    Hessian: entry rows[k] of the flattened (d, d) matrix is entry
    source[k] of the flattened (2, n, n) stack (M, -M).

    Two distinct pairs p and q that share a position k, p = {k, x} and
    q = {k, y}, carry -s_p s_q M(y, x) with s = +1 where k is the pair's
    first position, -1 where it is its second; every other off-diagonal
    entry is 0. That is n (n-1) (n-2) entries, built from them alone.
    """
    d = n * (n - 1) // 2
    iu, ju = _pair_arrays(n)
    pair = np.zeros((n, n), dtype=np.intp)
    pair[iu, ju] = pair[ju, iu] = np.arange(d)
    k, x, y = np.ogrid[:n, :n, :n]
    k, x, y = np.nonzero((x != k) & (y != k) & (x != y))
    rows = pair[k, x] * d + pair[k, y]
    source = ((k < x) == (k < y)) * (n * n) + y * n + x
    rows.flags.writeable = False
    source.flags.writeable = False
    return rows, source


def _tangent_hessian(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """tangent_hessian of every matrix in a (..., n, n) stack: (..., d, d)."""
    n, shape = c.size, A.shape[:-2]
    d = n * (n - 1) // 2
    rows, source = _hessian_index(n)
    M = c[:, None] * A
    H = np.zeros(shape + (d * d,))
    H[..., rows] = np.stack([M, -M], axis=-3).reshape(shape + (2 * n * n,)).take(source, axis=-1)
    H[..., :: d + 1] = _hessian_diagonal(A.diagonal(0, -2, -1), c)
    return H.reshape(shape + (d, d))


def tangent_hessian(A, c) -> np.ndarray:
    """Mixed second derivatives along pairs of rotation-plane curves.

    Entry ((a,b), (g,d)) is d^2/dtheta dphi of the objective along
    A @ B_ab(theta) @ B_gd(phi) at zero. The curve is linear in each angle
    and the objective is linear in matrix entries, so the entry equals the
    objective applied to A @ E_ab @ E_gd. At an embedded sign pattern the
    matrix is exactly diagonal with entries -c(a)*eps(a) - c(b)*eps(b);
    away from critical points it is generally not symmetric (the defect is
    a combination of first derivatives).

    With M = diag(c) @ A that is H[p, q] = tr(M @ E_p @ E_q), the closed
    form

        H[(a,b),(g,d)] = δ_ad M_gb - δ_ag M_db - δ_bd M_ga + δ_bg M_da.

    Two distinct pairs share at most one position, so an off-diagonal
    entry is one entry of +-M, exactly, or 0; the diagonal entry
    -(M_aa + M_bb) is critical.hessian_diagonal's formula on diag(A),
    rounded once. Only the O(d n) nonzeros are read, and each matrix of a
    stack gets the bits it gets alone. Off the manifold an entry of M can
    overflow (c*A): the entries of H that read it are inf or NaN, and the
    others keep their finite values.
    """
    A, c = _check_args(A, c)
    with np.errstate(over="ignore", invalid="ignore"):
        return _tangent_hessian(A, c)


class DegenerateHessianError(ValueError):
    """An eigenvalue sits too close to zero to carry a sign — the cost
    vector violates strict monotonicity or the point is not critical."""


def _numeric_indices(H: np.ndarray) -> np.ndarray:
    """numeric_index of every matrix in a (..., d, d) stack, as an int array:
    _banded_indices of its eigenvalues. Entries are not checked for
    finiteness.

    Each matrix is first scaled by the power of two that puts max|H| in
    [0.5, 1), which is exact in the normal range: its index does not
    depend on its scale, and neither H + H^T nor an eigenvalue overflows.
    """
    _, e = np.frexp(np.abs(H).max(axis=(-2, -1), initial=0.0))
    H = np.ldexp(H, -e[..., None, None])
    S = H + H.mT
    S *= 0.5  # in place: one block-sized temporary fewer, same bits
    return _banded_indices(np.linalg.eigvalsh(S))


def _banded_indices(spectra: np.ndarray) -> np.ndarray:
    """The count of negative entries of each row of a (..., k) stack, or -1
    (no index) for a row with an entry |λ| <= _ZERO_BAND * max |λ|, an
    all-zero row included."""
    size = np.abs(spectra)
    degenerate = size.min(axis=-1, initial=np.inf) <= _ZERO_BAND * size.max(axis=-1, initial=0.0)
    return np.where(degenerate, -1, np.count_nonzero(spectra < 0.0, axis=-1))


def numeric_index(H) -> int:
    """Number of negative eigenvalues of the symmetric part of H.

    An eigenvalue of size at most 1e-9 times the largest eigenvalue size
    aborts with DegenerateHessianError rather than guessing a sign. The
    band is relative, so the answer does not depend on the scale of H; an
    all-zero H raises too. Non-finite entries raise ValueError.
    """
    H = _check_square(H)
    if not np.all(np.isfinite(H)):
        raise ValueError("Hessian entries must be finite")
    index = int(_numeric_indices(H))
    if index < 0:
        raise DegenerateHessianError(
            f"Hessian eigenvalue of size at most {_ZERO_BAND:g} times the largest; "
            "index is not defined"
        )
    return index


def _classify(A: np.ndarray) -> list:
    """classify_rotation of every matrix in an (S, n, n) stack, n >= 1, as
    a list: the sign pattern of a matrix's diagonal where rotations._chart
    puts the matrix within _CHART_RADIUS radians of it, None elsewhere."""
    signs, dist = _chart(A)
    return [tuple(eps) if d <= _CHART_RADIUS else None for eps, d in zip(signs.tolist(), dist.tolist())]


def classify_rotation(A):
    """Round A to the sign pattern D of its diagonal when its Cayley chart
    W = (I - D A)(I + D A)^-1 has max |W_ij| <= 5e-7 radians: D is then
    the only critical point in that chart. Otherwise None, also for signs
    of product -1 (det D = -1), a singular I + D A and NaN entries."""
    return _classify(_check_square(A, nonempty=True)[None])[0]


FlowResult = namedtuple(
    "FlowResult", ("final_point", "iterations", "final_gradient_norm", "classified_pattern", "converged")
)
FlowResult.__doc__ = """Outcome of one descent run; classified_pattern is the sign pattern
whose Cayley chart puts the final point within 5e-7 radians of it (see
classify_rotation), or None when there is none."""


def _descend(A: np.ndarray, c: np.ndarray, grad_tol: float, max_iterations: int) -> tuple:
    """The descent of gradient_flow on a stack A of S starts at once.

    A is (S, n, n), and each start is overwritten by its final point. Each
    pass takes the gradients g and norms of the live samples. A sample
    stops once its norm is at most grad_tol or the rounding floor
    n*eps^2*top, top = patterns._top(c), or it has made max_iterations
    trials; it is then written back (a start that stops at once,
    unchanged), and the descent returns once none is live. The others make
    one trial along p = g / w, w the sizes of the Hessian diagonal at the
    point floored at gap = patterns._gap(c), with step 1 after an accepted
    step and half the refused step after a null step; p is dimensionless,
    and so is the trial. A trial is kept if f(trial) <= f + n*eps*top -
    _ARMIJO*step*<g, p>; a null step keeps the point and its value f. The
    live state is kept in compact arrays, with one trial count for all.
    Every kernel computes a sample as it would alone, so no result depends
    on the batch. Returns the (S,) iteration counts and final gradient norms.
    """
    stop = max(grad_tol, c.size * _EPS * _EPS * _top(c))
    slack = c.size * _EPS * _top(c)
    # At weights _check_descent takes, |c_a eps_a + c_b eps_b| >= gap at every
    # critical point, so the floor never clips the diagonal at a limit.
    gap = _gap(c)
    iterations = np.empty(len(A), dtype=int)
    gnorm = np.empty(len(A))
    idx = np.arange(len(A))
    Al = A.copy()
    fl = _objective(Al, c)
    hl = np.ones(len(A))
    t = 0
    while True:
        gl = _gradient(Al, c)
        gn = np.sqrt(np.vecdot(gl, gl))
        stay = (gn > stop) & (t < max_iterations)
        if np.count_nonzero(stay) < stay.size:
            done = ~stay
            rows = idx[done]
            A[rows], gnorm[rows] = Al[done], gn[done]
            iterations[rows] = t
            idx, Al, fl, gl, hl = idx[stay], Al[stay], fl[stay], gl[stay], hl[stay]
        if not idx.size:
            return iterations, gnorm
        pl = gl / np.maximum(np.abs(_hessian_diagonal(Al.diagonal(0, -2, -1), c)), gap)
        step = np.minimum(hl, math.sqrt(2.0) / np.sqrt(np.vecdot(pl, pl)))
        trial = _cayley(Al, -pl, step)
        ft = _objective(trial, c)
        ok = ft <= fl + slack - _ARMIJO * step * np.vecdot(gl, pl)
        hl = np.ones(idx.size)
        if np.count_nonzero(ok) < ok.size:
            # A refused trial is a null step: the sample keeps its point and
            # its value, and tries half the step.
            no = ~ok
            trial[no], ft[no] = Al[no], fl[no]
            hl[no] = _BACKTRACK * step[no]
        t += 1
        Al, fl = trial, ft


def gradient_flow(
    A0, c, grad_tol: float = 1e-8, max_iterations: int = _MAX_ITERATIONS
) -> FlowResult:
    """Backtracking, diagonally preconditioned gradient descent on the
    objective over SO(n).

    Each iteration tries A <- retract(A, -p, step) with p = g / w, g the
    gradient in the pair basis and w the entrywise sizes of the Hessian
    diagonal at A, -(c(a)*A(a,a) + c(b)*A(b,b)) for the pair (a, b),
    floored at gap = patterns._gap(c). At a sign pattern that diagonal is
    the whole Hessian and no entry is below gap, so near a limit the step
    is Newton's. A trial is kept if f(trial) <= f(A) + n*eps*top - 1e-4 *
    step * <g, p>, n*eps*top (top = patterns._top(c)) being the objective's
    rounding error, so no accepted step raises the objective by more. A refused trial is a
    null step, and the next trial halves its step. iterations counts
    trials, accepted or null. The first trial, and every trial after an
    accepted step, is 1; trial steps are capped so step * ||K||_F <= 2,
    K being the skew matrix of p, which bounds how far one step moves.

    The descent stops for one of two reasons. Its gradient 2-norm is at
    most grad_tol, or at most n*eps^2*top, the rounding error of the
    gradient near a limit: a grad_tol below that floor ends promptly, with
    converged=False unless the norm has rounded to exactly 0. Or it has
    made max_iterations trials, and returns with converged=False. A
    grad_tol that is not a finite positive number, a max_iterations that
    is not a nonnegative integer (as operator.index takes it: 3.0 is
    not), a start of the wrong shape or off the manifold, and
    weights that tie once scaled to top < 1, such as (0, 5e-324, 1),
    raise ValueError; past these checks the loop runs on unchecked
    kernels. The final matrix is classified by classify_rotation: its sign
    pattern if its Cayley chart puts it within 5e-7 radians, else None.
    """
    c = validate_costs(c)
    _check_descent(c, grad_tol)
    _check_count("max_iterations", max_iterations, 0)
    A = _check_start(A0, c.size)[None]
    points, iterations, norms, converged, patterns = _flows(A, c, grad_tol, max_iterations)
    return FlowResult(
        final_point=points[0],
        iterations=int(iterations[0]),
        final_gradient_norm=float(norms[0]),
        classified_pattern=patterns[0],
        converged=bool(converged[0]),
    )


def _flows(starts: np.ndarray, c: np.ndarray, grad_tol: float, max_iterations=_MAX_ITERATIONS):
    """The descent of gradient_flow from every start of an (S, n, n) stack,
    run through _descend in _blocks of starts.

    Returns (points, iterations, norms, converged, patterns), one row per
    start: a new stack of final points (starts is left unchanged), the
    iteration counts and final gradient norms, the mask norms <= grad_tol,
    and a list of the limits' sign-pattern tuples (None if unclassified).

    _descend runs on c*s and grad_tol*s, with s = _scale(c), so its
    gradient norms cannot overflow. No constant of the descent is
    absolute and scaling by a power of two is exact, so wherever nothing
    overflows or underflows the steps and points are those of the descent
    on c itself, and norms / s are its norms.
    """
    s = _scale(c)
    c_s, tol_s = c * s, grad_tol * s
    points = np.array(starts, dtype=float)
    iterations = np.empty(len(points), dtype=int)
    norms = np.empty(len(points))
    for block in _blocks(len(points), 8 * c.size * c.size):
        iterations[block], norms[block] = _descend(points[block], c_s, tol_s, max_iterations)
    norms /= s
    return points, iterations, norms, norms <= grad_tol, _classify(points)
