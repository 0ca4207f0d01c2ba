"""Floating-point Riemannian layer for the weighted-trace objective on SO(n).

Evaluates the objective, its directional derivatives and second derivatives
in the tangent-pair basis, counts negative Hessian eigenvalues, and runs a
gradient descent whose limits empirically recover the analytic critical
set. The descent steps along the Cayley retraction (``rotations.retract``)
in the direction of the gradient over the Hessian diagonal at the point,
whose sizes are floored at the smallest gap between weights. It makes one
trial per iteration, a unit step or half a refused one, under an Armijo
test that allows for the objective's rounding, and stops at its
tolerance (or the gradient's rounding floor) or its cap. It runs a batch of
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
from .patterns import _check_descent, _integral, _scale
from .rotations import (
    _cayley,
    _check_square,
    _pair_arrays,
    _pair_flat,
    is_rotation,
    pair_count,
)

# Line-search constants of gradient_flow. Every trial, accepted or refused,
# counts toward max_iterations. A refused trial is a null step: the next
# trial is _BACKTRACK times its step, and a trial after an accepted step is 1.
_ARMIJO = 1e-4
_BACKTRACK = 0.5
# The objective rounds by about n * _EPS * max(c), and the Armijo test
# allows that much: a trial is kept if f(trial) <= f + n * _EPS * max(c) -
# _ARMIJO * step * <g, p>, f the current value. Near a limit the
# off-diagonal entries are about _EPS, so each gradient component
# c_i A_ij - c_j A_ji carries a rounding error of about _EPS^2 * max(c); a
# descent stops once its gradient norm is at most n * _EPS^2 * max(c).
_EPS = 2.0**-52  # the float64 machine epsilon
# _blocks keeps every stacked temporary here and in verify at most this many
# bytes, below glibc's 128 KiB mmap threshold: freeing a mapped block raises
# the threshold, after which freed blocks stay resident and peak RSS grows.
_STACK_BYTES = 1 << 17
# The default iteration cap of every descent.
_MAX_ITERATIONS = 100_000

# _banded_indices treats |λ| <= _ZERO_BAND * max |λ| as zero.
_ZERO_BAND = 1e-9
_CLASSIFY_TOL = 1e-6


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
# np.vecdot computes each entry with the same BLAS dot that np.dot uses on
# one vector, so a matrix gets the same bits alone as in any stack.


def _objective(A: np.ndarray, c: np.ndarray):
    return np.vecdot(A.diagonal(0, -2, -1), c)


def _gradient(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    # Entry (i, j) of M - M^T with M = diag(c) A is c(i)*A(i,j) - c(j)*A(j,i).
    # np.take keeps each row contiguous (fancy indexing of a stack would
    # not), so np.vecdot of a row takes the same unit-stride BLAS path as
    # for one matrix.
    M = c[:, None] * A
    return np.take((M - M.mT).reshape(A.shape[:-2] + (-1,)), _pair_flat(c.size), axis=-1)


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
    -c(i)*A(j,i) + c(j)*A(i,j). Both vanish identically (exact zeros) on
    embedded sign-pattern matrices.
    """
    A, c = _check_args(A, c)
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _curve_derivatives(A, c, side == "left")


def _curve_derivatives(A: np.ndarray, c: np.ndarray, left: bool) -> np.ndarray:
    # f reads only the diagonal, so f(B @ A) = f(A^T @ B^T) and the left
    # curve through A is the right curve through A^T, reversed.
    return -_gradient(A.mT, c) if left else _gradient(A, c)


@lru_cache(maxsize=None)
def _hessian_scatter(n: int) -> tuple:
    """Where the four terms of the tangent_hessian closed form land.

    One read-only (sign, dst, src) per term, in the docstring's order:
    the term adds sign * M.flat[src] to H.flat[dst], H being d x d with
    d = pair_count(n) and M being n x n. Within a term every dst occurs at
    most once; only the second and third terms share positions, the
    diagonal, so H[p, p] = (0 - M_bb) - M_aa for p = (a, b).
    """
    iu, ju = _pair_arrays(n)
    a, b = iu[:, None], ju[:, None]  # row pair p = (a, b)
    g, d = iu[None, :], ju[None, :]  # column pair q = (g, d)
    dst = np.arange(iu.size * iu.size).reshape(iu.size, iu.size)
    terms = []
    for sign, hit, src in (
        (1.0, a == d, g * n + b),
        (-1.0, a == g, d * n + b),
        (-1.0, b == d, g * n + a),
        (1.0, b == g, d * n + a),
    ):
        term = (dst[hit], src[hit])
        for column in term:
            column.flags.writeable = False
        terms.append((sign, *term))
    return tuple(terms)


def _tangent_hessian(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """tangent_hessian of every matrix in a (..., n, n) stack: (..., d, d)."""
    n = c.size
    d = pair_count(n)
    lead = A.shape[:-2]
    M = (c[:, None] * A).reshape(lead + (n * n,))
    H = np.zeros(lead + (d * d,))
    for sign, dst, src in _hessian_scatter(n):
        H[..., dst] += sign * M[..., src]
    return H.reshape(lead + (d, d))


def tangent_hessian(A, c) -> np.ndarray:
    """Mixed second derivatives along pairs of rotation-plane curves.

    Entry ((a,b), (g,d)) is d^2/dtheta dphi of the objective along
    A @ B_ab(theta) @ B_gd(phi) at zero. The curve is linear in each angle
    and the objective is linear in matrix entries, so the entry equals the
    objective applied to A @ E_ab @ E_gd. At an embedded sign pattern the
    matrix is exactly diagonal with entries -c(a)*eps(a) - c(b)*eps(b);
    away from critical points it is generally not symmetric (the defect is
    a combination of first derivatives).

    Expanding E_ab @ E_gd with M = diag(c) @ A gives the closed form

        H[(a,b),(g,d)] = δ_ad M_gb - δ_ag M_db - δ_bd M_ga + δ_bg M_da.

    Each δ term is nonzero at O(n^3) of the d^2 entries, so H is built by
    scattering the four terms from a per-n table of positions into a zero
    matrix; the n^4 tensor of all δ products is never formed. The same
    kernel runs on a whole stack of matrices, and each matrix of a stack
    gets the bits it gets alone.
    """
    return _tangent_hessian(*_check_args(A, c))


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


def _classify(A: np.ndarray) -> tuple:
    """classify_rotation of every matrix in an (S, n, n) stack, n >= 1.

    Returns (signs, found): the (S, n) int signs of the diagonals, and an
    (S,) mask that holds where the matrix is that sign pattern's embedding
    within _CLASSIFY_TOL.
    """
    signs = np.where(A.diagonal(0, -2, -1) >= 0.0, 1, -1)
    offset = np.abs(A - signs[:, :, None] * np.eye(A.shape[-1])).max(axis=(-2, -1))
    return signs, (np.prod(signs, axis=-1) == 1) & (offset <= _CLASSIFY_TOL)


def classify_rotation(A):
    """Round A to a sign pattern when it is entrywise within 1e-6 of an
    embedded pattern with det +1; otherwise None (also for NaN entries)."""
    signs, found = _classify(_check_square(A, nonempty=True)[None])
    return tuple(signs[0].tolist()) if found[0] else None


FlowResult = namedtuple(
    "FlowResult", ("final_point", "iterations", "final_gradient_norm", "classified_pattern", "converged")
)
FlowResult.__doc__ = """Outcome of one descent run; classified_pattern is None when no
sign pattern is near the final point."""


def _descend(A: np.ndarray, c: np.ndarray, grad_tol: float, max_iterations: int) -> tuple:
    """The descent of gradient_flow on a stack A of S starts at once.

    A is (S, n, n), and each start is overwritten by its final point. Each
    pass makes one trial per live sample along p = g / w, w being the sizes
    of the Hessian diagonal at the point floored at gap = min(diff(c)). The
    trial step is 1 after an accepted step and half the refused step after
    a null step; p is dimensionless, and so is the trial. A trial is kept
    if f(trial) <= f + n*eps*max(c) - _ARMIJO*step*<g, p>; a null step
    keeps the point and its value f. Each sample keeps its own f, gradient
    and next trial step, and stays live until its gradient norm is at most
    grad_tol or the rounding floor n*eps^2*max(c), or it reaches
    max_iterations. Every live sample has made the same number of trials,
    one integer. The live state is kept in compact arrays; a sample that
    stops is written back once and never touched again. Every kernel
    computes a sample as it would alone, so no result depends on the batch.
    Returns the (S,) iteration counts and final gradient norms.
    """
    g = _gradient(A, c)
    gnorm = np.sqrt(np.vecdot(g, g))
    iterations = np.zeros(A.shape[0], dtype=int)
    stop = max(grad_tol, c.size * _EPS * _EPS * float(c[-1]))
    slack = c.size * _EPS * float(c[-1])

    t = 0
    idx = np.flatnonzero((gnorm > stop) & (t < max_iterations))
    # Under validate_costs |c_a eps_a + c_b eps_b| >= c_b - c_a >= gap at
    # every critical point, so the floor never clips the diagonal at a limit.
    # At n = 1 there is no pair, and gap is inf.
    gap = np.diff(c).min(initial=np.inf)
    Al, gl = A[idx], g[idx]
    fl = _objective(Al, c)
    hl = np.ones(idx.size)
    while idx.size:
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
        Al, fl, gl = trial, ft, _gradient(trial, c)
        gn = np.sqrt(np.vecdot(gl, gl))
        stay = (gn > stop) & (t < max_iterations)
        if np.count_nonzero(stay) < stay.size:
            done = ~stay
            rows = idx[done]
            A[rows], gnorm[rows] = Al[done], gn[done]
            iterations[rows] = t
            idx, Al, fl, gl, hl = idx[stay], Al[stay], fl[stay], gl[stay], hl[stay]

    return iterations, gnorm


def gradient_flow(
    A0, c, grad_tol: float = 1e-8, max_iterations: int = _MAX_ITERATIONS
) -> FlowResult:
    """Backtracking, diagonally preconditioned gradient descent on the
    objective over SO(n).

    Each iteration tries A <- retract(A, -p, step) with p = g / w, g the
    gradient in the pair basis and w the entrywise sizes of the Hessian
    diagonal at A, -(c(a)*A(a,a) + c(b)*A(b,b)) for the pair (a, b),
    floored at gap = min(diff(c)). At a sign pattern that diagonal is the
    whole Hessian and no entry is below gap, so near a limit the step is
    Newton's. A trial is kept if f(trial) <= f(A) + n*eps*max(c) - 1e-4 *
    step * <g, p>, n*eps*max(c) being the objective's rounding error, so
    no accepted step raises the objective by more. A refused trial is a
    null step, and the next trial halves its step. iterations counts
    trials, accepted or null. The first trial, and every trial after an
    accepted step, is 1; trial steps are capped so step * ||K||_F <= 2,
    K being the skew matrix of p, which bounds how far one step moves.

    The descent stops for one of two reasons. Its gradient 2-norm is at
    most grad_tol, or at most n*eps^2*max(c), the rounding error of the
    gradient near a limit: a grad_tol below that floor ends promptly, with
    converged=False unless the norm has rounded to exactly 0. Or it has
    made max_iterations trials, and returns with converged=False. A
    grad_tol that is not a finite positive number, a max_iterations that
    is not a nonnegative integer as given (3.0 is; 2.5, nan and inf are
    not), a start of the wrong shape or off the manifold, and
    weights that tie once scaled to max(c) < 1, such as (0, 5e-324, 1),
    raise ValueError; past these checks the loop runs on unchecked
    kernels. The final matrix is classified by classify_rotation (None if
    no sign pattern is near).
    """
    c = validate_costs(c)
    _check_descent(c, grad_tol)
    if not (_integral(max_iterations) and max_iterations >= 0):
        raise ValueError(f"max_iterations must be an integer >= 0, got {max_iterations!r}")
    A = _check_start(A0, c.size)[None]
    points, iterations, norms, converged, patterns = _flows(A, c, grad_tol, int(max_iterations))
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
    signs, found = _classify(points)
    patterns = [tuple(eps) if ok else None for eps, ok in zip(signs.tolist(), found.tolist())]
    return points, iterations, norms, norms <= grad_tol, patterns
