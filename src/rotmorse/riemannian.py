"""Floating-point Riemannian layer for the weighted-trace objective on SO(n).

Evaluates the objective, its directional derivatives and second derivatives
in the tangent-pair basis, counts negative Hessian eigenvalues, and runs a
backtracking gradient descent whose limits empirically recover the analytic
critical set.

All derivatives are taken along the rotation-plane curves of
``rotations.givens_curve``. The right family A @ B_ij(theta) is the
canonical parameterization; the left family B_ij(theta) @ A exists for
cross-checks only. Gradient norms are relative to this raw generator
basis — a different normalization would rescale them — but criticality,
classification, and index counts do not depend on that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critical import validate_costs
from .rotations import MEMBERSHIP_TOL, is_rotation, retract

# Line-search constants of gradient_flow. An accepted step may raise the
# objective by at most _DESCENT_SLACK, which lets the flow keep moving once
# objective differences fall below float resolution while the gradient is
# still above tolerance.
_ARMIJO = 1e-4
_BACKTRACK = 0.5
_MIN_STEP = 1e-20
_DESCENT_SLACK = 1e-12


def _check_point(A, n: int) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.shape != (n, n):
        raise ValueError(f"matrix shape {A.shape} does not match cost vector length {n}")
    return A


def objective(A, c) -> float:
    """Weighted trace sum_i c(i) * A(i,i)."""
    c = validate_costs(c)
    A = _check_point(A, c.size)
    return float(np.dot(c, np.diagonal(A)))


def curve_derivatives(A, c, side: str = "right") -> np.ndarray:
    """First derivatives of the objective along all rotation-plane curves.

    In pair_indices order. side="right" differentiates the curves
    A @ B_ij(theta): component (i, j) is c(i)*A(i,j) - c(j)*A(j,i).
    side="left" differentiates B_ij(theta) @ A: component (i, j) is
    -c(i)*A(j,i) + c(j)*A(i,j). Both vanish identically (exact zeros) on
    embedded sign-pattern matrices.
    """
    c = validate_costs(c)
    A = _check_point(A, c.size)
    iu, ju = np.triu_indices(c.size, k=1)
    if side == "right":
        return c[iu] * A[iu, ju] - c[ju] * A[ju, iu]
    if side == "left":
        return -c[iu] * A[ju, iu] + c[ju] * A[iu, ju]
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def riemannian_gradient(A, c) -> np.ndarray:
    """Gradient of the objective in the canonical (right-curve) basis."""
    return curve_derivatives(A, c, side="right")


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

        H[(a,b),(g,d)] = δ_ad M_gb - δ_ag M_db - δ_bd M_ga + δ_bg M_da,

    built below as S - S^T over the first two axes, with
    S[a,b,g,d] = δ_ad M_gb - δ_ag M_db.
    """
    c = validate_costs(c)
    A = _check_point(A, c.size)
    eye = np.eye(c.size)
    M = c[:, None] * A
    S = np.einsum("ad,gb->abgd", eye, M) - np.einsum("ag,db->abgd", eye, M)
    iu, ju = np.triu_indices(c.size, k=1)
    return (S - S.transpose(1, 0, 2, 3))[iu, ju][:, iu, ju]


class DegenerateHessianError(ValueError):
    """An eigenvalue sits too close to zero to carry a sign — the cost
    vector violates strict monotonicity or the point is not critical."""


def numeric_index(H, zero_tol: float = 1e-9) -> int:
    """Number of negative eigenvalues of the symmetric matrix H.

    Eigenvalues within zero_tol of zero abort with DegenerateHessianError
    rather than guessing a sign.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    eigs = np.linalg.eigvalsh(0.5 * (H + H.T))
    if eigs.size and np.abs(eigs).min() <= zero_tol:
        raise DegenerateHessianError(
            f"Hessian eigenvalue within {zero_tol:g} of zero; index is not defined"
        )
    return int(np.count_nonzero(eigs < 0.0))


def classify_rotation(A, tol: float = 1e-6):
    """Round A to a sign pattern when it is entrywise within tol of an
    embedded pattern with det +1; otherwise None."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    diag = np.diagonal(A)
    eps = np.where(diag >= 0.0, 1, -1)
    if np.abs(diag - eps).max() > tol:
        return None
    if n > 1 and np.abs(A - np.diag(diag)).max() > tol:
        return None
    if int(np.prod(eps)) != 1:
        return None
    return tuple(int(e) for e in eps)


@dataclass
class FlowResult:
    """Outcome of one descent run."""

    final_point: np.ndarray
    iterations: int
    final_gradient_norm: float
    classified_pattern: tuple | None
    converged: bool
    trajectory_values: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        out = {
            "final_point": self.final_point.tolist(),
            "iterations": self.iterations,
            "final_gradient_norm": self.final_gradient_norm,
            "classified_pattern": (
                list(self.classified_pattern) if self.classified_pattern is not None else None
            ),
            "converged": self.converged,
        }
        if self.trajectory_values is not None:
            out["trajectory_values"] = self.trajectory_values.tolist()
        return out


def gradient_flow(
    A0, c, grad_tol: float = 1e-8, max_iterations: int = 100_000, record_trajectory: bool = False
) -> FlowResult:
    """Backtracking gradient descent on the objective over SO(n).

    Repeats A <- retract(A, -gradient, step), shrinking the step until the
    Armijo decrease (up to a small slack) holds, and stops once the
    gradient 2-norm falls below grad_tol. The first trial step is
    1/(2*max(c)): gradient components are bounded by 2*max(c), which makes
    it scale-aware. Trial steps are also capped so step * ||K||_F <= 2,
    keeping the retraction in its accurate regime.

    Hitting max_iterations, or a line search whose step shrinks below
    _MIN_STEP, returns a result with converged=False rather than raising.
    The final matrix is classified by classify_rotation at its default
    tolerance (None if no sign pattern is near). With record_trajectory, trajectory_values holds the
    objective at the start and after every accepted step.
    """
    c = validate_costs(c)
    A = np.array(A0, dtype=float)
    if A.shape != (c.size, c.size):
        raise ValueError(f"start shape {A.shape} does not match cost vector length {c.size}")
    if not is_rotation(A, MEMBERSHIP_TOL):
        raise ValueError("starting point is not a rotation matrix within membership tolerance")

    step0 = 1.0 / (2.0 * c[-1])
    f = objective(A, c)
    trajectory = [f] if record_trajectory else None
    g = riemannian_gradient(A, c)
    gnorm = float(np.linalg.norm(g))
    iterations = 0

    while gnorm > grad_tol and iterations < max_iterations:
        knorm = math.sqrt(2.0) * gnorm  # ||K||_F for pair coefficients g
        step = min(step0, 2.0 / knorm)
        accepted = False
        while step >= _MIN_STEP:
            trial = retract(A, -g, step)
            f_trial = objective(trial, c)
            if f_trial <= f - _ARMIJO * step * gnorm * gnorm + _DESCENT_SLACK:
                accepted = True
                break
            step *= _BACKTRACK
        if not accepted:
            break
        A, f = trial, f_trial
        iterations += 1
        if trajectory is not None:
            trajectory.append(f)
        g = riemannian_gradient(A, c)
        gnorm = float(np.linalg.norm(g))

    return FlowResult(
        final_point=A,
        iterations=iterations,
        final_gradient_norm=gnorm,
        classified_pattern=classify_rotation(A),
        converged=bool(gnorm <= grad_tol),
        trajectory_values=None if trajectory is None else np.asarray(trajectory),
    )
