"""Cross-checking suites: finite-difference oracles against the closed-form
derivatives, exact index agreement, and flow-based recovery of the critical
set. The `verify` CLI subcommand bundles these; tests reuse the pieces.

The finite-difference routes go through objective() and givens_curve()
only, so they share nothing with the closed-form derivative formulas they
check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .critical import (
    default_costs,
    embed_pattern,
    index_by_formula,
    index_by_hessian,
    sign_patterns,
    validate_costs,
)
from .riemannian import (
    gradient_flow,
    numeric_index,
    objective,
    curve_derivatives,
    tangent_hessian,
)
from .rotations import givens_curve, haar_sample, pair_indices


def random_costs(n: int, rng, low: float = 0.0, high: float = 10.0) -> np.ndarray:
    """Strictly increasing weights drawn uniformly from [low, high]."""
    while True:
        c = np.sort(rng.uniform(low, high, size=n))
        if n == 1 or np.all(np.diff(c) > 0):
            return c


def fd_curve_derivative(A, c, pair, h: float = 1e-5, side: str = "right") -> float:
    """Central difference of the objective along one rotation-plane curve."""
    c = validate_costs(c)
    n = c.size
    B_plus = givens_curve(pair, h, n)
    B_minus = givens_curve(pair, -h, n)
    if side == "right":
        return (objective(A @ B_plus, c) - objective(A @ B_minus, c)) / (2.0 * h)
    if side == "left":
        return (objective(B_plus @ A, c) - objective(B_minus @ A, c)) / (2.0 * h)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def fd_gradient(A, c, h: float = 1e-5, side: str = "right") -> np.ndarray:
    """Finite-difference estimate of all curve derivatives, pair order."""
    n = validate_costs(c).size
    return np.array([fd_curve_derivative(A, c, p, h=h, side=side) for p in pair_indices(n)])


def fd_tangent_hessian(A, c, h: float = 1e-4) -> np.ndarray:
    """Second-order mixed central differences along curve pairs.

    Entry (p, q) approximates d^2/dtheta dphi of the objective along
    A @ B_p(theta) @ B_q(phi) at zero.
    """
    c = validate_costs(c)
    n = c.size
    pairs = pair_indices(n)
    d = len(pairs)
    B_plus = [givens_curve(p, h, n) for p in pairs]
    B_minus = [givens_curve(p, -h, n) for p in pairs]
    H = np.empty((d, d))
    for pi in range(d):
        Ap = A @ B_plus[pi]
        Am = A @ B_minus[pi]
        for qi in range(d):
            H[pi, qi] = (
                objective(Ap @ B_plus[qi], c)
                - objective(Ap @ B_minus[qi], c)
                - objective(Am @ B_plus[qi], c)
                + objective(Am @ B_minus[qi], c)
            ) / (4.0 * h * h)
    return H


@dataclass(frozen=True)
class SuiteResult:
    """One suite's verdict: residual against its threshold."""

    name: str
    passed: bool
    max_residual: float
    threshold: float
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "threshold": self.threshold,
            "detail": self.detail,
        }


def gradient_oracle_suite(
    n: int, samples: int, seed=0, c=None, h: float = 1e-5, threshold: float = 1e-7
) -> SuiteResult:
    """Closed-form curve derivatives vs central differences at Haar points.

    Checks both curve families. With c=None, weights are redrawn per
    sample from [0, 10].
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        A = haar_sample(n, rng)
        cc = random_costs(n, rng) if c is None else c
        for side in ("right", "left"):
            resid = np.abs(curve_derivatives(A, cc, side=side) - fd_gradient(A, cc, h=h, side=side))
            if resid.size:
                worst = max(worst, float(resid.max()))
    return SuiteResult("gradient-fd", worst <= threshold, worst, threshold)


def hessian_oracle_suite(
    n: int, samples: int, seed=0, c=None, h: float = 1e-4, threshold: float = 1e-4
) -> SuiteResult:
    """Bilinear-form Hessian vs second-order central differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        A = haar_sample(n, rng)
        cc = random_costs(n, rng) if c is None else c
        resid = np.abs(tangent_hessian(A, cc) - fd_tangent_hessian(A, cc, h=h))
        if resid.size:
            worst = max(worst, float(resid.max()))
    return SuiteResult("hessian-fd", worst <= threshold, worst, threshold)


def index_equivalence_suite(n: int, samples: int, seed=0, c=None) -> SuiteResult:
    """Formula index == Hessian-diagonal index == eigenvalue index, for
    every admissible pattern. With c=None, weights are redrawn per sample."""
    rng = np.random.default_rng(seed)
    patterns = sign_patterns(n)
    mismatches = 0
    for _ in range(samples):
        cc = random_costs(n, rng) if c is None else c
        for eps in patterns:
            by_formula = index_by_formula(eps)
            by_count = index_by_hessian(eps, cc)
            by_eigen = numeric_index(tangent_hessian(embed_pattern(eps), cc))
            if not (by_formula == by_count == by_eigen):
                mismatches += 1
    return SuiteResult(
        "index-equivalence",
        mismatches == 0,
        float(mismatches),
        0.0,
        detail=f"{len(patterns)} patterns x {samples} cost vectors",
    )


def flow_classification_suite(
    n: int,
    samples: int,
    seed=0,
    c=None,
    grad_tol: float = 1e-8,
    max_iterations: int = 100_000,
) -> SuiteResult:
    """Every Haar-started descent must converge and land on an enumerated
    sign pattern. Residual reported is the worst final gradient norm."""
    rng = np.random.default_rng(seed)
    cc = default_costs(n) if c is None else validate_costs(c, n=n)
    admissible = set(sign_patterns(n))
    worst = 0.0
    failures = 0
    for _ in range(samples):
        result = gradient_flow(
            haar_sample(n, rng), cc, grad_tol=grad_tol, max_iterations=max_iterations
        )
        worst = max(worst, result.final_gradient_norm)
        if not result.converged or result.classified_pattern not in admissible:
            failures += 1
    return SuiteResult(
        "flow-classification",
        failures == 0,
        worst,
        grad_tol,
        detail=f"{samples} descents, {failures} failures",
    )


def run_all_suites(n: int, samples: int, seed=0, c=None, grad_tol: float = 1e-8) -> list:
    """The four cross-check suites in fixed order."""
    return [
        gradient_oracle_suite(n, samples, seed=seed, c=c),
        hessian_oracle_suite(n, samples, seed=seed, c=c),
        index_equivalence_suite(n, samples, seed=seed, c=c),
        flow_classification_suite(n, samples, seed=seed, c=c, grad_tol=grad_tol),
    ]
