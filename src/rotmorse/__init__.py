"""Morse-theoretic analysis of weighted-trace objectives on the rotation
group SO(n): exact critical-point enumeration with indices and values,
Morse and Poincaré polynomials with a perfectness verdict, and a
floating-point Riemannian layer (gradients, Hessians, gradient flow) that
rediscovers the same structure numerically.
"""

from .critical import (
    CriticalPointRecord,
    critical_value,
    default_costs,
    embed_pattern,
    enumerate_critical_points,
    hessian_diagonal,
    index_by_formula,
    index_by_hessian,
    morse_polynomial,
    sign_patterns,
    validate_costs,
    validate_pattern,
)
from .intpoly import IntPolynomial
from .riemannian import (
    DegenerateHessianError,
    FlowResult,
    classify_rotation,
    curve_derivatives,
    gradient_flow,
    numeric_index,
    objective,
    riemannian_gradient,
    tangent_hessian,
)
from .rotations import (
    MEMBERSHIP_TOL,
    curve_velocity,
    generator,
    givens_curve,
    haar_sample,
    is_rotation,
    pair_count,
    pair_indices,
    retract,
    skew_from_coeffs,
)
from .topology import (
    PerfectnessReport,
    enumerate_basis,
    is_perfect,
    morse_remainder,
    morse_split_by_last_sign,
    poincare_from_basis,
    poincare_product,
)

__version__ = "0.1.0"

__all__ = [
    "CriticalPointRecord",
    "DegenerateHessianError",
    "FlowResult",
    "IntPolynomial",
    "MEMBERSHIP_TOL",
    "PerfectnessReport",
    "classify_rotation",
    "critical_value",
    "curve_derivatives",
    "curve_velocity",
    "default_costs",
    "embed_pattern",
    "enumerate_basis",
    "enumerate_critical_points",
    "generator",
    "givens_curve",
    "gradient_flow",
    "haar_sample",
    "hessian_diagonal",
    "index_by_formula",
    "index_by_hessian",
    "is_perfect",
    "is_rotation",
    "morse_polynomial",
    "morse_remainder",
    "morse_split_by_last_sign",
    "numeric_index",
    "objective",
    "pair_count",
    "pair_indices",
    "poincare_from_basis",
    "poincare_product",
    "retract",
    "riemannian_gradient",
    "sign_patterns",
    "skew_from_coeffs",
    "tangent_hessian",
    "validate_costs",
    "validate_pattern",
]
