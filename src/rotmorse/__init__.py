"""Morse-theoretic analysis of weighted-trace objectives on the rotation
group SO(n): exact critical-point enumeration with indices and values,
Morse and Poincaré polynomials with a perfectness verdict, and a
floating-point Riemannian layer (gradients, Hessians, gradient flow) that
rediscovers the same structure numerically.

The public names are imported from their modules on first use (PEP 562),
so that `import rotmorse` loads no numpy and the exact layer runs
without it.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULES = {
    "CriticalPointRecord": "critical",
    "critical_value": "critical",
    "default_costs": "critical",
    "embed_pattern": "critical",
    "enumerate_critical_points": "critical",
    "hessian_diagonal": "critical",
    "index_by_formula": "critical",
    "index_by_hessian": "critical",
    "validate_costs": "critical",
    "IntPolynomial": "intpoly",
    "morse_polynomial": "patterns",
    "sign_patterns": "patterns",
    "DegenerateHessianError": "riemannian",
    "FlowResult": "riemannian",
    "classify_rotation": "riemannian",
    "curve_derivatives": "riemannian",
    "gradient_flow": "riemannian",
    "numeric_index": "riemannian",
    "objective": "riemannian",
    "tangent_hessian": "riemannian",
    "generator": "rotations",
    "givens_curve": "rotations",
    "haar_sample": "rotations",
    "is_rotation": "rotations",
    "pair_count": "rotations",
    "pair_indices": "rotations",
    "retract": "rotations",
    "PerfectnessReport": "topology",
    "is_perfect": "topology",
    "morse_remainder": "topology",
    "morse_split_by_last_sign": "topology",
    "poincare_from_basis": "topology",
    "poincare_product": "topology",
}

__all__ = sorted(_MODULES)


def __getattr__(name):
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
