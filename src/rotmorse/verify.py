"""Cross-checking suites: finite-difference oracles against the closed-form
derivatives, exact index agreement, and flow-based recovery of the critical
set, all for one admissible weight vector. run_all_suites is the entry
point and the `verify` CLI subcommand calls it. It checks the weights,
then the seed and the sample count, and draws one stack of Haar points
from one default_rng(seed); the gradient, Hessian and flow suites each
make one pass over that stack through private kernels that check
nothing, and the index suite depends on the weights alone and runs once.
The finite-difference kernels use givens_curve() and the linearity of
the objective in the matrix entries only, so they share nothing with the
closed forms.

Every oracle runs as a few numpy calls on stacked arrays rather than one
call per matrix, in blocks cut by riemannian._blocks. f(X @ B) is the
Frobenius product <X, diag(c) @ B^T>, so the finite differences read the
objective at a rotated point as one vecdot against a per-call table of
the 2d curves at +-h, without forming that point: _fd_gradient makes 2d
dots per point, and _fd_tangent_hessian forms the 2d points A @ B_p(+-h)
of each point by stacked matrix products and makes (2d)^2 dots. The index
suite reads every pattern's tangent Hessian off one _tangent_hessian call
at the n unit diagonal matrices, and takes the signs and closed forms of
the critical set from _pattern_table one block of rows at a time, so no
stack spans all 2^(n-1) patterns. Stacked matmul and vecdot treat each
matrix or row as they would alone (vecdot makes one BLAS dot per entry,
as np.dot does), so every value has the bits of the one-matrix-at-a-time
loops.

Oracle settings: the gradient suite differences with step
_GRADIENT_STEP = 1e-5 and passes at a worst residual of
1e-7 * max(c) / n, the Hessian suite with _HESSIAN_STEP = 1e-4 at
1e-4 * max(c) / n. The finite-difference errors grow with max(c), so the
thresholds are relative to it, and they are exactly 1e-7 and 1e-4 at the
default weights 1..n. The flow suite caps each descent at
riemannian._MAX_ITERATIONS = 100_000 trials and compares the final
gradient norms with the absolute grad_tol.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .critical import _pattern_table, default_costs, validate_costs
from .patterns import _check_descent, _check_draw
from .riemannian import _banded_indices, _blocks, _curve_derivatives, _flows, _tangent_hessian
from .rotations import _haar, givens_curve, pair_count, pair_indices


_GRADIENT_STEP = 1e-5
_GRADIENT_THRESHOLD = 1e-7
_HESSIAN_STEP = 1e-4
_HESSIAN_THRESHOLD = 1e-4


@lru_cache(maxsize=None)
def _curve_stack(n: int, h: float) -> np.ndarray:
    """Read-only (2d, n, n) stack of givens_curve(p, h, n) over
    pair_indices(n), then of givens_curve(p, -h, n)."""
    pairs = pair_indices(n)
    B = np.array([givens_curve(p, t, n) for t in (h, -h) for p in pairs]).reshape(-1, n, n)
    B.flags.writeable = False
    return B


def _weight_table(c: np.ndarray, h: float, left: bool) -> np.ndarray:
    """Read-only (2d, n*n) table W whose row k gives the objective at the
    rotated point of X along curve k of _curve_stack(n, h) as
    np.vecdot(X.ravel(), W[k]).

    f is linear in the matrix entries, so f(X @ B) = <X, diag(c) @ B^T>_F
    and f(B @ X) = <X, (diag(c) @ B)^T>_F: no rotated point is formed.
    """
    n = c.size
    B = _curve_stack(n, h)
    W = ((c[:, None] * B).mT if left else c[:, None] * B.mT).reshape(len(B), n * n)
    W.flags.writeable = False
    return W


def _fd_gradient(A: np.ndarray, c: np.ndarray, left: bool) -> np.ndarray:
    """Central differences along every rotation-plane curve of the given
    family (as in curve_derivatives) at each point of an (S, n, n) stack:
    (S, d), pair order."""
    n, d, h = c.size, pair_count(c.size), _GRADIENT_STEP
    f = np.vecdot(A.reshape(len(A), 1, n * n), _weight_table(c, h, left))
    return (f[:, :d] - f[:, d:]) / (2.0 * h)


def _fd_tangent_hessian(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Second-order mixed central differences along curve pairs at each
    point of an (S, n, n) stack: (S, d, d).

    Entry (p, q) approximates d^2/dtheta dphi of the objective along
    A @ B_p(theta) @ B_q(phi) at zero, as
    (((f++ - f+-) - f-+) + f--) / (4 h^2) with f+- = f((A @ B_p(h)) @ B_q(-h)).
    Only the 2d points A @ B_p(+-h) are formed; _weight_table gives the
    objective at all (2d)^2 points X @ B_q(+-h) of them.
    """
    n, d, h = c.size, pair_count(c.size), _HESSIAN_STEP
    X = A[:, None] @ _curve_stack(n, h)
    f = np.vecdot(X.reshape(len(X), 2 * d, 1, n * n), _weight_table(c, h, False))
    # f[:, i, p, j, q] is f((A @ B_p(+-h)) @ B_q(+-h)), index 0 of i and j
    # picking +h and 1 picking -h.
    (fpp, fpm), (fmp, fmm) = f.reshape(len(X), 2, d, 2, d).transpose(1, 3, 0, 2, 4)
    return (((fpp - fpm) - fmp) + fmm) / (4.0 * h * h)


SuiteResult = namedtuple(
    "SuiteResult", ("name", "passed", "max_residual", "threshold", "detail"), defaults=("",)
)
SuiteResult.__doc__ = """One suite's verdict: residual against its threshold."""


def _worst(differences) -> float:
    """Largest absolute entry over a stream of arrays; 0.0 if all are empty.

    A NaN anywhere makes the result NaN, which fails every threshold; the
    builtin max would keep a finite maximum seen before it.
    """
    return float(np.max([np.abs(d).max(initial=0.0) for d in differences], initial=0.0))


def _weight_scale(c: np.ndarray) -> float:
    """max(c) / n: exactly 1.0 at the default weights 1..n. The finite
    differences' truncation and rounding errors both grow with max(c), so
    the oracle thresholds are the fixed constants times this."""
    return float(c[-1] / c.size)


def _gradient_suite(starts: np.ndarray, c: np.ndarray) -> SuiteResult:
    """Closed-form curve derivatives vs central differences at every start,
    along both curve families."""
    worst = _worst(
        _curve_derivatives(starts[block], c, left) - _fd_gradient(starts[block], c, left)
        for block in _blocks(len(starts), 8 * c.size**2)
        for left in (False, True)
    )
    threshold = _GRADIENT_THRESHOLD * _weight_scale(c)
    return SuiteResult("gradient-fd", worst <= threshold, worst, threshold)


def _hessian_suite(starts: np.ndarray, c: np.ndarray) -> SuiteResult:
    """Bilinear-form Hessian vs second-order central differences at every
    start, in blocks cut by the largest temporary per point: the 2d rotated
    points of _fd_tangent_hessian, 16 d n^2 bytes."""
    worst = _worst(
        _tangent_hessian(starts[block], c) - _fd_tangent_hessian(starts[block], c)
        for block in _blocks(len(starts), 16 * pair_count(c.size) * c.size**2)
    )
    threshold = _HESSIAN_THRESHOLD * _weight_scale(c)
    return SuiteResult("hessian-fd", worst <= threshold, worst, threshold)


def _index_suite(c: np.ndarray) -> SuiteResult:
    """Formula index == Hessian-diagonal index == tangent-Hessian index, for
    every admissible pattern. The residual is the number of mismatches.

    _tangent_hessian is linear in M = diag(c) @ A, and M is diagonal at a
    pattern eps, so H(eps) = sum_k eps_k T_k, T being the Hessians at the
    unit diagonal matrices E_kk. If every off-diagonal entry of T is 0.0,
    every H(eps) is diagonal, with diagonal signs @ diag(T): two nonzero
    terms per entry, rounded once in any order. A pattern has a Hessian
    index only then, and only if that diagonal is finite; its index is
    then the count that numeric_index makes of eigenvalues, zero band
    included. A pattern without one counts as a mismatch.
    """
    n = c.size
    T = _tangent_hessian(np.eye(n)[:, :, None] * np.eye(n), c)
    t = T.diagonal(0, -2, -1)
    diagonal = np.count_nonzero(T) == np.count_nonzero(t)
    count = 2 ** (n - 1)
    mismatches = 0
    for block in _blocks(count, 8 * pair_count(n)):
        eps, index, _, hessian = _pattern_table(n, c, block)
        by_count = np.count_nonzero(hessian < 0, axis=-1)
        # As in _pattern_table, an entry near 1e308 overflows to +-inf.
        with np.errstate(over="ignore"):
            h = eps @ t
        by_hessian = np.where(diagonal & np.isfinite(h).all(axis=-1), _banded_indices(h), -1)
        mismatches += int(np.count_nonzero((index != by_count) | (by_count != by_hessian)))
    return SuiteResult(
        "index-equivalence", mismatches == 0, float(mismatches), 0.0, detail=f"{count} patterns"
    )


def _flow_suite(starts: np.ndarray, c: np.ndarray, grad_tol: float):
    """Every descent from the starts must converge and land on a sign
    pattern of product +1, checked here apart from _classify's own test.
    Residual reported is the worst final gradient norm."""
    _, _, norms, converged, patterns = _flows(starts, c, grad_tol)
    norms = norms.tolist()
    failures = sum(
        not (ok and pattern is not None and math.prod(pattern) == 1)
        for ok, pattern in zip(converged.tolist(), patterns)
    )
    return SuiteResult(
        "flow-classification",
        failures == 0,
        max(norms, default=0.0),
        grad_tol,
        detail=f"{len(norms)} descents, {failures} failures",
    )


def run_all_suites(n: int, samples: int, seed: int = 0, c=None, grad_tol: float = 1e-8) -> list:
    """The four cross-check suites, in fixed order, for the weights c
    (default_costs(n) when None) at `samples` Haar points drawn from
    default_rng(seed). ValueError unless n >= 1, the weights pass the
    descent's rule, seed >= 0 and samples >= 1."""
    c = validate_costs(default_costs(n) if c is None else c, n=n)
    _check_descent(c, grad_tol)
    _check_draw(seed, samples)
    return _suites(_haar(n, samples, seed), c, grad_tol)


def _suites(starts: np.ndarray, c: np.ndarray, grad_tol: float) -> list:
    """run_all_suites on the (S, n, n) stack of starts; checks nothing."""
    # Overflow near 1e308 fails a suite through its non-finite residuals.
    with np.errstate(over="ignore", invalid="ignore"):
        return [
            _gradient_suite(starts, c),
            _hessian_suite(starts, c),
            _index_suite(c),
            _flow_suite(starts, c, grad_tol),
        ]
