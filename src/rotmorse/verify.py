"""Cross-checking suites: finite-difference oracles against the closed-form
derivatives, exact index agreement, and flow-based recovery of the
minimum, all for one admissible weight vector. run_all_suites is the entry
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
Frobenius product <diag(c) @ X, B^T>, f(B @ X) is <X @ diag(c), B^T>, and
the transpose of a Givens curve at h is the curve at -h, so the finite
differences read the objective at rotated points as one matrix product of
the weighted points against the stack of the 2d curves at +-h, without
forming those points. Each finite-difference suite builds that stack
once and drops it on return. _fd_gradient multiplies diag(c) @ A and
A @ diag(c), and _fd_tangent_hessian forms the 2d points A @ B_p(+-h) by
stacked matrix products, weights them in place and multiplies them. The
index suite reads every pattern's tangent Hessian off the _tangent_hessian
of the n unit diagonal matrices, taken in blocks, and proves the three
indices equal at all 2^(n-1) patterns from the four sign cases of each
pair; its residual counts the pairs with a failing case. _pattern_maxima
bounds the zero band, with parity exceptions at n = 2 and n = 4. Stacked
matmul makes one BLAS call of the same shapes per point, so every value
has the bits of the one-point-at-a-time loops.

Oracle settings: _suites runs the gradient, Hessian and index suites on
c * k, k = patterns._scale(c) the power of two that _flows scales by, so
nothing overflows and, f being linear in c, no verdict depends on the
weights' units. The gradient suite differences with step
_GRADIENT_STEP = 1e-5 and passes at a worst residual of
1e-7 * _weight_scale(c), the Hessian suite with _HESSIAN_STEP = 1e-4 at
1e-4 * _weight_scale(c), exactly 1e-7 and 1e-4 at the default weights
1..n: the finite-difference errors grow with the weights' top. Both
report residual and threshold divided by k, which are their bits at c
wherever nothing under- or overflows there. The flow suite counts the
descents, each capped at riemannian._MAX_ITERATIONS = 100_000 trials,
that riemannian._classify does not chart at the minimum; grad_tol sets
only where a descent stops.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .critical import _hessian_diagonal, default_costs, validate_costs
from .patterns import _check_descent, _check_draw, _scale, _top
from .riemannian import _banded_indices, _blocks, _curve_derivatives, _flows, _tangent_hessian
from .rotations import _haar, _pair_arrays, givens_curve, pair_count, pair_indices


_GRADIENT_STEP = 1e-5
_GRADIENT_THRESHOLD = 1e-7
_HESSIAN_STEP = 1e-4
_HESSIAN_THRESHOLD = 1e-4


def _curve_stack(n: int, h: float) -> np.ndarray:
    """(2d, n, n) stack of givens_curve(p, h, n) over pair_indices(n), then
    of their transposes: givens_curve(p, -h, n), bit for bit."""
    B = np.array([givens_curve(p, h, n) for p in pair_indices(n)]).reshape(-1, n, n)
    return np.concatenate([B, B.transpose(0, 2, 1)])


def _fd_gradient(A: np.ndarray, c: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Central differences along every rotation-plane curve of both
    families (as in curve_derivatives) at each point of an (S, n, n) stack:
    (S, 2, d), the right family then the left, pair order. B is
    _curve_stack(n, _GRADIENT_STEP).

    f is linear in the matrix entries, so f(A @ B) = <diag(c) @ A, B^T>_F
    and f(B @ A) = <A @ diag(c), B^T>_F, and B_p(h)^T = B_p(-h): column k
    of one product with the flattened B is the objective along curve k at
    the opposite step.
    """
    n, d, h = c.size, pair_count(c.size), _GRADIENT_STEP
    M = np.stack([c[:, None] * A, A * c], axis=1)
    f = M.reshape(len(A), 2, n * n) @ B.reshape(2 * d, n * n).T
    return (f[..., d:] - f[..., :d]) / (2.0 * h)


def _fd_tangent_hessian(A: np.ndarray, c: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Second-order mixed central differences along curve pairs at each
    point of an (S, n, n) stack: (S, d, d). B is
    _curve_stack(n, _HESSIAN_STEP).

    Entry (p, q) approximates d^2/dtheta dphi of the objective along
    A @ B_p(theta) @ B_q(phi) at zero, as
    (((f++ - f+-) - f-+) + f--) / (4 h^2) with f+- = f((A @ B_p(h)) @ B_q(-h)).
    Only the 2d points A @ B_p(+-h) are formed, and scaled by diag(c) in
    place; one product with the flattened B gives the objective at all
    (2d)^2 points, as in _fd_gradient.
    """
    n, d, h = c.size, pair_count(c.size), _HESSIAN_STEP
    X = A[:, None] @ B
    X *= c[:, None]
    f = X.reshape(len(X), 2 * d, n * n) @ B.reshape(2 * d, n * n).T
    # f[:, i, p, j, q] is f((A @ B_p(+-h)) @ B_q(-+h)): index 0 of i picks
    # +h, and index 0 of j picks -h, the step of the transposed curve.
    (fpm, fpp), (fmm, fmp) = f.reshape(len(X), 2, d, 2, d).transpose(1, 3, 0, 2, 4)
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
    """patterns._top(c) / n: exactly 1.0 at the default weights 1..n. The
    finite differences' truncation and rounding errors both grow with the
    top, so the oracle thresholds are the fixed constants times this."""
    return _top(c) / c.size


def _gradient_suite(starts: np.ndarray, c: np.ndarray) -> SuiteResult:
    """Closed-form curve derivatives vs central differences at every start,
    along both curve families, in blocks cut by the largest temporary per
    point: the two weighted copies of _fd_gradient, 16 n^2 bytes."""
    B = _curve_stack(c.size, _GRADIENT_STEP)
    worst = _worst(
        _fd_gradient(A, c, B) - np.stack([_curve_derivatives(A, c, False), _curve_derivatives(A, c, True)], 1)
        for A in (starts[block] for block in _blocks(len(starts), 16 * c.size**2))
    )
    threshold = _GRADIENT_THRESHOLD * _weight_scale(c)
    return SuiteResult("gradient-fd", worst <= threshold, worst, threshold)


def _hessian_suite(starts: np.ndarray, c: np.ndarray) -> SuiteResult:
    """Bilinear-form Hessian vs second-order central differences at every
    start, in blocks cut by the largest temporary per point: the 2d rotated
    points of _fd_tangent_hessian, 16 d n^2 bytes."""
    B = _curve_stack(c.size, _HESSIAN_STEP)
    worst = _worst(
        _tangent_hessian(starts[block], c) - _fd_tangent_hessian(starts[block], c, B)
        for block in _blocks(len(starts), 16 * pair_count(c.size) * c.size**2)
    )
    threshold = _HESSIAN_THRESHOLD * _weight_scale(c)
    return SuiteResult("hessian-fd", worst <= threshold, worst, threshold)


def _index_suite(c: np.ndarray) -> SuiteResult:
    """Formula index == Hessian-diagonal index == tangent-Hessian index, for
    every admissible pattern, proved pair by pair. The residual is the
    number of pairs with a failing sign case, out of d.

    _tangent_hessian is linear in M = diag(c) @ A, and M is diagonal at a
    pattern eps, so H(eps) = sum_k eps_k T_k, T being the Hessians at the
    unit diagonal matrices E_kk. If every off-diagonal entry of T is 0.0,
    every H(eps) is diagonal, with diagonal eps @ t for t = diag(T); if
    moreover column p of t is 0.0 outside pair p's two rows, entry p is
    eps_a t[a, p] + eps_b t[b, p], rounded once. All three routes are then
    sums over pairs of a function of (eps_a, eps_b): [eps_b = +1], the sign
    of _hessian_diagonal's entry and the sign of that entry of eps @ t. The
    suite evaluates them on the rows of _covering_signs, which give every
    pair all four sign cases; a case passes when the three agree and its
    entry is finite and outside numeric_index's relative zero band. The
    band compares a pattern's smallest entry with its largest, so each
    entry goes through _banded_indices beside _pattern_maxima's bound, the
    largest entry a pattern with that pair's sign product can carry. Every
    case passing is then every pattern passing. The cases of product -1 at
    n = 2, where no pattern has them, pass at every admissible weights.
    """
    n, d = c.size, pair_count(c.size)
    E = np.eye(n)[:, :, None] * np.eye(n)
    t = np.empty((n, d))
    off = 0
    for block in _blocks(n, 8 * d * d):
        T = _tangent_hessian(E[block], c)
        t[block] = T.diagonal(0, -2, -1)
        off += np.count_nonzero(T) - np.count_nonzero(t[block])
    iu, ju = _pair_arrays(n)
    pairs = np.arange(d)
    stray = t.copy()
    stray[iu, pairs] = stray[ju, pairs] = 0.0
    signs = _covering_signs(n)
    last = signs[:, ju]
    product = (signs[:, iu] != last).astype(int)  # 0 for +1, 1 for -1
    by_count = _hessian_diagonal(signs, c) < 0
    h = signs @ t
    size = np.empty((d, 2))
    size[pairs, product] = np.abs(h)
    band = np.stack([h, _pattern_maxima(size, n)[pairs, product]], axis=-1)
    usable = (off == 0) & ~stray.any(axis=0) & np.isfinite(h)
    by_hessian = np.where(usable, _banded_indices(band), -1)
    fails = ((last == 1) != by_count) | (by_count != by_hessian)
    failing = int(np.count_nonzero(fails.any(axis=0)))
    return SuiteResult(
        "index-equivalence", failing == 0, float(failing), 0.0, detail=f"{2 ** (n - 1)} patterns"
    )


def _covering_signs(n: int) -> np.ndarray:
    """(2 + 2 ceil(log2 n), n) float sign vectors: all +1, then
    row k + 1 with -1 where bit k of the position is set, and the negations
    of those. Two positions differ in some bit, so every pair meets all
    four sign cases."""
    bits = np.arange(n) >> np.arange((n - 1).bit_length())[:, None] & 1
    half = 1.0 - 2.0 * np.vstack([np.zeros(n), bits])
    return np.vstack([half, -half])


def _pattern_maxima(size: np.ndarray, n: int) -> np.ndarray:
    """(d, 2) bounds from the (d, 2) table of entry sizes, size[q, k] at pair
    q and sign product (+1, -1)[k]: bound[p, k] is the largest size[q, k']
    that a pattern with pair p at product k can also carry.

    A pattern carries every (q, k') but (p, 1 - k) beside (p, k), except at
    n = 4: there the sign products of complementary pairs multiply to the
    det, +1, so the pair d - 1 - p cannot carry 1 - k either. At n = 2 no
    pattern has the product -1, and the bar leaves those two cases bounded
    by their own size. With at most two entries barred, the bound is among
    the three largest entries.
    """
    d = len(size)
    p, k = np.arange(d)[:, None, None], np.arange(2)[:, None]
    twin = d - 1 - p if n == 4 else p
    flat = size.ravel()
    top = np.argsort(flat)[::-1][:3]
    q, product = np.divmod(top, 2)
    allowed = (product == k) | ((q != p) & (q != twin))
    return np.max(np.where(allowed, flat[top], 0.0), axis=-1, initial=0.0)


def _flow_suite(starts: np.ndarray, c: np.ndarray, grad_tol: float):
    """Every descent from the starts must end at the minimum, the index-0
    pattern eps0 = ((-1)^(n-1), -1, ..., -1), as the basin theorem says of
    almost every start. The residual counts the limits whose _flows pattern,
    _classify's chart certificate, is not eps0. eps0 is built here, apart
    from rotations._chart, so it also checks _chart's det -1 guard."""
    *_, patterns = _flows(starts, c, grad_tol)
    minimum = ((-1) ** (c.size - 1),) + (-1,) * (c.size - 1)
    failures = sum(pattern != minimum for pattern in patterns)
    detail = f"{len(patterns)} descents, {failures} failures"
    return SuiteResult("flow-classification", failures == 0, float(failures), 0.0, detail=detail)


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
    """run_all_suites on the (S, n, n) stack of starts; checks nothing.
    The gradient, Hessian and index suites run on c * k, k = _scale(c),
    and the flow suite on c, which _flows scales by the same k."""
    k = _scale(c)
    scaled = c * k
    fd = (_gradient_suite(starts, scaled), _hessian_suite(starts, scaled))
    return [
        *(r._replace(max_residual=r.max_residual / k, threshold=r.threshold / k) for r in fd),
        _index_suite(scaled),
        _flow_suite(starts, c, grad_tol),
    ]
