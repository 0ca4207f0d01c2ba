import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from rotmorse import riemannian
from rotmorse.cli import main
from rotmorse.critical import (
    _hessian_diagonal,
    _pattern_table,
    critical_value,
    default_costs,
    embed_pattern,
    hessian_diagonal,
    index_by_formula,
    validate_costs,
)
from rotmorse.patterns import _check_descent, sign_patterns
from rotmorse.riemannian import (
    DegenerateHessianError,
    _numeric_indices,
    _tangent_hessian,
    classify_rotation,
    curve_derivatives,
    gradient_flow,
    numeric_index,
    objective,
    tangent_hessian,
)
from rotmorse.rotations import _haar, generator, givens_curve, haar_sample, pair_indices, retract
from rotmorse.verify import _fd_gradient, _fd_tangent_hessian

from helpers import random_costs, reference_classify


def test_objective_at_identity():
    assert objective(np.eye(3), [1, 2, 3]) == 6.0


def test_objective_matches_critical_value_bitwise():
    for n in (2, 3, 5, 8):
        c = default_costs(n)
        for eps in sign_patterns(n):
            assert objective(embed_pattern(eps), c) == critical_value(eps, c)


def test_objective_at_huge_weights_is_never_nan():
    # Near the top of the float64 range a partial sum of the weighted trace
    # overflows, and two can meet as inf - inf. objective then sums again as
    # critical_value does: with no warning, never NaN, and any infinity has
    # critical_value's sign. A value whose first sum is finite keeps its bits.
    # The table's values carry critical_value's bits (test_critical).
    c = np.linspace(1e308, 1.7e308, 16)
    signs, _, values, _ = _pattern_table(16, c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps, exact in zip(signs, values.tolist()):
            A = np.diag(eps)
            value = objective(A, c)
            assert not math.isnan(value), eps
            with np.errstate(all="ignore"):
                first = float(riemannian._objective(A, c))
            if math.isfinite(first):
                assert value.hex() == first.hex(), eps
            elif math.isinf(value):
                assert math.copysign(1.0, value) == math.copysign(1.0, exact), eps


def test_objective_quarter_turn_vanishes():
    assert abs(objective(givens_curve((1, 2), np.pi / 2, 2), [1, 2])) <= 1e-15


def test_objective_dimension_mismatch():
    with pytest.raises(ValueError):
        objective(np.eye(3), [1, 2])


def test_gradient_exactly_zero_at_patterns():
    for n in (2, 3, 4, 6):
        c = default_costs(n)
        for eps in sign_patterns(n):
            A = embed_pattern(eps)
            for side in ("right", "left"):
                assert np.all(curve_derivatives(A, c, side=side) == 0.0)


def test_gradient_quarter_turn_value():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert_array_equal(curve_derivatives(A, [1, 2]), [-3.0])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        A = haar_sample(n, rng)
        c = random_costs(n, rng)
        for side, left in (("right", False), ("left", True)):
            resid = np.abs(curve_derivatives(A, c, side=side) - _fd_gradient(A[None], c, left)[0])
            worst = max(worst, float(resid.max()))
    assert worst <= 1e-7


@pytest.mark.parametrize("n", [1, 3])
def test_curve_derivatives_rejects_bad_side(n):
    with pytest.raises(ValueError, match="side"):
        curve_derivatives(np.eye(n), default_costs(n), side="bogus")


def test_hessian_diagonal_at_pattern():
    H = tangent_hessian(embed_pattern((-1, 1, -1)), [1, 2, 3])
    assert_array_equal(H, np.diag([-1.0, 4.0, 1.0]))


def test_hessian_at_identity_n2():
    assert_array_equal(tangent_hessian(np.eye(2), [1, 2]), [[-3.0]])


def test_hessian_matches_definition():
    # entry (p, q) is the objective applied to A @ E_p @ E_q
    rng = np.random.default_rng(24)
    for n in range(1, 9):
        A = haar_sample(n, rng)
        c = random_costs(n, rng)
        pairs = pair_indices(n)
        expected = np.array(
            [[objective(A @ generator(p, n) @ generator(q, n), c) for q in pairs] for p in pairs]
        ).reshape(len(pairs), len(pairs))
        assert np.abs(tangent_hessian(A, c) - expected).max(initial=0.0) <= 1e-12


def test_hessian_exactly_diagonal_at_every_pattern():
    rng = np.random.default_rng(25)
    for n in range(1, 8):
        c = random_costs(n, rng)
        for eps in sign_patterns(n):
            H = tangent_hessian(embed_pattern(eps), c)
            assert_array_equal(H, np.diag(hessian_diagonal(eps, c)))


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = haar_sample(n, rng)
        c = random_costs(n, rng)
        resid = np.abs(tangent_hessian(A, c) - _fd_tangent_hessian(A[None], c)[0]).max()
        worst = max(worst, float(resid))
    assert worst <= 1e-4


def test_numeric_index_of_diagonal():
    assert numeric_index(np.diag([-1.0, 4.0, 1.0])) == 1


def test_numeric_index_all_plus_is_top():
    H = tangent_hessian(embed_pattern((1, 1, 1)), [1, 2, 3])
    assert numeric_index(H) == 3


def test_numeric_index_matches_formula_exhaustive():
    rng = np.random.default_rng(23)
    for n in range(1, 7):
        c = random_costs(n, rng)
        for eps in sign_patterns(n):
            assert numeric_index(tangent_hessian(embed_pattern(eps), c)) == index_by_formula(eps)


def test_numeric_index_degenerate_raises():
    with pytest.raises(DegenerateHessianError):
        numeric_index(np.diag([1.0, 1e-12]))


def test_numeric_index_zero_band_is_relative():
    for scale in (1e-300, 1e-9, 1.0, 1e300, 4e307):
        assert numeric_index(scale * np.diag([-1.0, 4.0, 1.0])) == 1
    for H in (np.zeros((3, 3)), 1e-300 * np.diag([1.0, 1e-12])):
        with pytest.raises(DegenerateHessianError):
            numeric_index(H)
    # a degenerate matrix of a stack is marked -1 and leaves the others alone
    stack = np.stack([np.diag([-1.0, 4.0]), np.diag([1.0, 1e-12])])
    assert _numeric_indices(stack).tolist() == [1, -1]


@pytest.mark.parametrize("c", [[0.1e308, 0.2e308, 0.3e308, 0.6e308], [0.2e308, 0.5e308, 0.8e308]])
def test_numeric_index_of_a_huge_finite_hessian_is_the_formula(c):
    # Every Hessian here is finite, but H + H^T is not: unscaled, patterns of
    # index 6, 1 and 5 read 0 at the first weights, and the second weights
    # made eigvalsh raise LinAlgError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in sign_patterns(len(c)):
            H = tangent_hessian(embed_pattern(eps), c)
            assert np.isfinite(H).all()
            assert numeric_index(H) == index_by_formula(eps), eps


def test_stacked_hessian_kernels_equal_single_matrix_calls():
    rng = np.random.default_rng(26)
    for n in range(1, 9):
        c = random_costs(n, rng)
        haar = np.stack([haar_sample(n, rng) for _ in range(5)])
        embedded = np.stack([embed_pattern(eps) for eps in sign_patterns(n)])
        for stack in (haar, embedded):
            H = _tangent_hessian(stack, c)
            single = [tangent_hessian(A, c) for A in stack]
            assert H.shape == (len(stack),) + single[0].shape
            assert all(np.array_equal(a, b) for a, b in zip(H, single))
            assert _numeric_indices(H).tolist() == [numeric_index(h) for h in single]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_tangent_hessian_commutes_with_sign_conjugation(n, seed):
    # diag(c) D A D = D diag(c) A D for every diagonal D of +-1 entries, and
    # each entry of H is a signed sum of entries of diag(c) A. So entry
    # ((a,b), (g,d)) only changes sign, by D_a D_b D_g D_d: H(D A D) = S H S
    # with S = diag(D_a D_b) over the pairs, bit for bit.
    rng = np.random.default_rng(seed)
    c = random_costs(n, rng)
    A = haar_sample(n, rng)
    d = np.array(list(itertools.product((1.0, -1.0), repeat=n)))  # (2^n, n)
    S = np.array([[D[a - 1] * D[b - 1] for a, b in pair_indices(n)] for D in d])
    H = _tangent_hessian(A, c)
    conjugated = _tangent_hessian(d[:, :, None] * A * d[:, None, :], c)
    assert np.array_equal(conjugated, S[:, :, None] * H * S[:, None, :])


def test_numeric_index_rejects_nonsquare():
    with pytest.raises(ValueError):
        numeric_index(np.ones((2, 3)))
    for H in (np.full((2, 2), np.nan), np.diag([-1.0, np.inf])):
        with pytest.raises(ValueError, match="finite"):
            numeric_index(H)


def test_classify_rotation():
    assert classify_rotation(np.diag([1.0, -1.0, -1.0])) == (1, -1, -1)
    assert classify_rotation(np.diag([1.0, -1.0])) is None  # det -1
    assert classify_rotation(haar_sample(3, 1)) is None  # generic point
    wiggled = np.diag([1.0, 1.0]) + 1e-8
    assert classify_rotation(wiggled) == (1, 1)
    assert classify_rotation(np.full((2, 2), np.nan)) is None
    assert classify_rotation(np.array([[1.0, np.nan], [np.nan, 1.0]])) is None
    for shape in ((2, 3), (3,)):
        with pytest.raises(ValueError, match="square"):
            classify_rotation(np.ones(shape))
    with pytest.raises(ValueError, match="n >= 1"):
        classify_rotation(np.zeros((0, 0)))


@pytest.mark.parametrize("n", range(1, 6))
def test_stacked_classify_equals_per_matrix_classify(n):
    # A mixed stack: every embedded pattern, a det -1 diagonal, an entry
    # moved just inside and just outside the 1e-6 band, NaN entries and
    # Haar points. Each row must classify as its matrix does alone, and the
    # rows built for it must land on the stated side of the band.
    cases = [(embed_pattern(eps), True) for eps in sign_patterns(n)]
    cases.append((np.diag([-1.0] + [1.0] * (n - 1)), False))
    for delta in (0.999e-6, -0.999e-6, 1.001e-6, -1.001e-6):
        for i, j in ((0, n - 1), (n - 1, n - 1)):
            A = np.eye(n)
            A[i, j] += delta
            cases.append((A, abs(delta) < 1e-6))
    nan_entry = np.eye(n)
    nan_entry[0, n - 1] = np.nan
    cases += [(nan_entry, False), (np.full((n, n), np.nan), False)]
    stack = np.concatenate([np.stack([A for A, _ in cases]), _haar(n, 5, 40 + n)])
    signs, found = riemannian._classify(stack)
    rows = _patterns((signs, found))
    assert rows == [classify_rotation(A) for A in stack]
    assert rows == [reference_classify(A) for A in stack]
    assert found[: len(cases)].tolist() == [expected for _, expected in cases]


@pytest.mark.parametrize("grad_tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_flow_rejects_bad_tolerance(grad_tol):
    with pytest.raises(ValueError, match="grad_tol"):
        gradient_flow(np.eye(3), default_costs(3), grad_tol=grad_tol)


def test_flow_rejects_negative_iteration_cap():
    # The cap must be a nonnegative integer as given: 2.5 made 3 trials, nan
    # none and inf left the descent unbounded.
    for cap in (-5, 2.5, math.nan, math.inf, -math.inf, None, "3"):
        with pytest.raises(ValueError, match="max_iterations"):
            gradient_flow(np.eye(3), default_costs(3), max_iterations=cap)
    A0 = haar_sample(3, 12)
    res = gradient_flow(A0, default_costs(3), max_iterations=0)  # a cap of 0 is allowed
    assert res.iterations == 0 and not res.converged
    assert_array_equal(res.final_point, A0)
    # an integral float is that integer
    capped, exact = (gradient_flow(A0, default_costs(3), max_iterations=cap) for cap in (3.0, 3))
    assert capped.iterations == exact.iterations == 3 and not capped.converged
    assert_array_equal(capped.final_point, exact.final_point)


@pytest.mark.parametrize("c", [[0.0, 5e-324, 1.0], [0.0, 1e-200, 1e200]])
def test_flow_refuses_weights_that_tie_once_scaled(c):
    # The descent runs at c*s with max(c*s) in [0.5, 1). There these weights
    # underflow into a tie, (0, 0, 0.5) and (0, 0, about 0.68), on which
    # the direction g / max(|h|, gap) would be 0/0.
    with pytest.raises(ValueError, match="float64 range"):
        gradient_flow(np.eye(3), c)


@pytest.mark.parametrize("c", [[0.0, 1e-323, 1.0], [0.0, 1e-320, 1.0], [1e-300, 1e300, 1.7e308]])
def test_flow_at_the_edge_of_the_float64_range_raises_nothing(c):
    # Still strictly increasing once scaled: every descent ends within a few
    # trials, with no overflow, division by zero or NaN. Underflow of the
    # smallest weight's products stays ignored, as numpy does by default.
    c = validate_costs(c)
    _check_descent(c, 1e-8)
    with np.errstate(all="raise", under="ignore"):
        _, iterations, *_ = riemannian._flows(_haar(3, 20, 0), c, 1e-8)
    assert iterations.max() <= 20


def test_flow_starts_at_minimum():
    res = gradient_flow(embed_pattern((-1, -1, -1, -1)), default_costs(4))
    assert res.iterations == 0 and res.converged
    assert res.classified_pattern == (-1, -1, -1, -1)
    assert res.final_gradient_norm == 0.0


def test_flow_stays_at_identity():
    res = gradient_flow(np.eye(4), default_costs(4))
    assert res.iterations == 0 and res.classified_pattern == (1, 1, 1, 1)


def test_flow_n1_trivial():
    res = gradient_flow(np.eye(1), [1.0])
    assert res.converged and res.classified_pattern == (1,)


def test_flow_limits_are_enumerated_patterns():
    rng = np.random.default_rng(77)
    c = default_costs(3)
    admissible = set(sign_patterns(3))
    for _ in range(50):
        res = gradient_flow(haar_sample(3, rng), c)
        assert res.converged
        assert res.classified_pattern in admissible


@pytest.mark.parametrize(
    "c, seed, start, rises",
    [
        ((1.0, 2.0, 3.0), 4, 0, False),
        ((1.0, 2.0, 3.0, 4.0), 4, 0, False),
        ((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0), 5, 0, False),
        ((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0), 750, 166, True),
        ((1.0, 2.0, 3.0, 3.06), 4, 0, False),  # smallest gap 2% of max(c)
    ],
    ids=["3-4", "4-4", "8-5", "7-750-166", "gap-2pct"],
)
def test_flow_descent_is_monotone_up_to_rounding(c, seed, start, rises):
    # The descent is deterministic, so the runs capped at k = 0, 1, ...
    # iterations end at the points of one trajectory f_0, f_1, .... Each
    # value is at most the one before it plus the objective's rounding
    # n*eps*max(c), exactly. From start 166 of _haar(7, 300, 750) one
    # accepted step does raise the objective, by less than that allowance.
    c = np.array(c)
    n = c.size
    A0 = _haar(n, start + 1, seed)[start]
    res = gradient_flow(A0, c)
    assert res.converged
    capped = [gradient_flow(A0, c, max_iterations=k) for k in range(res.iterations + 1)]
    assert [r.iterations for r in capped] == list(range(res.iterations + 1))
    assert capped[-1].final_point.tobytes() == res.final_point.tobytes()
    f = [objective(r.final_point, c) for r in capped]
    slack = n * np.finfo(float).eps * c[-1]
    assert all(f[k + 1] <= f[k] + slack for k in range(len(f) - 1))
    assert any(f[k + 1] > f[k] for k in range(len(f) - 1)) == rises


def test_flow_off_manifold_raises():
    with pytest.raises(ValueError):
        gradient_flow(np.ones((3, 3)), default_costs(3))


def test_flow_iteration_cap_is_nonconvergence_not_error():
    rng = np.random.default_rng(6)
    res = gradient_flow(haar_sample(3, rng), default_costs(3), max_iterations=2)
    assert not res.converged and res.iterations == 2


def test_flow_unreachable_tolerance():
    # No tolerance of 1e-300 is reached from this start: the descent stops at
    # the gradient's rounding floor n*eps^2*max(c), long before the cap,
    # with a norm that is rounding noise but not exactly 0. (Some starts do
    # round to exactly 0 and then count as converged at any tolerance.)
    rng = np.random.default_rng(8)
    c = default_costs(4)
    res = gradient_flow(haar_sample(4, rng), c, grad_tol=1e-300, max_iterations=500)
    assert not res.converged
    assert res.iterations < 500
    assert 0.0 < res.final_gradient_norm <= 4 * np.finfo(float).eps ** 2 * c[-1]


@pytest.mark.parametrize("n", range(3, 9))
def test_flow_stops_at_the_rounding_floor(n):
    # Below n*eps^2*max(c) the gradient norm is rounding noise: a tolerance
    # under that floor stops there, long before the iteration cap, and
    # converged still means norm <= tol (a few norms round to exactly 0).
    c = default_costs(n)
    floor = n * np.finfo(float).eps ** 2 * c[-1]
    _, iterations, norms, converged, _ = riemannian._flows(_haar(n, 20, n), c, 1e-300)
    assert iterations.max() < 500
    assert np.all(norms <= floor)
    assert converged.tolist() == (norms <= 1e-300).tolist()


@pytest.mark.parametrize("n", [3, 4, 8])
@pytest.mark.parametrize("scale", [1e6, 1e9, 1e15, 1e20])
def test_flow_converges_at_large_weights_above_the_floor(n, scale):
    # At these weights the floor n*eps^2*max(c) stays far below 1e-8, and
    # the direction g / w and the step floor are dimensionless, so the unit
    # first trial is made at 1e20 too.
    c = scale * default_costs(n)
    _, _, norms, converged, patterns = riemannian._flows(_haar(n, 20, n), c, 1e-8)
    assert converged.all() and np.all(norms <= 1e-8)
    assert None not in patterns


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_preconditioner_is_gradient_related(n, seed):
    # The descent divides the gradient by w, the sizes of the Hessian
    # diagonal -(c_a A_aa + c_b A_bb) floored at gap = min(diff(c)). That
    # closed form on diag(A) is the diagonal of the tangent Hessian at A,
    # bit for bit. |A_ii| <= 1 bounds w by c_a + c_b < 2 max(c), so
    # <g, p> >= |g|^2 / (2 max(c)): p is gradient related at every point.
    rng = np.random.default_rng(seed)
    c = random_costs(n, rng)
    A = _haar(n, 5, seed)
    diagonal = _hessian_diagonal(A.diagonal(0, -2, -1), c)
    assert np.array_equal(diagonal, _tangent_hessian(A, c).diagonal(0, -2, -1))
    gap = np.diff(c).min()
    w = np.maximum(np.abs(diagonal), gap)
    assert np.all((gap <= w) & (w <= 2.0 * c[-1]))
    g = np.array([curve_derivatives(X, c) for X in A])
    assert np.all(np.vecdot(g, g / w) >= np.vecdot(g, g) / (2.0 * c[-1]))


@pytest.mark.parametrize("c", [(1e-3, 1.0, 1e3), (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 100.0)])
def test_flow_is_fast_on_skewed_weights(c):
    # The preconditioned step is Newton's near every limit whatever the
    # spread of the weights, so skewed weights cost no more trials than
    # c = 1..n.
    c = np.array(c)
    _, iterations, _, converged, patterns = riemannian._flows(_haar(c.size, 200, 5), c, 1e-8)
    assert converged.all()
    assert iterations.max() <= 30
    assert None not in patterns and {index_by_formula(eps) for eps in patterns} == {0}


def test_flow_is_fast_where_a_monotone_test_would_stall():
    # Near a limit the objective changes by less than its rounding, so a
    # strictly monotone Armijo test refuses steps there and halves the
    # trial again and again (48 trials on one of these starts); the
    # allowance n*eps*max(c) keeps every descent short.
    _, iterations, _, converged, _ = riemannian._flows(_haar(7, 300, 750), default_costs(7), 1e-8)
    assert converged.all()
    assert iterations.max() <= 20


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_flow_commutes_with_sign_conjugation(n, seed):
    # f reads only diag(A), which A -> D A D keeps for every diagonal D of
    # +-1 entries, and D A D stays in SO(n). Each gradient component only
    # changes sign, so the descent from D A D is D (descent from A) D, bit
    # for bit, with the same iterations and norms.
    rng = np.random.default_rng(seed)
    c = random_costs(n, rng)
    starts = _haar(n, 3, seed)
    d = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    flips = (d[:, :, None] * d[:, None, :])[:, None]  # (2^n, 1, n, n), identity first
    conjugated = (flips * starts).reshape(-1, n, n)
    points, iterations, norms, converged, patterns = riemannian._flows(conjugated, c, 1e-8)
    points = points.reshape(flips.shape[0], len(starts), n, n)
    assert np.array_equal(points, flips * points[0])
    for rows in (iterations, norms, converged):
        rows = rows.reshape(flips.shape[0], len(starts))
        assert np.array_equal(rows, np.broadcast_to(rows[0], rows.shape))
    assert patterns == patterns[: len(starts)] * flips.shape[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(-60, 60), st.integers(0, 2**32 - 1))
def test_flow_is_exactly_invariant_under_power_of_two_scaling(n, k, seed):
    # f is linear in c and no constant of the line search is absolute, so
    # scaling the weights and the tolerance by 2^k (exact in floating point)
    # scales every objective value and gradient by 2^k and every step by
    # 2^-k: the descent takes the same steps to the same points, bit for bit,
    # with its gradient norms times 2^k. This holds for _descend itself, and
    # so for _flows, whatever power of two it runs _descend at.
    rng = np.random.default_rng(seed)
    c, scale = random_costs(n, rng), 2.0**k
    starts = _haar(n, 3, seed)
    points, iterations, norms, converged, patterns = riemannian._flows(starts, c, 1e-8)
    scaled = riemannian._flows(starts, scale * c, scale * 1e-8)
    assert scaled[0].tobytes() == points.tobytes()
    assert np.array_equal(scaled[1], iterations)
    assert np.array_equal(scaled[2], scale * norms)
    assert np.array_equal(scaled[3], converged)
    assert scaled[4] == patterns
    descents = []
    for weights, tol in ((c, 1e-8), (scale * c, scale * 1e-8)):
        A = starts.copy()
        descents.append((A, *riemannian._descend(A, weights, tol, 100_000)))
    (A, its, gnorm), (A_scaled, its_scaled, gnorm_scaled) = descents
    assert A_scaled.tobytes() == A.tobytes()
    assert np.array_equal(its_scaled, its)
    assert np.array_equal(gnorm_scaled, scale * gnorm)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_descent_makes_at_most_max_iterations_trials(n, max_iterations, seed):
    # A strict Armijo constant refuses many trials. Each refused trial is a
    # null step that counts as an iteration, so max_iterations bounds every
    # trial the descent makes, not only its accepted steps.
    c = random_costs(n, np.random.default_rng(seed))
    cayley, trials = riemannian._cayley, []

    def counting_cayley(A, coeffs, step):
        trials[-1] += len(A)
        return cayley(A, coeffs, step)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(riemannian, "_ARMIJO", 0.9)
        mp.setattr(riemannian, "_cayley", counting_cayley)
        for A0 in _haar(n, 4, seed):  # one start per batch, so rows count its trials
            trials.append(0)
            _, iterations, *_ = riemannian._flows(A0[None], c, 1e-8, max_iterations)
            assert trials[-1] <= max_iterations
            assert iterations[0] <= max_iterations


def _json_round_trip(res):
    """A FlowResult through json, its final point as nested lists."""
    return json.loads(json.dumps(res._replace(final_point=res.final_point.tolist())._asdict()))


def test_flow_result_json_round_trip(tmp_path, capsys):
    # The fields the CLI emits per sample are JSON-native: numpy scalars
    # (np.bool_, np.int64) would make json.dumps raise.
    d = _json_round_trip(gradient_flow(np.eye(2), default_costs(2)))
    assert d["final_point"] == [[1.0, 0.0], [0.0, 1.0]]
    assert d["classified_pattern"] == [1, 1]
    assert d["converged"] is True
    # flow --start writes its one sample as gradient_flow's FlowResult
    start = haar_sample(3, np.random.default_rng(8))
    path = tmp_path / "start.json"
    path.write_text(json.dumps(start.tolist()))
    assert main(["flow", "--n", "3", "--start", str(path), "--format", "json"]) == 0
    (sample,) = json.loads(capsys.readouterr().out)["samples"]
    assert sample == _json_round_trip(gradient_flow(start, default_costs(3)))


def _reference_flow(A0, c, grad_tol=1e-8, max_iterations=100_000):
    """The descent loop of gradient_flow, rebuilt from public functions and
    the module's line-search constants: every evaluation validates again.
    Each iteration makes one trial along p = g / w, w being the sizes of
    the Hessian diagonal -(c_a A_aa + c_b A_bb) floored at the smallest gap
    between weights, accepted against the current value plus the rounding
    allowance n*eps*max(c). The trial step is 1 after an accepted step.
    A refused trial is a null step: the point and its value stay, and the
    next trial is the refused step halved. Returns the final point, the
    iteration count, the gradient norm, the classified pattern and the
    number of null steps."""
    c = np.asarray(c, dtype=float)
    A = np.array(A0, dtype=float)
    eps = np.finfo(float).eps
    stop = max(grad_tol, len(c) * eps * eps * c[-1])
    slack = len(c) * eps * c[-1]
    f = objective(A, c)
    g = curve_derivatives(A, c)
    gnorm = float(np.linalg.norm(g))
    iterations = null_steps = 0
    h = 1.0
    while gnorm > stop and iterations < max_iterations:
        d = c * np.diagonal(A)
        diagonal = [d[a - 1] + d[b - 1] for a, b in pair_indices(len(c))]
        p = g / np.maximum(np.abs(diagonal), np.diff(c).min())
        step = min(h, math.sqrt(2.0) / float(np.linalg.norm(p)))
        trial = retract(A, -p, step)
        f_trial = objective(trial, c)
        iterations += 1
        if f_trial > f + slack - riemannian._ARMIJO * step * float(np.dot(g, p)):
            h = step * riemannian._BACKTRACK
            null_steps += 1
            continue
        A, f = trial, f_trial
        h = 1.0
        g = curve_derivatives(A, c)
        gnorm = float(np.linalg.norm(g))
    return A, iterations, gnorm, classify_rotation(A), null_steps


def test_flow_equals_reference_loop_exactly():
    rng = np.random.default_rng(31)
    unclassified = 0
    for n in range(1, 6):
        for k in range(-6, 3):
            c = 10.0**k * default_costs(n)
            A0 = haar_sample(n, rng)
            A, iterations, gnorm, pattern, _ = _reference_flow(A0, c)
            res = gradient_flow(A0, c)
            assert np.array_equal(res.final_point, A)
            assert res.iterations == iterations
            assert res.final_gradient_norm == gnorm
            assert res.classified_pattern == pattern
            unclassified += pattern is None
    assert unclassified > 0  # the small-weight starts stop short of a pattern


def _rotated_objective(X, Q, c, left=False):
    """f(X @ Q), or f(Q @ X) if left, as one np.dot by the linearity of f in
    the matrix entries: <X, diag(c) Q^T>_F, or <X, (diag(c) Q)^T>_F."""
    W = (c[:, None] * Q).T if left else c[:, None] * Q.T
    return np.dot(X.ravel(), W.ravel())


def test_fd_oracles_equal_reference_exactly():
    # The stacked kernels on a stack of six points (A, A^T and four more
    # Haar points) against one-point-at-a-time loops of np.dot. The kernels
    # cut no blocks, so all six points go through one stacked pass; the
    # suites of verify cut the blocks (four points at n = 8 for the Hessian).
    rng = np.random.default_rng(32)
    h1, h2 = 1e-5, 1e-4
    for n in range(1, 9):
        A = haar_sample(n, rng)
        c = random_costs(n, rng)
        stack = np.stack([A, A.T, *(haar_sample(n, rng) for _ in range(4))])
        S = len(stack)
        pairs = pair_indices(n)
        plus = [givens_curve(p, h1, n) for p in pairs]
        minus = [givens_curve(p, -h1, n) for p in pairs]
        right, left = (
            [
                [
                    (_rotated_objective(X, P, c, side) - _rotated_objective(X, M, c, side))
                    / (2.0 * h1)
                    for P, M in zip(plus, minus)
                ]
                for X in stack
            ]
            for side in (False, True)
        )
        assert np.array_equal(_fd_gradient(stack, c, False), np.array(right).reshape(S, -1))
        assert np.array_equal(_fd_gradient(stack, c, True), np.array(left).reshape(S, -1))
        plus = [givens_curve(p, h2, n) for p in pairs]
        minus = [givens_curve(p, -h2, n) for p in pairs]
        H = np.array(
            [
                [
                    [
                        (
                            _rotated_objective(X @ P, Q, c)
                            - _rotated_objective(X @ P, R, c)
                            - _rotated_objective(X @ M, Q, c)
                            + _rotated_objective(X @ M, R, c)
                        )
                        / (4.0 * h2 * h2)
                        for Q, R in zip(plus, minus)
                    ]
                    for P, M in zip(plus, minus)
                ]
                for X in stack
            ]
        ).reshape(S, len(pairs), len(pairs))
        assert np.array_equal(_fd_tangent_hessian(stack, c), H)


def test_rotated_objective_equals_objective_of_the_product():
    # The linearity identity of the reference loops against the objective
    # of the formed product, within a few ulps of sum |c| (the rotated
    # points' rows and columns have unit norm).
    rng = np.random.default_rng(33)
    for n in range(1, 9):
        c = random_costs(n, rng)
        tol = 4.0 * np.finfo(float).eps * np.abs(c).sum()
        X = haar_sample(n, rng)
        curves = [givens_curve(p, t, n) for p in pair_indices(n) for t in (1e-4, -1e-4)]
        for P in curves:
            assert abs(_rotated_objective(X, P, c) - objective(X @ P, c)) <= tol
            assert abs(_rotated_objective(X, P, c, left=True) - objective(P @ X, c)) <= tol
            for Q in curves:
                assert abs(_rotated_objective(X @ P, Q, c) - objective(X @ P @ Q, c)) <= tol


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 8),
    S=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_fd_oracles_give_each_point_of_a_stack_its_own_bits(n, S, seed):
    rng = np.random.default_rng(seed)
    c = random_costs(n, rng)
    stack = _haar(n, S, rng)
    gradients = [_fd_gradient(stack, c, left) for left in (False, True)]
    H = _fd_tangent_hessian(stack, c)
    for k in range(S):
        for left, G in zip((False, True), gradients):
            assert G[k].tobytes() == _fd_gradient(stack[k : k + 1], c, left)[0].tobytes()
        assert H[k].tobytes() == _fd_tangent_hessian(stack[k : k + 1], c)[0].tobytes()


def _patterns(classified):
    """The classified pattern, or None, of every row of _classify's
    (signs, found)."""
    signs, found = classified
    return [tuple(eps) if ok else None for eps, ok in zip(signs.tolist(), found.tolist())]


def _assert_same_flows(batched, single, grad_tol=1e-8):
    points, iterations, norms, converged, patterns = batched
    assert len(points) == len(patterns) == len(single)
    for k, s in enumerate(single):
        assert points[k].tobytes() == s.final_point.tobytes()
        assert iterations[k] == s.iterations
        assert norms[k] == s.final_gradient_norm
        assert patterns[k] == s.classified_pattern
        assert converged[k] == (norms[k] <= grad_tol) == s.converged


def _one_at_a_time(n, c, samples, seed, grad_tol=1e-8):
    rng = np.random.default_rng(seed)
    return [gradient_flow(haar_sample(n, rng), c, grad_tol) for _ in range(samples)]


@pytest.mark.parametrize("n", [1, 2, 4])
def test_haar_starts_are_seeded_haar_samples_in_order(n):
    rng = np.random.default_rng(17)
    starts = _haar(n, 6, 17)
    assert starts.shape == (6, n, n)
    for A in starts:
        assert A.tobytes() == haar_sample(n, rng).tobytes()
    assert _haar(n, 0, 17).shape == (0, n, n)


@pytest.mark.parametrize("n", range(1, 6))
def test_batched_flows_equal_single_flows(n):
    for k in range(-3, 3):
        c = 10.0**k * default_costs(n)
        seed = 10 * n + k
        batched = riemannian._flows(_haar(n, 5, seed), c, 1e-8)
        _assert_same_flows(batched, _one_at_a_time(n, c, 5, seed))


def test_batched_flows_equal_single_flows_across_blocks(monkeypatch):
    # With a 16 KiB stack budget, 1000 starts span eight blocks of 128
    monkeypatch.setattr(riemannian, "_STACK_BYTES", 1 << 14)
    c = default_costs(4)
    assert len(list(riemannian._blocks(1000, 8 * 4 * 4))) == 8
    batched = riemannian._flows(_haar(4, 1000, 42), c, 1e-8)
    _assert_same_flows(batched, _one_at_a_time(4, c, 1000, 42))
    assert np.all(batched[2] <= 1e-8)


def test_flows_leave_their_starts_unchanged():
    c = default_costs(4)
    starts = _haar(4, 6, 3)
    before = starts.tobytes()
    points, *_ = riemannian._flows(starts, c, 1e-8)
    assert starts.tobytes() == before
    assert not np.shares_memory(points, starts)
    assert points.tobytes() != before


def test_batch_mixes_a_critical_start_with_capped_descents():
    c = default_costs(4)
    rng = np.random.default_rng(9)
    starts = [haar_sample(4, rng), embed_pattern((1, -1, 1, -1)), haar_sample(4, rng)]
    batched = riemannian._flows(np.stack(starts), c, 1e-8, 2)
    _assert_same_flows(batched, [gradient_flow(A, c, max_iterations=2) for A in starts])
    assert batched[1].tolist() == [2, 0, 2]
    assert (batched[2] <= 1e-8).tolist() == [False, True, False]


@pytest.mark.parametrize("max_iterations", [100_000, 465])
def test_backtracking_in_a_batch_matches_the_reference_loop(monkeypatch, max_iterations):
    # A strict Armijo constant refuses some trials, so the samples of one
    # batch take different numbers of null steps. A null step that kept the
    # refused trial's value in place of its point's would change the later
    # tests and steps. Uncapped, these starts take 459-470 trials at n = 4
    # and 460-505 at n = 5, so a cap of 465 ends some of them at each n
    # while their batch mates go on and converge.
    monkeypatch.setattr(riemannian, "_ARMIJO", 0.9)
    null_steps = 0
    for n in (4, 5):
        c = default_costs(n)
        points, counts, norms, _, patterns = riemannian._flows(_haar(n, 8, 1), c, 1e-8, max_iterations)
        failed = norms > 1e-8
        assert failed.any() == (max_iterations == 465) and not failed.all()
        rng = np.random.default_rng(1)
        for k, got in enumerate(zip(counts.tolist(), norms.tolist(), patterns)):
            A, iterations, gnorm, pattern, nulls = _reference_flow(
                haar_sample(n, rng), c, max_iterations=max_iterations
            )
            assert points[k].tobytes() == A.tobytes()
            assert got == (iterations, gnorm, pattern)
            null_steps += nulls
    assert null_steps > 0  # some trials were refused
