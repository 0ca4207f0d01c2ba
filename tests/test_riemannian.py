import numpy as np
import pytest
from numpy.testing import assert_array_equal

from rotmorse.critical import (
    critical_value,
    default_costs,
    embed_pattern,
    hessian_diagonal,
    index_by_formula,
    sign_patterns,
)
from rotmorse.riemannian import (
    DegenerateHessianError,
    classify_rotation,
    curve_derivatives,
    gradient_flow,
    numeric_index,
    objective,
    riemannian_gradient,
    tangent_hessian,
)
from rotmorse.rotations import generator, givens_curve, haar_sample, pair_indices
from rotmorse.verify import fd_gradient, fd_tangent_hessian, random_costs


def test_objective_at_identity():
    assert objective(np.eye(3), [1, 2, 3]) == 6.0


def test_objective_matches_critical_value_bitwise():
    for n in (2, 3, 5, 8):
        c = default_costs(n)
        for eps in sign_patterns(n):
            assert objective(embed_pattern(eps), c) == critical_value(eps, c)


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
    assert_array_equal(riemannian_gradient(A, [1, 2]), [-3.0])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        A = haar_sample(n, rng)
        c = random_costs(n, rng)
        for side in ("right", "left"):
            resid = np.abs(
                curve_derivatives(A, c, side=side) - fd_gradient(A, c, side=side)
            ).max()
            worst = max(worst, float(resid))
    assert worst <= 1e-7


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
        worst = max(worst, float(np.abs(tangent_hessian(A, c) - fd_tangent_hessian(A, c)).max()))
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


def test_numeric_index_rejects_nonsquare():
    with pytest.raises(ValueError):
        numeric_index(np.ones((2, 3)))


def test_classify_rotation():
    assert classify_rotation(np.diag([1.0, -1.0, -1.0])) == (1, -1, -1)
    assert classify_rotation(np.diag([1.0, -1.0])) is None  # det -1
    assert classify_rotation(haar_sample(3, 1)) is None  # generic point
    wiggled = np.diag([1.0, 1.0]) + 1e-8
    assert classify_rotation(wiggled) == (1, 1)


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


def test_flow_descent_is_monotone():
    rng = np.random.default_rng(4)
    res = gradient_flow(haar_sample(4, rng), default_costs(4), record_trajectory=True)
    assert res.converged and res.trajectory_values is not None
    assert np.all(np.diff(res.trajectory_values) <= 1e-12)
    assert len(res.trajectory_values) == res.iterations + 1


def test_flow_off_manifold_raises():
    with pytest.raises(ValueError):
        gradient_flow(np.ones((3, 3)), default_costs(3))


def test_flow_iteration_cap_is_nonconvergence_not_error():
    rng = np.random.default_rng(6)
    res = gradient_flow(haar_sample(3, rng), default_costs(3), max_iterations=2)
    assert not res.converged and res.iterations == 2


def test_flow_unreachable_tolerance():
    # n=4 needs six exact-zero components at once, so rounding noise keeps
    # the gradient norm strictly positive (n=2 can hit exact 0 by chance)
    rng = np.random.default_rng(8)
    res = gradient_flow(haar_sample(4, rng), default_costs(4), grad_tol=1e-300, max_iterations=500)
    assert not res.converged


def test_flow_result_json_round_trip():
    res = gradient_flow(np.eye(2), default_costs(2))
    d = res.to_json_dict()
    assert d["final_point"] == [[1.0, 0.0], [0.0, 1.0]]
    assert d["classified_pattern"] == [1, 1]
    assert d["converged"] is True
