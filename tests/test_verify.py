import numpy as np
import pytest

from rotmorse.critical import default_costs
from rotmorse.riemannian import curve_derivatives, gradient_flow, tangent_hessian
from rotmorse.rotations import haar_sample
from rotmorse.verify import (
    fd_gradient,
    fd_tangent_hessian,
    flow_classification_suite,
    gradient_oracle_suite,
    hessian_oracle_suite,
    index_equivalence_suite,
    random_costs,
    run_all_suites,
)


def test_gradient_suite_passes():
    result = gradient_oracle_suite(4, samples=25, seed=1)
    assert result.passed and result.max_residual <= result.threshold


def test_hessian_suite_passes():
    result = hessian_oracle_suite(4, samples=10, seed=2)
    assert result.passed


def test_index_suite_passes():
    result = index_equivalence_suite(5, samples=10, seed=3)
    assert result.passed and result.max_residual == 0.0


def test_flow_suite_passes():
    result = flow_classification_suite(3, samples=25, seed=4)
    assert result.passed and result.max_residual <= result.threshold


def test_flow_suite_unreachable_tolerance_fails():
    result = flow_classification_suite(
        4, samples=2, seed=5, grad_tol=1e-300, max_iterations=200
    )
    assert not result.passed


def test_run_all_suites_n1_trivially_passes():
    assert all(s.passed for s in run_all_suites(1, samples=2, seed=0))


def test_run_all_suites_fixed_costs():
    results = run_all_suites(3, samples=10, seed=11, c=np.array([0.5, 1.5, 4.0]))
    assert [s.name for s in results] == [
        "gradient-fd",
        "hessian-fd",
        "index-equivalence",
        "flow-classification",
    ]
    assert all(s.passed for s in results)


def test_random_costs_strictly_increasing():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5):
        c = random_costs(n, rng)
        assert c.size == n and c[0] >= 0.0
        assert np.all(np.diff(c) > 0)


def _reference_worst(n, samples, seed, c, residual):
    """Worst residual over the suites' draws, rebuilt as a plain loop: per
    sample one Haar point, then fresh weights when c is None."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        A = haar_sample(n, rng)
        cc = random_costs(n, rng) if c is None else c
        resid = residual(A, cc)
        if resid.size:
            worst = max(worst, float(resid.max()))
    return worst


@pytest.mark.parametrize("n,seed,c", [(1, 0, None), (3, 4, None), (4, 9, [0.5, 1.0, 2.5, 7.0])])
def test_suite_residuals_equal_reference_loops(n, seed, c):
    def gradient_residual(A, cc):
        return np.concatenate(
            [
                np.abs(curve_derivatives(A, cc, side=side) - fd_gradient(A, cc, side=side))
                for side in ("right", "left")
            ]
        )

    def hessian_residual(A, cc):
        return np.abs(tangent_hessian(A, cc) - fd_tangent_hessian(A, cc))

    samples = 3
    expected = _reference_worst(n, samples, seed, c, gradient_residual)
    assert gradient_oracle_suite(n, samples, seed=seed, c=c).max_residual == expected
    expected = _reference_worst(n, samples, seed, c, hessian_residual)
    assert hessian_oracle_suite(n, samples, seed=seed, c=c).max_residual == expected

    rng = np.random.default_rng(seed)
    cc = default_costs(n) if c is None else c
    norms = [gradient_flow(haar_sample(n, rng), cc).final_gradient_norm for _ in range(samples)]
    assert flow_classification_suite(n, samples, seed=seed, c=c).max_residual == max(norms)


@pytest.mark.parametrize("n", [1, 3])
def test_fd_gradient_rejects_bad_side(n):
    with pytest.raises(ValueError, match="side"):
        fd_gradient(np.eye(n), default_costs(n), side="bogus")
