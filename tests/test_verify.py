import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rotmorse
from rotmorse import riemannian, verify
from rotmorse.critical import (
    _hessian_diagonal,
    _index,
    default_costs,
    embed_pattern,
    hessian_diagonal,
    index_by_formula,
)
from rotmorse.patterns import sign_patterns
from rotmorse.riemannian import (
    _ZERO_BAND,
    _numeric_indices,
    _tangent_hessian,
    curve_derivatives,
    gradient_flow,
    numeric_index,
    tangent_hessian,
)
from rotmorse.rotations import _haar, haar_sample, pair_count
from rotmorse.verify import (
    _fd_gradient,
    _fd_tangent_hessian,
    _flow_suite,
    _gradient_suite,
    _hessian_suite,
    _index_suite,
    _worst,
    run_all_suites,
)

import helpers
from helpers import count_weight_checks, index_sweep, random_costs


def test_gradient_suite_passes():
    result = _gradient_suite(_haar(4, 25, 1), default_costs(4))
    assert result.passed and result.max_residual <= result.threshold


def test_hessian_suite_passes():
    result = _hessian_suite(_haar(4, 10, 2), default_costs(4))
    assert result.passed


@pytest.mark.parametrize("n", [3, 4, 8])
@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12])
def test_fd_suites_pass_at_every_weight_scale(n, scale):
    # The finite-difference errors grow with max(c), and so do the thresholds.
    c = scale * default_costs(n)
    starts = _haar(n, 5, n)
    for suite, constant in ((_gradient_suite, 1e-7), (_hessian_suite, 1e-4)):
        result = suite(starts, c)
        assert result.passed
        assert result.threshold == constant * (c[-1] / n)
        if scale == 1.0:  # the default weights keep their threshold bytes
            assert result.threshold == constant


def test_index_suite_passes():
    rng = np.random.default_rng(3)
    for _ in range(10):
        result = _index_suite(random_costs(5, rng))
        assert result.passed and result.max_residual == 0.0
        assert result.detail == "16 patterns"
    # The Hessian diagonal -(c_a eps_a + c_b eps_b) is finite here, though
    # twice it overflows: the pattern's index is defined.
    assert _index_suite(np.array([4e307, 6e307])).passed


@pytest.mark.parametrize("n,patterns", [(3, 4), (4, 8), (8, 128)])
def test_an_off_diagonal_scatter_fails_every_pattern(monkeypatch, n, patterns):
    # Move each Hessian's (0, 0) entry to (0, 1). Every pattern's Hessian
    # then has a nonzero off-diagonal entry, which eigenvalues would fold
    # into the spectrum: the sweep fails every pattern, and the suite every
    # one of the d pairs.
    original = verify._tangent_hessian

    def moved(A, c):
        H = original(A, c)
        H[..., 0, 1], H[..., 0, 0] = H[..., 0, 0], 0.0
        return H

    monkeypatch.setattr(verify, "_tangent_hessian", moved)
    monkeypatch.setattr(helpers, "_tangent_hessian", moved)
    c = default_costs(n)
    assert index_sweep(c) == patterns
    result = _index_suite(c)
    assert not result.passed
    assert result.max_residual == pair_count(n)


@pytest.mark.parametrize("n", range(9, 13))
def test_every_tangent_hessian_stack_of_verify_fits_the_budget(monkeypatch, n):
    # Each kernel's largest array per point: _tangent_hessian's output,
    # 8 d^2 bytes; _fd_gradient's two weighted copies of the point, 16 n^2
    # bytes; _fd_tangent_hessian's 2d points A @ B_p(+-h), 16 d n^2 bytes.
    # The suites pass each kernel blocks of at most _STACK_BYTES, or one
    # point where one point alone is larger. 64 starts span two gradient
    # blocks at n = 12.
    c, d = default_costs(n), pair_count(n)
    per_point = {"_tangent_hessian": 8 * d * d, "_fd_gradient": 16 * n * n, "_fd_tangent_hessian": 16 * d * n * n}
    sizes = {name: [] for name in per_point}

    def recorded(name):
        original = getattr(verify, name)

        def kernel(A, c):
            sizes[name].append(len(A))
            return original(A, c)

        return kernel

    for name in per_point:
        monkeypatch.setattr(verify, name, recorded(name))
    starts = _haar(n, 64, n)
    assert _index_suite(c).passed
    assert _gradient_suite(starts, c).passed and _hessian_suite(starts, c).passed
    assert sum(sizes["_fd_gradient"]) == sum(sizes["_fd_tangent_hessian"]) == len(starts)
    for name, size in per_point.items():
        assert sizes[name]
        assert all(k * size <= riemannian._STACK_BYTES or k == 1 for k in sizes[name]), (name, sizes[name])
    if n == 12:
        assert len(sizes["_fd_gradient"]) == 2


def _eigenvalue_route_mismatches(c):
    """The index suite's residual with the eigenvalue route as its third
    index: _numeric_indices of every embedded pattern's tangent Hessian, a
    matrix with a non-finite entry zeroed so that it has no index."""
    n = c.size
    signs = np.array(sign_patterns(n), dtype=float)
    embedded = np.zeros((len(signs), n, n))
    embedded[:, np.arange(n), np.arange(n)] = signs
    H = _tangent_hessian(embedded, c)
    H[~np.isfinite(H).all(axis=(-2, -1))] = 0.0
    by_eigen = _numeric_indices(H)
    by_count = np.count_nonzero(_hessian_diagonal(signs, c) < 0, axis=-1)
    return int(np.count_nonzero((_index(signs) != by_count) | (by_count != by_eigen)))


# Weights whose smallest pair-case entry delta lies in the zero band of a
# pattern's largest entry for some delta and not for others. Near delta =
# 1e-9 to 2e-9 the first two fail a rule that used the largest entry of all
# patterns instead; (1, 1 + delta, 5, 6) is banded by the pattern's 7 + delta,
# not by the 11 of the complementary pair at n = 4, which that pattern
# cannot carry; and at n = 2 the entry delta belongs to no pattern.
_BAND_WINDOW = [
    np.array(c)
    for delta in np.geomspace(5e-10, 1.6e-8, 24)
    for c in (
        (0.0, 1.0, 1.0 + delta),
        (0.0, 0.5, 1.0, 1.0 + delta),
        (1.0, 1.0 + delta, 5.0, 6.0),
        (1.0, 1.0 + delta),
    )
]


def _band_window_examples(test):
    for c in _BAND_WINDOW:
        test = example(c)(test)
    return test


_SCALED_WEIGHTS = st.builds(
    lambda n, seed, scale: scale * random_costs(n, np.random.default_rng(seed)),
    st.integers(1, 10),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-300, 1e-6, 1.0, 1e12, 1e300]),
)


@settings(max_examples=40, deadline=None)
@given(_SCALED_WEIGHTS)
@example(np.array([0.0, 1e-12, 1.0]))
@example(np.array([1e308, 1.5e308]))
@example(np.array([1e308, 1.2e308, 1.5e308]))
@_band_window_examples
def test_index_suite_agrees_with_the_eigenvalue_route(c):
    # The sweep counts the patterns whose eigenvalue route disagrees, and
    # the suite passes exactly when it counts none.
    with np.errstate(over="ignore", invalid="ignore"):
        mismatches = _eigenvalue_route_mismatches(c)
        sweep = index_sweep(c)
    assert sweep == mismatches
    assert _index_suite(c).passed == (sweep == 0)


@pytest.mark.parametrize("n", range(1, 17))
def test_index_suite_agrees_with_the_sweep_up_to_n_16(n):
    for c in (default_costs(n), random_costs(n, np.random.default_rng(n))):
        assert _index_suite(c).passed == (index_sweep(c) == 0)


# Weights (0, x, 1) with x on the edge of the relative zero band: at the
# two patterns whose pair (1, 2) entry is -(x + 1) or x + 1, the entry of
# size x is exactly _ZERO_BAND times the largest, and the next float above
# x is outside the band.
_BAND_EDGE = 1.0000000010000002e-09


@pytest.mark.parametrize(
    "c, mismatches, pairs",
    [
        ([0.0, _BAND_EDGE, 1.0], 2, 1),
        ([0.0, float(np.nextafter(_BAND_EDGE, 1.0)), 1.0], 0, 0),
        ([0.0], 0, 0),
        ([5.0], 0, 0),
        ([1e308, 1.5e308], 2, 1),
        ([1e308, 1.2e308, 1.5e308], 4, 3),
    ],
    ids=["band-edge", "above-the-edge", "n1-zero", "n1", "overflowed-diagonal", "non-finite-entries"],
)
def test_index_suite_and_numeric_indices_agree_at_the_edges(c, mismatches, pairs):
    # mismatches counts the patterns that fail, pairs the pairs with a
    # failing sign case: the suite's residual.
    assert _BAND_EDGE == _ZERO_BAND * (1.0 + _BAND_EDGE)
    c = np.array(c)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _eigenvalue_route_mismatches(c) == mismatches
        assert index_sweep(c) == mismatches
    result = _index_suite(c)
    assert result.passed == (mismatches == 0) and result.max_residual == pairs


_TINY_BLOCK_WEIGHTS = [
    *(default_costs(n) for n in range(3, 11)),
    *(random_costs(n, np.random.default_rng(n)) for n in (3, 6, 10)),
    np.array([0.0, 1e-12, 1.0]),
    np.array([1e308, 1.5e308]),
    np.array([1e308, 1.2e308, 1.5e308]),
]


@pytest.mark.parametrize("c", _TINY_BLOCK_WEIGHTS, ids=lambda c: ",".join(f"{x:g}" for x in c))
def test_index_suite_is_the_same_in_tiny_blocks(monkeypatch, c):
    # The suite builds the unit-diagonal Hessians in _blocks of matrices;
    # budgets of one and of three sign-table rows cut blocks of one matrix,
    # and give the same verdict and residual as the default budget.
    expected = _index_suite(c)
    for rows in (1, 3):
        monkeypatch.setattr(riemannian, "_STACK_BYTES", rows * 8 * pair_count(c.size))
        assert _index_suite(c) == expected


def test_index_suite_enumerates_no_patterns(monkeypatch):
    # The suite checks each pair's four sign cases; it builds none of the
    # 2^(n-1) patterns, 8388608 at n = 24.
    def refuse(*args):
        raise AssertionError(f"a pattern table was built for {args}")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rotmorse":
            for kernel in ("_sign_table", "_pattern_table", "sign_patterns"):
                if hasattr(module, kernel):
                    monkeypatch.setattr(module, kernel, refuse)
    result = _index_suite(default_costs(24))
    assert result.passed and result.detail == "8388608 patterns"


def test_index_suite_keeps_only_the_diagonals_of_the_unit_hessians():
    # The suite reads the diagonals of the n tangent Hessians at the unit
    # diagonal matrices and whether any other entry is nonzero. Its peak
    # stays below the whole (n, d, d) table of them, 1.8 MB at n = 16.
    n = 16
    c, d = default_costs(n), pair_count(n)
    tracemalloc.start()
    try:
        assert _index_suite(c).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * d * d


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("n", [16, 18])
def test_verify_peaks_under_60_mb(n):
    # The index suite used to build whole (2^(n-1), d) arrays, 141 MB at
    # n = 16 and 558 MB at n = 18 on a 2-core Xeon, and then the whole
    # (2^(n-1), n) sign table, 98 MB at n = 18. VmHWM is the peak of the
    # fresh process alone; ru_maxrss would keep the peak of the pytest
    # process it was spawned from.
    code = (
        "from rotmorse.cli import main\n"
        f"assert main(['verify', '--n', '{n}', '--samples', '1']) == 0\n"
        "print(*(line for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
    )
    src = Path(rotmorse.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    label, kib, unit = proc.stdout.split()[-3:]
    assert (label, unit) == ("VmHWM:", "kB")
    assert int(kib) < 60 * 1024


def test_flow_suite_passes():
    result = _flow_suite(_haar(3, 25, 4), default_costs(3), 1e-8)
    assert result.passed and result.max_residual <= result.threshold


def test_flow_suite_enumerates_no_patterns(monkeypatch):
    # The suite checks each limit's product of signs; it does not build the
    # 2^(n-1) patterns to look the limit up.
    def refuse(n):
        raise AssertionError(f"sign_patterns({n}) called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rotmorse" and hasattr(module, "sign_patterns"):
            monkeypatch.setattr(module, "sign_patterns", refuse)
    result = _flow_suite(_haar(16, 2, 16), default_costs(16), 1e-8)
    assert result.passed and result.detail == "2 descents, 0 failures"


def test_flow_suite_fails_a_limit_of_product_minus_one(monkeypatch):
    # At n = 3 flipping every sign of a limit flips its product to -1.
    starts, c = _haar(3, 4, 4), default_costs(3)
    assert _flow_suite(starts, c, 1e-8).passed
    flows = verify._flows

    def flipped(*args):
        *rows, patterns = flows(*args)
        return (*rows, [tuple(-e for e in eps) for eps in patterns])

    monkeypatch.setattr(verify, "_flows", flipped)
    result = _flow_suite(starts, c, 1e-8)
    assert not result.passed
    assert result.detail == "4 descents, 4 failures"


def test_flow_suite_unreachable_tolerance_fails():
    result = _flow_suite(_haar(4, 2, 5), default_costs(4), 1e-300)
    assert not result.passed


@pytest.mark.parametrize(
    "arrays",
    [
        [np.array([1e-9]), np.array([np.nan])],
        [np.array([np.nan]), np.array([1e-9])],
        [np.array([0.5, 1e-9]), np.zeros(0), np.array([2.0, np.nan, 1.0])],
    ],
)
def test_worst_is_nan_wherever_the_nan_comes(arrays):
    assert np.isnan(_worst(arrays))


def test_worst_of_finite_and_empty_arrays():
    assert _worst([]) == 0.0
    assert _worst([np.zeros(0), np.zeros((0, 3))]) == 0.0
    assert _worst([np.array([1e-9]), np.array([-3.0, 2.0])]) == 3.0
    assert _worst([np.array([1.0]), np.array([-np.inf])]) == np.inf


@pytest.mark.parametrize("suite", [_gradient_suite, _hessian_suite])
@pytest.mark.parametrize("nan_first", [False, True])
def test_a_nan_residual_fails_its_suite_in_any_position(suite, nan_first):
    c = default_costs(4)
    finite = _haar(4, 1, 3)
    assert suite(finite, c).passed
    nan_point = np.full((1, 4, 4), np.nan)
    stack = np.concatenate([nan_point, finite] if nan_first else [finite, nan_point])
    result = suite(stack, c)
    assert not result.passed
    assert np.isnan(result.max_residual)


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


def _reference_worst(n, samples, seed, c, residual):
    """Worst residual over the seeded Haar points, rebuilt as a plain loop."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        resid = residual(haar_sample(n, rng), c)
        if resid.size:
            worst = max(worst, float(resid.max()))
    return worst


@pytest.mark.parametrize(
    "n,seed,c",
    [
        (1, 0, None),
        (3, 4, None),
        (4, 9, [0.5, 1.0, 2.5, 7.0]),
        (8, 2, None),
        (1, 5, [0.0]),
        (3, 6, [0.0, 0.25, 3.0]),
        (8, 8, [0.1, 0.2, 0.5, 1.0, 2.0, 4.5, 6.0, 9.0]),
    ],
)
def test_suite_residuals_equal_reference_loops(n, seed, c):
    # one matrix at a time, through the public derivatives
    def gradient_residual(A, cc):
        fd = _fd_gradient(A[None], cc)[0]
        return np.concatenate(
            [np.abs(curve_derivatives(A, cc, side=side) - fd[k]) for k, side in enumerate(("right", "left"))]
        )

    def hessian_residual(A, cc):
        return np.abs(tangent_hessian(A, cc) - _fd_tangent_hessian(A[None], cc)[0])

    samples = 3
    gradient, hessian, index, flow = run_all_suites(n, samples, seed=seed, c=c)
    cc = default_costs(n) if c is None else np.array(c)
    assert gradient.max_residual == _reference_worst(n, samples, seed, cc, gradient_residual)
    assert hessian.max_residual == _reference_worst(n, samples, seed, cc, hessian_residual)

    # the index suite is one pass over the patterns, whatever the sample count
    patterns = sign_patterns(n)
    mismatches = sum(
        not (
            index_by_formula(eps)
            == np.count_nonzero(hessian_diagonal(eps, cc) < 0)
            == numeric_index(tangent_hessian(embed_pattern(eps), cc))
        )
        for eps in patterns
    )
    assert index.max_residual == float(mismatches) == 0.0
    assert index.detail == f"{len(patterns)} patterns"

    rng = np.random.default_rng(seed)
    norms = [gradient_flow(haar_sample(n, rng), cc).final_gradient_norm for _ in range(samples)]
    assert flow.max_residual == max(norms)


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "3", "--samples", "1", "--c", "0,1e-12,1"),
        ("--n", "2", "--samples", "1", "--c", "1e308,1.5e308"),
        ("--n", "3", "--samples", "1", "--c", "1e308,1.2e308,1.5e308"),
    ],
)
def test_verify_degenerate_hessian_fails_the_index_suite(argv):
    # A Hessian eigenvalue inside the relative zero band (a tiny gap between
    # weights, or a diagonal overflowed to -inf) or a non-finite Hessian
    # entry has no index: the suite counts it as a mismatch instead of
    # raising.
    src = Path(rotmorse.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "rotmorse", "verify", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stderr == ""  # the suites report overflow; numpy does not warn
    assert "[FAIL] index-equivalence" in proc.stdout


@pytest.mark.parametrize("c", [[0.0, 5e-324, 1.0], [0.0, 1e-200, 1e200]])
def test_run_all_suites_refuses_weights_that_tie_once_scaled(c):
    with pytest.raises(ValueError, match="float64 range"):
        run_all_suites(3, 3, c=c)


@pytest.mark.parametrize(
    "samples, seed, message",
    [
        (0, 0, "samples must be >= 1, got 0"),
        (-2, 0, "samples must be >= 1, got -2"),
        (2, -1, "seed must be >= 0, got -1"),
        (1.5, 0, r"samples must be an integer, got 1\.5"),
        (2, 1.5, r"seed must be an integer, got 1\.5"),
    ],
    ids=["samples=0", "samples=-2", "seed=-1", "samples=1.5", "seed=1.5"],
)
def test_run_all_suites_refuses_a_draw_of_nothing(samples, seed, message):
    # Zero samples would pass the flow suite after checking no descent.
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_all_suites(3, samples, seed=seed)


@pytest.mark.parametrize("n", [2.5, 3.0])
def test_run_all_suites_refuses_an_n_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match=f"^n must be an integer, got {n}$"):
        run_all_suites(n, 2)


def test_run_all_suites_validates_the_weights_once(monkeypatch):
    # The weights are checked at the public boundary; the suites then run
    # private kernels that do not check them again.
    calls = count_weight_checks(monkeypatch)
    results = run_all_suites(8, 4, seed=3)
    assert all(s.passed for s in results)
    assert len(calls) == 1
