import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from rotmorse.critical import embed_pattern
from rotmorse.patterns import sign_patterns
from rotmorse.rotations import (
    _cayley,
    _chart,
    _haar,
    _pair_arrays,
    generator,
    givens_curve,
    haar_sample,
    is_rotation,
    pair_count,
    pair_indices,
    retract,
)

from helpers import reference_haar_sample


def test_pair_indices_order_and_count():
    assert pair_indices(3) == ((1, 2), (1, 3), (2, 3))
    for n in range(1, 10):
        assert len(pair_indices(n)) == pair_count(n) == n * (n - 1) // 2
        # the cached 0-based arrays are the same pairs, and read-only
        iu, ju = _pair_arrays(n)
        assert_array_equal(np.stack([iu, ju]), np.triu_indices(n, 1))
        assert list(zip((iu + 1).tolist(), (ju + 1).tolist())) == list(pair_indices(n))
        for arr in (iu, ju):
            with pytest.raises(ValueError):
                arr[...] = 0
    # pair_count refuses the n that pair_indices refuses
    for n, message in ((2.5, "n must be an integer"), (-3, "n must be >= 1")):
        for f in (pair_count, pair_indices):
            with pytest.raises(ValueError, match=message):
                f(n)


def test_givens_identity_at_zero():
    assert_array_equal(givens_curve((1, 2), 0.0, 2), np.eye(2))


def test_givens_quarter_turn():
    assert_allclose(givens_curve((1, 2), np.pi / 2, 2), [[0, -1], [1, 0]], atol=1e-15)


def test_givens_block_structure_n3():
    theta = 0.7
    c, s = np.cos(theta), np.sin(theta)
    expected = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    assert_array_equal(givens_curve((1, 2), theta, 3), expected)


@pytest.mark.parametrize(
    "pair",
    [(2, 1), (1, 1), (0, 2), (1, 4)]
    # Not integers as operator.index takes them: truncating (1.9, 2.5) or (1.2, 3.99) would give a valid pair.
    + [(1.9, 2.5), (1.2, 3.99), (1, math.inf), (None, 2), ("1", 2), (1, math.nan)]
    # Not two indices: refused by the same rule, not by unpacking.
    + [5, None, (1,), (1, 2, 3)]
    # Integral floats are refused as a float n is.
    + [(1.0, 2.0), (1, np.float64(2.0))],
)
def test_givens_invalid_pair(pair):
    message = r"^pair index .* need integers 1 <= i < j <= n$"
    with pytest.raises(ValueError, match=message):
        givens_curve(pair, 0.1, 3)
    with pytest.raises(ValueError, match=message):
        generator(pair, 3)


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_givens_additivity(t1, t2):
    B = givens_curve((1, 3), t1, 4) @ givens_curve((1, 3), t2, 4)
    assert_allclose(B, givens_curve((1, 3), t1 + t2, 4), atol=1e-12)


@given(st.floats(-10, 10))
def test_givens_is_rotation(theta):
    assert is_rotation(givens_curve((2, 3), theta, 4), 1e-12)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(1e-5)
@example(-1e-5)
@example(1e-4)
@example(-1e-4)
def test_givens_curve_at_minus_theta_is_its_transpose_bit_for_bit(theta):
    # verify's finite-difference oracles read f along B_p(-h) off B_p(h)^T.
    for n in range(2, 9):
        for pair in pair_indices(n):
            B = givens_curve(pair, theta, n)
            assert givens_curve(pair, -theta, n).tobytes() == B.T.tobytes()


@pytest.mark.parametrize("e1,e2", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_curve_velocity_sign_pattern_example(e1, e2):
    # right velocity of diag(e1, e2) along (1, 2) is [[0, -e1], [e2, 0]]
    V = np.diag([float(e1), float(e2)]) @ generator((1, 2), 2)
    assert_array_equal(V, [[0, -e1], [e2, 0]])


def test_curve_velocity_identity_is_generator():
    V = np.eye(3) @ generator((1, 3), 3)
    E = np.zeros((3, 3))
    E[0, 2], E[2, 0] = -1.0, 1.0
    assert_array_equal(V, E)


def test_curve_velocity_matches_finite_difference():
    # The velocity of A @ B_p(theta) at zero is A @ generator(p), that of
    # B_p(theta) @ A is generator(p) @ A, and the retraction along the unit
    # coefficient of p leaves A with the right velocity.
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(100):
        n = int(rng.integers(2, 6))
        A = haar_sample(n, rng)
        pairs = pair_indices(n)
        k = rng.integers(len(pairs))
        pair, E = pairs[k], generator(pairs[k], n)
        side = "right" if rng.integers(2) else "left"
        Bp, Bm = givens_curve(pair, h, n), givens_curve(pair, -h, n)
        fd = ((A @ Bp - A @ Bm) if side == "right" else (Bp @ A - Bm @ A)) / (2 * h)
        assert np.abs((A @ E if side == "right" else E @ A) - fd).max() <= 1e-8
        unit = np.eye(len(pairs))[k]
        fd = (retract(A, unit, h) - retract(A, unit, -h)) / (2 * h)
        assert np.abs(A @ E - fd).max() <= 1e-8


def test_velocities_span_tangent_space():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 5):
        A = haar_sample(n, rng)
        V = np.stack([(A @ generator(p, n)).ravel() for p in pair_indices(n)])
        assert np.linalg.matrix_rank(V) == pair_count(n)


def test_haar_n1_is_trivial():
    assert_array_equal(haar_sample(1, 123), [[1.0]])


def test_haar_membership():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 8):
        for _ in range(20):
            assert is_rotation(haar_sample(n, rng), 1e-12)


def test_haar_entry_mean_is_zero():
    # rotation invariance of the uniform measure forces zero-mean entries
    xs = _haar(3, 10_000, 2024)[:, 0, 0]
    assert abs(np.mean(xs)) < 0.05


def test_haar_deterministic_given_seed():
    assert_array_equal(haar_sample(4, 99), haar_sample(4, 99))


@pytest.mark.parametrize("seed", [0, 42, 2**63 + 5])
def test_stacked_haar_draw_equals_the_one_matrix_loop(seed):
    # One draw of S matrices reads the stream that S draws of one read, so
    # every prefix of the reference loop is the stack of that size.
    for n in range(1, 9):
        rng = np.random.default_rng(seed)
        loop = np.array([reference_haar_sample(n, rng) for _ in range(1000)])
        for samples in (0, 1, 4, 257, 1000):
            stack = _haar(n, samples, seed)
            assert stack.shape == (samples, n, n)
            assert stack.tobytes() == loop[:samples].tobytes()
        assert haar_sample(n, seed).tobytes() == loop[0].tobytes()


def test_retract_zero_coefficients_is_noop():
    A = haar_sample(3, 5)
    assert_allclose(retract(A, np.zeros(3), 0.7), A, rtol=0, atol=1e-15)


def test_retract_single_pair_matches_givens():
    # A unit coefficient on one pair turns that pair's plane by
    # 2*atan(theta/2), in the sense of generator(): -1 at (i, j), +1 at
    # (j, i). The Cayley angle agrees with the exponential curve
    # givens_curve(theta) to second order.
    theta = 0.37
    angle = 2 * math.atan(theta / 2)
    for coeffs, pair in zip(np.eye(pair_count(4)), pair_indices(4)):
        assert_allclose(retract(np.eye(4), coeffs, theta), givens_curve(pair, angle, 4), atol=1e-12)
    R = retract(np.eye(2), [1.0], theta)
    assert abs(math.atan2(R[1, 0], R[0, 0]) - theta) <= theta**3 / 12


def test_retract_wrong_length():
    with pytest.raises(ValueError, match="pair coefficients"):
        retract(np.eye(3), [1.0, 2.0], 0.1)
    # retract refuses the 0 x 0 matrix, as is_rotation does
    for f in (lambda A: retract(A, [], 1.0), is_rotation):
        with pytest.raises(ValueError, match="n >= 1"):
            f(np.zeros((0, 0)))


@pytest.mark.parametrize(
    "coeffs,step",
    [
        ([1.0, 0.0, 0.0], math.nan),
        ([1.0, 0.0, 0.0], math.inf),
        ([1.0, 0.0, 0.0], -math.inf),
        ([math.nan, 0.0, 0.0], 0.5),
        ([0.0, math.inf, 0.0], 0.5),
        ([0.0, 0.0, -math.inf], 0.0),
        ([1e308, 0.0, 0.0], 10.0),
    ],
)
def test_retract_refuses_a_step_or_coefficient_that_is_not_finite(coeffs, step):
    # Refused before the solve: a NaN step would fill the result with NaN,
    # and an infinite one would overflow. So would a finite step/2 times a
    # finite coefficient that overflows, 5 * 1e308 in the last case.
    with pytest.raises(ValueError, match="must be finite"):
        retract(np.eye(3), coeffs, step)


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_cayley_gives_each_matrix_its_own_bits(n):
    # _cayley solves a stack at once, and each matrix gets the bits it gets
    # alone: at a step per matrix, at one step for all, and at a row of
    # steps broadcast over a (2, 4) stack. Some coefficients are +0.0 and
    # some -0.0, whose signs can reach the zero entries of the result.
    d = pair_count(n)
    A = _haar(n, 8, n)
    v = np.random.default_rng(n).uniform(-2.0, 2.0, size=(8, d))
    v[1], v[2] = 0.0, -0.0
    v[3, ::2], v[4, 1::2] = -0.0, 0.0
    A[5] = np.eye(n)
    v[5, ::2] = -0.0
    steps = np.linspace(-1.5, 2.0, 8)
    for step, alone in ((steps, steps), (0.75, [0.75] * 8)):
        stacked = _cayley(A, v, step)
        assert stacked.tobytes() == np.stack([_cayley(A[k], v[k], alone[k]) for k in range(8)]).tobytes()
    stacked = _cayley(A.reshape(2, 4, n, n), v.reshape(2, 4, d), steps[:4])
    for k in range(8):
        assert stacked[k // 4, k % 4].tobytes() == _cayley(A[k], v[k], steps[k % 4]).tobytes()


@given(st.integers(0, 2**32 - 1), st.floats(-1, 1))
@settings(max_examples=100, deadline=None)
def test_retract_stays_on_manifold(seed, step):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    A = haar_sample(n, rng)
    coeffs = rng.uniform(-2, 2, size=pair_count(n))
    assert is_rotation(retract(A, coeffs, step), 1e-10)


@pytest.mark.parametrize("n", range(1, 7))
def test_chart_is_exactly_zero_at_every_embedded_pattern(n):
    patterns = list(sign_patterns(n))
    signs, dist = _chart(np.stack([embed_pattern(eps) for eps in patterns]))
    assert [tuple(row) for row in signs.tolist()] == patterns
    assert dist.tolist() == [0.0] * len(patterns)


@pytest.mark.parametrize("n", range(2, 6))
def test_chart_reads_a_givens_turn_as_tan_of_half_its_angle(n):
    # At D_eps B_ab(theta), |theta| < pi/2, the diagonal keeps eps's signs,
    # D A = B_ab(theta), and the chart's one nonzero pair is tan(theta/2).
    thetas = [1e-12, 1e-8, 1e-4, 0.01, 0.3, 0.7, 1.0, 1.3, 1.5, 1.57, math.pi / 2 * (1 - 1e-12)]
    for eps in sign_patterns(n):
        for pair in pair_indices(n):
            for theta in thetas + [-t for t in thetas]:
                A = embed_pattern(eps) @ givens_curve(pair, theta, n)
                signs, dist = _chart(A[None])
                assert tuple(signs[0].tolist()) == eps
                expected = abs(math.tan(theta / 2))
                assert abs(dist[0] - expected) <= 1e-15 * expected


def test_chart_is_infinite_off_a_det_one_pattern_and_at_nan():
    for n in range(1, 5):
        flipped = np.diag([-1.0] + [1.0] * (n - 1))  # det -1 signs
        turned = flipped @ givens_curve((1, 2), 0.1, n) if n > 1 else flipped
        nan_row = np.eye(n)
        nan_row[n - 1] = np.nan
        _, dist = _chart(np.stack([flipped, turned, nan_row, np.full((n, n), np.nan)]))
        assert dist.tolist() == [math.inf] * 4


@pytest.mark.parametrize("n", range(1, 6))
def test_stacked_chart_gives_each_row_its_own_bits(n):
    # The zero-diagonal block makes I + D A singular (n >= 2), so the
    # stacked solve raises and the stack is solved one matrix at a time;
    # the inf entry gives a W that is not finite.
    singular = np.eye(n)
    if n >= 2:
        singular[:2, :2] = [[0.0, -1.0], [-1.0, 0.0]]
    infinite = np.diag([math.inf] + [1.0] * (n - 1))
    nan_entry = np.eye(n)
    nan_entry[0, n - 1] = np.nan
    rows = [embed_pattern(eps) for eps in sign_patterns(n)]
    rows += [singular, infinite, nan_entry, np.diag([-1.0] + [1.0] * (n - 1))]
    for stack in (_haar(n, 7, n), np.concatenate([_haar(n, 7, n), np.stack(rows)])):
        signs, dist = _chart(stack)
        alone = [_chart(A[None]) for A in stack]
        assert signs.tobytes() == np.concatenate([s for s, _ in alone]).tobytes()
        assert dist.tobytes() == np.concatenate([d for _, d in alone]).tobytes()


def test_is_rotation_cases():
    assert is_rotation(np.eye(3), 1e-12)
    assert not is_rotation(np.diag([1.0, -1.0]), 1e-12)  # det -1: in O(2), not SO(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # A A^t overflows: a failed residual, no warning
        assert not is_rotation(np.array([[1.0, 1e308], [-1e308, 1.0]]))
    with pytest.raises(ValueError):
        is_rotation(np.ones((2, 3)))
    with pytest.raises(ValueError, match="n >= 1"):
        is_rotation(np.zeros((0, 0)))
