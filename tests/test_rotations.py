import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from rotmorse.rotations import (
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
    # Not integral as given: truncating (1.9, 2.5) or (1.2, 3.99) would give a valid pair.
    + [(1.9, 2.5), (1.2, 3.99), (1, math.inf), (None, 2), ("1", 2), (1, math.nan)],
)
def test_givens_invalid_pair(pair):
    with pytest.raises(ValueError):
        givens_curve(pair, 0.1, 3)
    with pytest.raises(ValueError):
        generator(pair, 3)


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_givens_additivity(t1, t2):
    B = givens_curve((1, 3), t1, 4) @ givens_curve((1, 3), t2, 4)
    assert_allclose(B, givens_curve((1, 3), t1 + t2, 4), atol=1e-12)


@given(st.floats(-10, 10))
def test_givens_is_rotation(theta):
    assert is_rotation(givens_curve((2, 3), theta, 4), 1e-12)


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


@given(st.integers(0, 2**32 - 1), st.floats(-1, 1))
@settings(max_examples=100, deadline=None)
def test_retract_stays_on_manifold(seed, step):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    A = haar_sample(n, rng)
    coeffs = rng.uniform(-2, 2, size=pair_count(n))
    assert is_rotation(retract(A, coeffs, step), 1e-10)


def test_is_rotation_cases():
    assert is_rotation(np.eye(3), 1e-12)
    assert not is_rotation(np.diag([1.0, -1.0]), 1e-12)  # det -1: in O(2), not SO(2)
    with pytest.raises(ValueError):
        is_rotation(np.ones((2, 3)))
    with pytest.raises(ValueError, match="n >= 1"):
        is_rotation(np.zeros((0, 0)))
