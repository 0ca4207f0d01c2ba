"""End-to-end acceptance checks, one per numbered criterion, each printing a
pass/fail line (visible with `pytest tests/test_acceptance.py -s`). Runtime
bounds are asserted where the criterion states one.
"""

import time

import numpy as np

import rotmorse as rm
from rotmorse.intpoly import IntPolynomial
from rotmorse.topology import morse_split_by_last_sign
from rotmorse.verify import _fd_gradient, _fd_tangent_hessian

from helpers import add_coeffs, random_costs, shift_coeffs

RNG_SEED = 20260810


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_critical_point_count():
    for n in range(1, 13):
        assert len(rm.enumerate_critical_points(n)) == 2 ** (n - 1)
    t0 = time.perf_counter()
    rm.enumerate_critical_points(12)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        elapsed < 1.0,
        f"2^(n-1) critical points for n=1..12; n=12 enumerated in {elapsed:.3f}s (< 1s)",
    )


def test_criterion_2_perfectness_at_desk_scale():
    rng = np.random.default_rng(RNG_SEED)
    zero = IntPolynomial.zero()
    for n in range(1, 13):
        poincare_basis, poincare_product = rm.poincare_from_basis(n), rm.poincare_product(n)
        for _ in range(20):
            c = random_costs(n, rng)
            report = rm.is_perfect(n, c)
            assert report.morse == report.poincare_basis == report.poincare_product
            assert report.remainder == zero
            assert report.perfect
            # The same polynomial counted at c itself: a critical point's
            # index is the number of negative entries of its Hessian diagonal.
            hessians = np.array([r.hessian_diagonal for r in rm.enumerate_critical_points(n, c)])
            morse = IntPolynomial.counting(np.count_nonzero(hessians < 0, axis=-1).tolist())
            assert morse == poincare_basis == poincare_product
            assert rm.morse_remainder(morse, poincare_basis) == zero
    _report(
        2,
        True,
        "Morse == Poincare(basis) == Poincare(product) and R = 0, exact, "
        "n=1..12 with 20 random cost vectors each",
    )


def test_criterion_3_index_formula_equivalence():
    rng = np.random.default_rng(RNG_SEED + 1)
    for n in range(1, 9):
        patterns = rm.sign_patterns(n)
        for _ in range(50):
            c = random_costs(n, rng)
            for eps in patterns:
                k = rm.index_by_formula(eps)
                assert k == rm.index_by_hessian(eps, c)
                assert k == rm.numeric_index(rm.tangent_hessian(rm.embed_pattern(eps), c))
    _report(
        3,
        True,
        "index formula == Hessian sign count == eigenvalue count, exact, "
        "n=1..8, every pattern, 50 random cost vectors",
    )


def test_criterion_4_known_topology_spot_check():
    betti3 = rm.poincare_from_basis(3).to_list()
    betti4 = rm.poincare_from_basis(4).to_list()
    ok = betti3 == [1, 1, 1, 1] and betti4 == [1, 1, 1, 2, 1, 1, 1]
    _report(4, ok, f"Z2 Betti numbers: SO(3) -> {betti3}, SO(4) -> {betti4}")


def test_criterion_5_oracle_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 2)
    worst_grad = 0.0
    for k in range(100):
        n = 2 + (k % 5)  # n in 2..6
        A = rm.haar_sample(n, rng)
        c = random_costs(n, rng)
        resid = np.abs(rm.curve_derivatives(A, c) - _fd_gradient(A[None], c)[0, 0]).max()
        worst_grad = max(worst_grad, float(resid))
    worst_hess = 0.0
    for k in range(20):
        n = 2 + (k % 4)  # n in 2..5
        A = rm.haar_sample(n, rng)
        c = random_costs(n, rng)
        resid = np.abs(rm.tangent_hessian(A, c) - _fd_tangent_hessian(A[None], c)[0]).max()
        worst_hess = max(worst_hess, float(resid))
    elapsed = time.perf_counter() - t0
    ok = worst_grad <= 1e-7 and worst_hess <= 1e-4 and elapsed < 30.0
    _report(
        5,
        ok,
        f"gradient FD residual {worst_grad:.2e} (<= 1e-7, 100 points), "
        f"Hessian FD residual {worst_hess:.2e} (<= 1e-4, 20 points), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_6_flow_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    c = rm.default_costs(4)
    admissible = set(rm.sign_patterns(4))
    total = 1000
    n_converged = n_minimum = 0
    bad_limits = 0
    for _ in range(total):
        result = rm.gradient_flow(rm.haar_sample(4, rng), c, grad_tol=1e-8, max_iterations=100_000)
        n_converged += result.converged
        if result.classified_pattern is not None and result.classified_pattern not in admissible:
            bad_limits += 1
        n_minimum += result.classified_pattern == (-1, -1, -1, -1)
    elapsed = time.perf_counter() - t0
    ok = (
        n_converged == total
        and bad_limits == 0
        and n_minimum >= 990
        and elapsed < 120.0
    )
    _report(
        6,
        ok,
        f"{n_converged}/{total} converged to ||grad|| <= 1e-8, {bad_limits} limits outside "
        f"the critical set, {n_minimum}/{total} at the index-0 pattern, {elapsed:.0f}s (< 2min)",
    )


def test_criterion_7_criticality_certificate():
    for n in range(1, 9):
        c = rm.default_costs(n)
        for eps in rm.sign_patterns(n):
            A = rm.embed_pattern(eps)
            for side in ("right", "left"):
                assert np.all(rm.curve_derivatives(A, c, side=side) == 0.0)
    _report(
        7,
        True,
        "both curve-derivative families evaluate to exactly 0 at every "
        "enumerated pattern, n=1..8",
    )


def test_criterion_8_induction_step_structure():
    for n in range(1, 12):
        p_n = rm.morse_polynomial(n)
        p_next = rm.morse_polynomial(n + 1)
        assert p_next.coeffs == add_coeffs(p_n.coeffs, shift_coeffs(p_n.coeffs, n))
        minus, plus = morse_split_by_last_sign(n + 1)
        assert minus == p_n
        assert plus.coeffs == shift_coeffs(p_n.coeffs, n)
        assert add_coeffs(minus.coeffs, plus.coeffs) == p_next.coeffs
    _report(
        8,
        True,
        "Morse polynomial satisfies P(n+1) = P(n) * (1 + t^n) via the "
        "last-sign split, exact, n=1..11",
    )
