"""Shared test helpers: reference implementations that the package's own
kernels are checked against, and checks shared by several test modules."""

import hashlib
import importlib
import math
import pkgutil
import sys
from functools import lru_cache

import numpy as np

import rotmorse
from rotmorse import riemannian
from rotmorse.critical import _hessian_diagonal, _pattern_table
from rotmorse.patterns import _gap, _top
from rotmorse.riemannian import _banded_indices, _blocks, _objective, _tangent_hessian
from rotmorse.rotations import generator, pair_count, pair_indices

from argv_grid import first_difference


def random_costs(n: int, rng) -> np.ndarray:
    """Strictly increasing weights drawn uniformly from [0, 10]."""
    while True:
        c = np.sort(rng.uniform(0.0, 10.0, size=n))
        if n == 1 or np.all(np.diff(c) > 0):
            return c


def reference_haar_sample(n: int, rng) -> np.ndarray:
    """One Haar-uniform rotation, one matrix at a time: QR of a standard
    normal matrix, columns rescaled so R has a positive diagonal, and the
    first column flipped if det is -1."""
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    d = np.sign(np.diagonal(R))
    d[d == 0] = 1.0
    Q = Q * d
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def reference_gradient(A, c, left: bool = False) -> list:
    """curve_derivatives(A, c) entry by entry in Python floats, in pair
    order: c_a A_ab - c_b A_ba for the right curves, and -c_a A_ba + c_b A_ab
    for the left curves, at the 0-based pair (a, b)."""
    c = [float(x) for x in c]
    A = [[float(x) for x in row] for row in A]
    pairs = [(a, b) for a in range(len(c)) for b in range(a + 1, len(c))]
    if left:
        return [-(c[a] * A[b][a]) + c[b] * A[a][b] for a, b in pairs]
    return [c[a] * A[a][b] - c[b] * A[b][a] for a, b in pairs]


def reference_tangent_hessian(A, c) -> list:
    """tangent_hessian(A, c) entry by entry in Python floats, as a list of
    rows: with M = diag(c) A, entry ((a,b), (g,d)) is
    δ_ad M_gb - δ_ag M_db - δ_bd M_ga + δ_bg M_da."""
    n = len(c)
    M = [[float(c[i]) * float(A[i][j]) for j in range(n)] for i in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    H = []
    for a, b in pairs:
        row = []
        for g, d in pairs:
            h = 0.0
            if a == d:
                h += M[g][b]
            if a == g:
                h -= M[d][b]
            if b == d:
                h -= M[g][a]
            if b == g:
                h += M[d][a]
            row.append(h)
        H.append(row)
    return H


# The float kernels as they were written through the dense (d, n*n) table of
# the generators E_p, kept as the oracle of the kernels that read M = diag(c) A
# and pair vectors instead. The table has n^4/2 entries, so they are
# for small n only.


@lru_cache(maxsize=None)
def table_generators(n: int) -> tuple:
    """Read-only (B, e): row p of the (d, n*n) table B is generator(p)
    flattened row-major, in pair_indices order, so coeffs @ B is
    K = sum_p coeffs[p] * generator(p); e is the flattened identity."""
    B = np.array([generator(p, n).ravel() for p in pair_indices(n)]).reshape(-1, n * n)
    e = np.eye(n).ravel()
    B.flags.writeable = False
    e.flags.writeable = False
    return B, e


def table_cayley(A: np.ndarray, coeffs: np.ndarray, step) -> np.ndarray:
    """A @ solve(I - X, I + X) with X = (step/2) * K(coeffs), over stacks,
    K(coeffs) formed as (step/2 * coeffs) @ B."""
    n = A.shape[-1]
    B, e = table_generators(n)
    half = 0.5 * np.asarray(step)[..., None] * coeffs
    P = (half @ B + e).reshape(half.shape[:-1] + (n, n))
    return A @ np.linalg.solve(P.mT, P)


def table_gradient(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    # g_p = f(A @ E_p) = <-diag(c) A, E_p>_F over the rows E_p of
    # table_generators: c(i)*A(i,j) - c(j)*A(j,i) for p = (i, j), rounded once.
    n = c.size
    return (-c[:, None] * A).reshape(A.shape[:-2] + (n * n,)) @ table_generators(n)[0].T


def table_tangent_hessian(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """H[p, q] = <-M @ E_p, E_q>_F, M = diag(c) A, over a (..., n, n) stack:
    the d products -M @ E_p are formed and read against the table."""
    n = c.size
    B = table_generators(n)[0]
    X = (-c[:, None] * A)[..., None, :, :] @ B.reshape(-1, n, n)
    return X.reshape(X.shape[:-2] + (n * n,)) @ B.T


def table_descend(A: np.ndarray, c: np.ndarray, grad_tol: float, max_iterations: int) -> tuple:
    """riemannian._descend with its pass on the table kernels: the step
    p = g / w is a pair vector, and table_cayley forms its skew matrix."""
    stop = max(grad_tol, c.size * riemannian._EPS * riemannian._EPS * _top(c))
    slack = c.size * riemannian._EPS * _top(c)
    gap = _gap(c)
    iterations = np.empty(len(A), dtype=int)
    gnorm = np.empty(len(A))
    idx = np.arange(len(A))
    Al = A.copy()
    fl = _objective(Al, c)
    hl = np.ones(len(A))
    t = 0
    while True:
        gl = table_gradient(Al, c)
        gn = np.sqrt(np.vecdot(gl, gl))
        stay = (gn > stop) & (t < max_iterations)
        if np.count_nonzero(stay) < stay.size:
            done = ~stay
            rows = idx[done]
            A[rows], gnorm[rows] = Al[done], gn[done]
            iterations[rows] = t
            idx, Al, fl, gl, hl = idx[stay], Al[stay], fl[stay], gl[stay], hl[stay]
        if not idx.size:
            return iterations, gnorm
        pl = gl / np.maximum(np.abs(_hessian_diagonal(Al.diagonal(0, -2, -1), c)), gap)
        step = np.minimum(hl, math.sqrt(2.0) / np.sqrt(np.vecdot(pl, pl)))
        trial = table_cayley(Al, -pl, step)
        ft = _objective(trial, c)
        ok = ft <= fl + slack - riemannian._ARMIJO * step * np.vecdot(gl, pl)
        hl = np.ones(idx.size)
        if np.count_nonzero(ok) < ok.size:
            no = ~ok
            trial[no], ft[no] = Al[no], fl[no]
            hl[no] = riemannian._BACKTRACK * step[no]
        t += 1
        Al, fl = trial, ft


def index_sweep(c: np.ndarray) -> int:
    """The index suite pattern by pattern: the number of the 2^(n-1) sign
    patterns whose three indices disagree. A pattern's indices are the
    formula's, the count of negative closed-form Hessian-diagonal entries,
    and the _banded_indices of its tangent Hessian read as eps @ t from the
    diagonals t of the Hessians at the n unit diagonal matrices; a pattern
    whose Hessian is not diagonal or not finite has no third index.

    verify._index_suite proves the same equality pair by pair; this sweep
    is its oracle, and its cost doubles with every n.
    """
    n, d = c.size, pair_count(c.size)
    E = np.eye(n)[:, :, None] * np.eye(n)
    t = np.empty((n, d))
    off = 0
    for block in _blocks(n, 8 * d * d):
        T = _tangent_hessian(E[block], c)
        t[block] = T.diagonal(0, -2, -1)
        off += np.count_nonzero(T) - np.count_nonzero(t[block])
    diagonal = off == 0
    count = 2 ** (n - 1)
    table = _pattern_table(n, c)
    mismatches = 0
    for block in _blocks(count, 8 * d):
        eps, index, _, hessian = (column[block] for column in table)
        by_count = np.count_nonzero(hessian < 0, axis=-1)
        # As in _pattern_table, an entry near 1e308 overflows to +-inf.
        with np.errstate(over="ignore"):
            h = eps @ t
        by_hessian = np.where(diagonal & np.isfinite(h).all(axis=-1), _banded_indices(h), -1)
        mismatches += int(np.count_nonzero((index != by_count) | (by_count != by_hessian)))
    return mismatches


def reference_classify(A):
    """The sign pattern A is entrywise within 1e-6 of, if it has det +1;
    otherwise None (also for NaN entries). One matrix at a time.

    An oracle independent of the Cayley chart that _classify reads: to
    first order the chart's max entry is half the entrywise offset, so
    1e-6 here is twice the chart radius 5e-7."""
    eps = np.where(np.diagonal(A) >= 0.0, 1, -1)
    if np.prod(eps) == 1 and np.abs(A - np.diag(eps)).max() <= 1e-6:
        return tuple(int(e) for e in eps)
    return None


def enumerate_basis(n: int) -> list:
    """Monomial basis of the Z2 exterior algebra on e_1, ..., e_(n-1), the
    Z2 cohomology of SO(n) (Hatcher, Algebraic Topology, §3.D).

    Each element is the sorted tuple of its generator labels, () being the
    unit; its degree is the sum of the labels. Built by the doubling
    recursion basis(m+1) = basis(m) + [b + (m,) for b in basis(m)], which
    fixes a deterministic order and agrees with direct subset enumeration.
    """
    basis = [()]
    for g in range(1, n):
        basis = basis + [b + (g,) for b in basis]
    return basis


def enumerate_basis_degrees(n: int) -> list:
    """The degree of every basis element of enumerate_basis(n), one int
    each and in the same order.

    Built by the doubling recursion over generators: the elements that
    contain e_m are the earlier ones with m added, so
    degrees(m+1) = degrees(m) + [d + m for d in degrees(m)]. Time and
    memory double with every n.
    """
    degrees = [0]
    for g in range(1, n):
        degrees += [d + g for d in degrees]
    return degrees


def enumerate_morse_indices(n: int) -> list:
    """The Morse index of every sign pattern of size n, one int each: the
    multiset of _index over sign_patterns(n), in another order.

    Built by doubling over the free head eps(1..n-1): the heads are kept in
    two lists by the parity of their -1 count, and at 0-based position j a
    +1 adds j to the index while a -1 flips the parity. The last sign is
    the head's product, +1 exactly for the even heads, which therefore gain
    n - 1. Time and memory double with every n.
    """
    even, odd = [0], []
    for j in range(n - 1):
        even, odd = [i + j for i in even] + odd, [i + j for i in odd] + even
    return [i + n - 1 for i in even] + odd


def evaluate(p, x: int) -> int:
    """The IntPolynomial p at the integer x, by Horner's rule."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def shift_coeffs(coeffs, k: int) -> tuple:
    """The coefficients of t^k times the polynomial with these coefficients."""
    return (0,) * k + tuple(coeffs)


def add_coeffs(*polys) -> tuple:
    """The coefficients of the sum of the polynomials with these coefficient
    sequences, padded with zeros to the longest."""
    size = max(map(len, polys), default=0)
    return tuple(sum(p[k] for p in polys if k < len(p)) for k in range(size))


def assert_same_text(got: str, expected: str) -> None:
    """Fail unless the two texts are equal.

    They are compared by length and sha256, so a multi-MB text fails in
    well under a second, and the message names the first differing line
    and its number instead of diffing the whole texts.
    """
    if len(got) == len(expected) and _sha256(got) == _sha256(expected):
        return
    number, line, wanted = first_difference(got, expected)
    raise AssertionError(
        f"texts differ (lengths {len(got)} and {len(expected)}); first at line {number}: "
        f"got {line!r:.300}, expected {wanted!r:.300}"
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def count_weight_checks(monkeypatch) -> list:
    """Patch patterns.validate_weights, the one function that holds the
    weight rule, in every rotmorse module that binds it; return the list
    that records its calls.

    Every rotmorse module but __main__ is imported first, so that a module
    the code under test would import later cannot bind the unpatched rule.
    """
    for info in pkgutil.iter_modules(rotmorse.__path__):
        if info.name != "__main__":
            importlib.import_module(f"rotmorse.{info.name}")
    original, calls = sys.modules["rotmorse.patterns"].validate_weights, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rotmorse" and getattr(module, "validate_weights", None) is original:
            monkeypatch.setattr(module, "validate_weights", counted)
    return calls
