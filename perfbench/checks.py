"""Output checkers for the benchmark, sharing no code with rotmorse.

Every reference here is computed from first principles in plain Python:
the SO(n) membership test, the gradient norm, the Morse index
``sum(i - 1 over 1-based positions carrying +1)``, the critical value
``sum c_i eps_i``, the Hessian diagonal ``-c_a eps_a - c_b eps_b`` and the
integer expansion of ``(1+t)(1+t^2)...(1+t^(n-1))``.

A checker returns a ``Verdict`` for one command. Each operation of the
command ends up in exactly one of three bins:

* ``ok`` -- the output passed every check;
* ``unsuccessful`` -- the program honestly reported that it did not
  succeed (a descent that converged but came back unclassified, or did not
  converge). Such an output is correct, only not useful;
* failed -- the output contradicts a reference, or the command crashed.
  Its reason is in ``errors`` and makes the whole run incorrect.

Run ``python3 perfbench/checks.py`` to run the self-tests, which feed each
checker valid outputs and deliberately corrupted ones.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

SO_N_TOL = 1e-9  # entrywise |A A^t - I| and |det A - 1|
INDEX0_MIN_SHARE = 0.99  # classified descents that must reach the minimum
VERIFY_SUITES = ("gradient-fd", "hessian-fd", "index-equivalence", "flow-classification")


@dataclass
class Verdict:
    ops: int
    ok: int = 0
    unsuccessful: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)
    # descent only
    descents: int = 0
    accepted_steps: int = 0
    classified: int = 0
    index0: int = 0
    unsuccessful_max_scale: float = 0.0

    @property
    def failed(self) -> int:
        return self.ops - self.ok - sum(self.unsuccessful.values())


# ---- references -------------------------------------------------------------


def morse_index(eps) -> int:
    return sum(i for i, e in enumerate(eps) if e == 1)


def poincare_coefficients(n: int) -> list:
    """Coefficients of (1+t)(1+t^2)...(1+t^(n-1)), ascending."""
    coeffs = [1]
    for k in range(1, n):
        grown = coeffs + [0] * k
        for i, x in enumerate(coeffs):
            grown[i + k] += x
        coeffs = grown
    return coeffs


def _det(A) -> float:
    M = [list(row) for row in A]
    n = len(M)
    det = 1.0
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(M[r][col]))
        if M[pivot][col] == 0.0:
            return 0.0
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        det *= M[col][col]
        for r in range(col + 1, n):
            f = M[r][col] / M[col][col]
            for k in range(col, n):
                M[r][k] -= f * M[col][k]
    return det


def so_n_problem(A, n: int):
    """None when A is an n x n rotation within SO_N_TOL, else the reason."""
    if (
        not isinstance(A, list)
        or len(A) != n
        or any(not isinstance(row, list) or len(row) != n for row in A)
    ):
        return f"final_point is not a {n}x{n} matrix"
    if any(not isinstance(x, (int, float)) or not math.isfinite(x) for row in A for x in row):
        return "final_point has a non-finite entry"
    worst = max(
        abs(sum(A[i][k] * A[j][k] for k in range(n)) - (1.0 if i == j else 0.0))
        for i in range(n)
        for j in range(n)
    )
    if worst > SO_N_TOL:
        return f"final_point is not orthogonal (|AA^t - I| = {worst:.3e})"
    det = _det(A)
    if abs(det - 1.0) > SO_N_TOL:
        return f"final_point has det {det!r}, not +1"
    return None


def pattern_problem(eps, n: int):
    if not isinstance(eps, list) or len(eps) != n or any(e not in (1, -1) for e in eps):
        return f"pattern {eps!r} is not {n} entries of +-1"
    if math.prod(eps) != 1:
        return f"pattern {eps!r} has product -1"
    return None


def gradient_norm(A, c) -> float:
    n = len(c)
    return math.sqrt(
        sum(
            (c[i] * A[i][j] - c[j] * A[j][i]) ** 2
            for i in range(n)
            for j in range(i + 1, n)
        )
    )


def _parse(text: str, v: Verdict):
    try:
        payload = json.loads(text)
    except (TypeError, ValueError) as exc:
        v.errors.append(f"output is not JSON: {exc}")
        return None
    if not isinstance(payload, dict):
        v.errors.append("output is not a JSON object")
        return None
    return payload


def _header_problems(cmd, rc, payload, v: Verdict) -> bool:
    """Record a wrong exit code; True when the output is for other inputs."""
    if rc != 0:
        v.errors.append(f"{cmd.kind} exited {rc!r}, expected 0")
    if payload.get("n") != cmd.n or payload.get("c") != list(cmd.c):
        v.errors.append("output n or weights differ from the flags passed")
        return True
    return False


# ---- checkers ---------------------------------------------------------------


def check_flow(cmd, rc, text) -> Verdict:
    """`rotmorse flow --format json`: one operation per descent."""
    v = Verdict(cmd.ops)
    payload = _parse(text, v)
    if payload is None or _header_problems(cmd, rc, payload, v):
        return v
    samples = payload.get("samples")
    if not isinstance(samples, list) or len(samples) != cmd.ops:
        v.errors.append(f"expected {cmd.ops} samples")
        return v
    tol = payload.get("tol")
    n, c = cmd.n, cmd.c
    counts = Counter()
    for i, s in enumerate(samples):
        A, eps = s.get("final_point"), s.get("classified_pattern")
        converged, norm = s.get("converged"), s.get("final_gradient_norm")
        problem = so_n_problem(A, n)
        if problem is None and not math.isclose(
            gradient_norm(A, c), norm, rel_tol=1e-9, abs_tol=1e-300
        ):
            problem = f"final_gradient_norm {norm!r} != {gradient_norm(A, c)!r} at final_point"
        if problem is None and converged != (norm <= tol):
            problem = f"converged={converged!r} with gradient norm {norm!r}, tol {tol!r}"
        if problem is None and eps is not None:
            problem = pattern_problem(eps, n)
            if problem is None and any((A[k][k] > 0) != (eps[k] == 1) for k in range(n)):
                problem = f"pattern {eps!r} does not match the diagonal of final_point"
        if problem is not None:
            v.errors.append(f"sample {i}: {problem}")
            continue
        v.descents += 1
        v.accepted_steps += s["iterations"]
        counts["converged"] += converged
        if eps is None:
            counts["unclassified"] += 1
        else:
            counts["".join("+" if e == 1 else "-" for e in eps)] += 1
        if eps is None or not converged:
            reason = "not-converged" if not converged else "converged-unclassified"
            v.unsuccessful[reason] += 1
            v.unsuccessful_max_scale = max(v.unsuccessful_max_scale, cmd.scale)
            continue
        v.ok += 1
        v.classified += 1
        v.index0 += morse_index(eps) == 0
    summary = payload.get("summary") or {}
    patterns = {k: x for k, x in counts.items() if k not in ("converged", "unclassified")}
    if not v.errors and (
        summary.get("samples") != cmd.ops
        or summary.get("converged") != counts["converged"]
        or summary.get("unclassified") != counts["unclassified"]
        or summary.get("pattern_counts") != patterns
    ):
        v.errors.append("summary disagrees with the samples")
        v.ok = 0
        v.unsuccessful.clear()
    return v


def index0_problem(classified: int, index0: int):
    """Run-level criterion: almost every classified limit is the minimum."""
    if classified and index0 < INDEX0_MIN_SHARE * classified:
        return f"only {index0}/{classified} classified descents reached index 0"
    return None


def check_verify(cmd, rc, text) -> Verdict:
    """`rotmorse verify --format json`: one operation per sample."""
    v = Verdict(cmd.ops)
    payload = _parse(text, v)
    if payload is None or _header_problems(cmd, rc, payload, v):
        return v
    if payload.get("samples") != cmd.ops or payload.get("seed") != cmd.seed:
        v.errors.append("output samples or seed differ from the flags passed")
    suites = payload.get("suites")
    if not isinstance(suites, list) or tuple(s.get("name") for s in suites) != VERIFY_SUITES:
        v.errors.append(f"expected the suites {VERIFY_SUITES}")
        return v
    for s in suites:
        if s.get("passed") is not (s.get("max_residual") <= s.get("threshold")):
            v.errors.append(f"suite {s['name']}: verdict disagrees with its residual")
        elif not s["passed"]:
            v.errors.append(f"suite {s['name']} failed: {s['max_residual']!r} > {s['threshold']!r}")
    if payload.get("passed") is not all(s.get("passed") is True for s in suites):
        v.errors.append("overall verdict disagrees with the suites")
    if not v.errors:
        v.ok = cmd.ops
    return v


def check_polynomials(cmd, rc, text) -> Verdict:
    """`rotmorse polynomials --format json`: 2^(n-1) operations, the
    patterns whose indices the Morse polynomial counts."""
    v = Verdict(cmd.ops)
    payload = _parse(text, v)
    if payload is None or _header_problems(cmd, rc, payload, v):
        return v
    expected = poincare_coefficients(cmd.n)
    for key in ("morse", "poincare_basis", "poincare_product"):
        if payload.get(key) != expected:
            v.errors.append(f"{key} != expanded product (1+t)...(1+t^{cmd.n - 1})")
    if payload.get("remainder") != []:
        v.errors.append(f"remainder {payload.get('remainder')!r} is not zero")
    if payload.get("perfect") is not True or payload.get("verdict") != "PERFECT":
        v.errors.append("verdict is not PERFECT")
    if not v.errors:
        v.ok = cmd.ops
    return v


def check_critical_points(cmd, rc, text) -> Verdict:
    """`rotmorse critical-points --format json`: one operation per pattern."""
    v = Verdict(cmd.ops)
    payload = _parse(text, v)
    if payload is None or _header_problems(cmd, rc, payload, v):
        return v
    n, c = cmd.n, cmd.c
    records = payload.get("critical_points")
    if not isinstance(records, list) or len(records) != 2 ** (n - 1):
        v.errors.append(f"expected {2 ** (n - 1)} critical points")
        return v
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keys = [f"({a + 1},{b + 1})" for a, b in pairs]
    value_tol = 1e-12 * sum(abs(x) for x in c)
    seen = set()
    previous = None
    for r in records:
        eps = r.get("eps")
        problem = pattern_problem(eps, n)
        if problem is not None:
            v.errors.append(problem)
            continue
        key = tuple(eps)
        if key in seen:
            v.errors.append(f"pattern {eps!r} listed twice")
        seen.add(key)
        if r.get("index") != morse_index(eps):
            v.errors.append(f"pattern {eps!r}: index {r.get('index')!r} != {morse_index(eps)}")
        value = sum(ci * e for ci, e in zip(c, eps))
        if not isinstance(r.get("value"), float) or abs(r["value"] - value) > value_tol:
            v.errors.append(f"pattern {eps!r}: value {r.get('value')!r} != {value!r}")
        hessian = r.get("hessian_diagonal")
        if not isinstance(hessian, dict) or list(hessian) != keys or any(
            hessian[k] != -c[a] * eps[a] - c[b] * eps[b] for k, (a, b) in zip(keys, pairs)
        ):
            v.errors.append(f"pattern {eps!r}: wrong Hessian diagonal")
        order = (r.get("index"), r.get("value"))
        if previous is not None and order < previous:
            v.errors.append("records are not sorted by (index, value)")
        previous = order
        if len(v.errors) > 10:
            break
    if not v.errors:
        v.ok = cmd.ops
    return v


CHECKERS = {
    "flow": check_flow,
    "verify": check_verify,
    "polynomials": check_polynomials,
    "critical-points": check_critical_points,
}


def check(cmd, rc, text) -> Verdict:
    return CHECKERS[cmd.kind](cmd, rc, text)


# ---- self-tests -------------------------------------------------------------


def _fixtures():
    """Valid outputs built from the references above, one per checker."""
    from workloads import Command

    flow_cmd = Command("flow", (), 4, (0.5, 1.0, 1.5, 2.0), 7, 2, scale=0.5)
    minimum = [[-1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    sample = {
        "final_point": minimum,
        "iterations": 40,
        "final_gradient_norm": 0.0,
        "classified_pattern": [-1, -1, -1, -1],
        "converged": True,
    }
    flow = {
        "n": 4,
        "c": list(flow_cmd.c),
        "seed": 7,
        "tol": 1e-8,
        "samples": [sample, json.loads(json.dumps(sample))],
        "summary": {
            "samples": 2,
            "converged": 2,
            "unclassified": 0,
            "pattern_counts": {"----": 2},
        },
    }
    verify_cmd = Command("verify", (), 8, tuple(float(i) for i in range(1, 9)), 3, 4)
    verify = {
        "n": 8,
        "c": list(verify_cmd.c),
        "seed": 3,
        "samples": 4,
        "suites": [
            {"name": s, "passed": True, "max_residual": 1e-9, "threshold": 1e-7, "detail": ""}
            for s in VERIFY_SUITES
        ],
        "passed": True,
    }
    poly_cmd = Command("polynomials", (), 5, (0.0, 1.0, 2.5, 3.0, 7.0), 1, 16)
    coeffs = poincare_coefficients(5)
    poly = {
        "n": 5,
        "c": list(poly_cmd.c),
        "morse": coeffs,
        "poincare_basis": list(coeffs),
        "poincare_product": list(coeffs),
        "remainder": [],
        "perfect": True,
        "verdict": "PERFECT",
    }
    points_cmd = Command("critical-points", (), 4, (1.0, 2.0, 3.0, 4.0), 1, 8)
    c = points_cmd.c
    records = []
    for bits in range(16):
        eps = [1 if bits >> (3 - k) & 1 else -1 for k in range(4)]
        if math.prod(eps) != 1:
            continue
        records.append(
            {
                "eps": eps,
                "index": morse_index(eps),
                "value": sum(ci * e for ci, e in zip(c, eps)),
                "hessian_diagonal": {
                    f"({a + 1},{b + 1})": -c[a] * eps[a] - c[b] * eps[b]
                    for a in range(4)
                    for b in range(a + 1, 4)
                },
            }
        )
    records.sort(key=lambda r: (r["index"], r["value"]))
    points = {"n": 4, "c": list(c), "critical_points": records}
    return {
        "flow": (flow_cmd, flow),
        "verify": (verify_cmd, verify),
        "polynomials": (poly_cmd, poly),
        "critical-points": (points_cmd, points),
    }


def _corruptions():
    """(name, checker kind, edit, exit code, expectation) per corruption.

    The edit mutates a fresh copy of the valid fixture. The expectation is
    "error" (the output must be rejected as wrong) or an unsuccessful reason.
    """

    def flip_sign(p):
        p["samples"][0]["final_point"][0][0] = 1.0
        p["samples"][0]["final_point"][1][1] = 1.0

    def bend(p):
        p["samples"][0]["final_point"][0][1] = 1e-3

    def lie_converged(p):
        # a true rotation, turned off the pattern in the (1,2) plane, whose
        # gradient is reported as zero
        s, co = math.sin(1e-3), math.cos(1e-3)
        A = p["samples"][0]["final_point"]
        A[0][0], A[0][1], A[1][0], A[1][1] = -co, s, -s, -co

    def bad_product(p):
        p["samples"][0]["classified_pattern"] = [1, -1, -1, -1]

    def unclassified(p):
        p["samples"][0]["classified_pattern"] = None
        p["summary"].update(unclassified=1, pattern_counts={"----": 1})

    def summary(p):
        p["summary"]["converged"] = 1

    def fail_suite(p):
        p["suites"][1].update(passed=False, max_residual=1e-3)
        p["passed"] = False

    def lying_suite(p):
        p["suites"][0]["max_residual"] = 1.0

    def betti(p):
        p["poincare_basis"][3] += 1

    def remainder(p):
        p["remainder"] = [1]

    def flip_index(p):
        p["critical_points"][2]["index"] += 1

    def hessian(p):
        first = next(iter(p["critical_points"][1]["hessian_diagonal"]))
        p["critical_points"][1]["hessian_diagonal"][first] += 1.0

    def duplicate(p):
        p["critical_points"][3] = json.loads(json.dumps(p["critical_points"][2]))

    def value(p):
        p["critical_points"][0]["value"] += 1e-6

    return [
        ("pattern contradicts diagonal", "flow", flip_sign, 0, "error"),
        ("non-orthogonal final_point", "flow", bend, 0, "error"),
        ("gradient norm hides an off-diagonal", "flow", lie_converged, 0, "error"),
        ("pattern with product -1", "flow", bad_product, 0, "error"),
        ("summary miscounts", "flow", summary, 0, "error"),
        ("converged but unclassified", "flow", unclassified, 0, "converged-unclassified"),
        ("one failed suite", "verify", fail_suite, 4, "error"),
        ("suite passes above its threshold", "verify", lying_suite, 0, "error"),
        ("nonzero exit", "verify", lambda p: None, 4, "error"),
        ("wrong Betti coefficient", "polynomials", betti, 0, "error"),
        ("nonzero remainder", "polynomials", remainder, 0, "error"),
        ("one flipped index", "critical-points", flip_index, 0, "error"),
        ("wrong Hessian entry", "critical-points", hessian, 0, "error"),
        ("duplicated pattern", "critical-points", duplicate, 0, "error"),
        ("wrong critical value", "critical-points", value, 0, "error"),
    ]


def self_test() -> list:
    """Problems found in the checkers; empty when every check works."""
    problems = []
    fixtures = _fixtures()
    for kind, (cmd, payload) in fixtures.items():
        v = check(cmd, 0, json.dumps(payload))
        if v.errors or v.ok != cmd.ops:
            problems.append(f"{kind}: valid output rejected: {v.errors}")
    for name, kind, edit, rc, expect in _corruptions():
        cmd, payload = fixtures[kind]
        payload = json.loads(json.dumps(payload))
        edit(payload)
        v = check(cmd, rc, json.dumps(payload))
        if expect == "error":
            if not v.errors or v.ok == cmd.ops:
                problems.append(f"{kind}: {name} accepted")
        elif v.errors or v.unsuccessful[expect] != 1 or v.ok != cmd.ops - 1:
            problems.append(f"{kind}: {name} not counted as {expect}: {v.errors}")
    if index0_problem(100, 99) is not None or index0_problem(100, 98) is None:
        problems.append("index-0 share criterion misjudges 99/100 or 98/100")
    return problems


if __name__ == "__main__":
    import sys

    found = self_test()
    for line in found:
        print(line)
    print(f"{len(_corruptions())} corruptions, {len(found)} checker problems")
    sys.exit(1 if found else 0)
