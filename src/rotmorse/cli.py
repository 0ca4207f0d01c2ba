"""Command-line interface: critical-point census, polynomial comparison,
cross-check suites, and gradient-flow batches, all with reproducible seeds.

JSON is the machine format and is byte-stable for fixed flags and seed on a
fixed platform; tables are for humans and carry no stability promise.

Exit codes: 0 success (and perfect, for `polynomials`), 2 argument
validation, 3 perfectness check failed, 4 a numeric suite failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .critical import default_costs, enumerate_critical_points, index_by_formula, validate_costs
from .riemannian import gradient_flow
from .rotations import MEMBERSHIP_TOL, haar_sample, is_rotation
from .topology import is_perfect
from .verify import run_all_suites


class CliInputError(Exception):
    """Input problems detected after argument parsing (e.g. a bad start file)."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotmorse",
        description=(
            "Critical points, Morse and Poincare polynomials, and Riemannian "
            "gradient flow for weighted-trace objectives on SO(n)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, required=True, help="matrix dimension (n >= 1)")
        p.add_argument(
            "--c",
            default="default",
            help="comma-separated strictly increasing weights; 'default' means 1,2,...,n",
        )
        p.add_argument("--seed", type=int, default=0, help="rng seed for anything sampled")
        p.add_argument("--samples", type=int, default=100, help="number of random samples")
        p.add_argument("--tol", type=float, default=1e-8, help="gradient-norm tolerance")
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    sub.choices["flow"].add_argument(
        "--start",
        default=None,
        help="JSON file with one start matrix (row-major); runs a single descent from it",
    )

    return parser


def _parse_args(argv) -> argparse.Namespace:
    """Parse and validate; args.c becomes the validated weight array."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("n must be >= 1")
    if args.c == "default":
        args.c = default_costs(args.n)
    else:
        try:
            values = [float(x) for x in args.c.split(",")]
        except ValueError:
            parser.error(f"could not parse --c {args.c!r} as comma-separated reals")
        try:
            args.c = validate_costs(values, n=args.n)
        except ValueError as exc:
            parser.error(str(exc))
    if args.samples < 1:
        parser.error("samples must be >= 1")
    if not math.isfinite(args.tol):
        parser.error("tol must be finite")
    if args.tol <= 0:
        parser.error("tol must be positive")
    return args


def _render(args: argparse.Namespace, payload: dict, csv_rows, table_lines) -> None:
    """Write the requested format to --out or stdout.

    payload is the JSON object after the "n" and "c" every command echoes.
    csv_rows (header first) and table_lines are callables, so only the
    requested format is built.
    """
    if args.format == "json":
        text = json.dumps({"n": args.n, "c": args.c.tolist(), **payload}, indent=2)
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows())
        text = buf.getvalue().rstrip("\n")
    else:
        text = "\n".join(table_lines())
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _pattern_key(eps) -> str:
    return "".join("+" if e > 0 else "-" for e in eps)


def cmd_critical_points(args: argparse.Namespace) -> int:
    records = sorted(enumerate_critical_points(args.n, args.c), key=lambda r: (r.index, r.value))
    payload = {"critical_points": [r.to_json_dict() for r in records]}

    def csv_rows():
        yield ("index", "value", "eps", "hessian_diagonal")
        for r in records:
            hessian = ";".join(repr(h) for h in r.hessian_diagonal.tolist())
            yield (r.index, repr(r.value), _pattern_key(r.pattern), hessian)

    def table_lines():
        yield f"critical points of f_c on SO({args.n}), c = {args.c.tolist()}"
        yield f"{'index':>5}  {'value':>12}  pattern"
        for r in records:
            yield f"{r.index:>5}  {r.value:>12.6g}  {_pattern_key(r.pattern)}"
        yield f"total: {len(records)} critical points"

    _render(args, payload, csv_rows, table_lines)
    return 0


def cmd_polynomials(args: argparse.Namespace) -> int:
    report = is_perfect(args.n, args.c)
    verdict = "PERFECT" if report.perfect else "NOT PERFECT"
    remainder = "infeasible" if report.remainder is None else str(report.remainder)
    payload = {
        "morse": report.morse.to_list(),
        "poincare_basis": report.poincare_basis.to_list(),
        "poincare_product": report.poincare_product.to_list(),
        "remainder": None if report.remainder is None else report.remainder.to_list(),
        "perfect": report.perfect,
        "verdict": verdict,
    }

    def csv_rows():
        return [
            ("quantity", "value"),
            ("morse", str(report.morse)),
            ("poincare_basis", str(report.poincare_basis)),
            ("poincare_product", str(report.poincare_product)),
            ("remainder", remainder),
            ("verdict", verdict),
        ]

    def table_lines():
        return [
            f"n = {args.n}, c = {args.c.tolist()}",
            f"Morse polynomial:                   {report.morse}",
            f"Poincare polynomial (Z2, basis):    {report.poincare_basis}",
            f"Poincare polynomial (Z2, product):  {report.poincare_product}",
            f"Morse-inequality remainder R(t):    {remainder}",
            f"verdict: {verdict}",
        ]

    _render(args, payload, csv_rows, table_lines)
    return 0 if report.perfect else 3


def cmd_verify(args: argparse.Namespace) -> int:
    suites = run_all_suites(args.n, args.samples, seed=args.seed, c=args.c, grad_tol=args.tol)
    all_passed = all(s.passed for s in suites)
    payload = {
        "seed": args.seed,
        "samples": args.samples,
        "suites": [s.to_json_dict() for s in suites],
        "passed": all_passed,
    }

    def csv_rows():
        yield ("suite", "status", "max_residual", "threshold")
        for s in suites:
            yield (s.name, "pass" if s.passed else "fail", repr(s.max_residual), repr(s.threshold))

    def table_lines():
        for s in suites:
            status = "PASS" if s.passed else "FAIL"
            detail = f"  ({s.detail})" if s.detail else ""
            yield (
                f"[{status}] {s.name:<20} max residual {s.max_residual:.3e} "
                f"vs threshold {s.threshold:.3e}{detail}"
            )
        yield "all suites passed" if all_passed else "one or more suites FAILED"

    _render(args, payload, csv_rows, table_lines)
    return 0 if all_passed else 4


def _load_start_matrix(path: str, n: int) -> np.ndarray:
    try:
        A = np.asarray(json.loads(Path(path).read_text()), dtype=float)
    except (OSError, ValueError, TypeError) as exc:
        raise CliInputError(f"could not read start file {path!r}: {exc}") from exc
    if A.shape != (n, n):
        raise CliInputError(f"start matrix has shape {A.shape}, expected ({n}, {n})")
    if not is_rotation(A, MEMBERSHIP_TOL):
        raise CliInputError("start matrix is not a rotation matrix within membership tolerance")
    return A


def cmd_flow(args: argparse.Namespace) -> int:
    if args.start is not None:
        starts = [_load_start_matrix(args.start, args.n)]
    else:
        rng = np.random.default_rng(args.seed)
        starts = [haar_sample(args.n, rng) for _ in range(args.samples)]

    results = [gradient_flow(A0, args.c, grad_tol=args.tol) for A0 in starts]

    limits = Counter(r.classified_pattern for r in results)
    unclassified = limits.pop(None, 0)
    # (key, count, Morse index) per limit pattern, sorted by key
    limit_rows = sorted((_pattern_key(p), k, index_by_formula(p)) for p, k in limits.items())
    iteration_counts = [r.iterations for r in results]
    summary = {
        "samples": len(results),
        "converged": sum(r.converged for r in results),
        "unclassified": unclassified,
        "pattern_counts": {key: count for key, count, _ in limit_rows},
        "max_final_gradient_norm": max(r.final_gradient_norm for r in results),
        "iterations": {
            "min": min(iteration_counts),
            "mean": sum(iteration_counts) / len(iteration_counts),
            "max": max(iteration_counts),
        },
    }
    payload = {
        "seed": args.seed,
        "tol": args.tol,
        "samples": [r.to_json_dict() for r in results],
        "summary": summary,
    }

    def csv_rows():
        yield ("sample", "iterations", "final_gradient_norm", "converged", "pattern")
        for i, r in enumerate(results):
            pattern = r.classified_pattern
            key = "unclassified" if pattern is None else _pattern_key(pattern)
            yield (i, r.iterations, repr(r.final_gradient_norm), r.converged, key)

    def table_lines():
        yield (
            f"gradient flow on SO({args.n}), c = {args.c.tolist()}, "
            f"seed {args.seed}, {summary['samples']} start(s)"
        )
        yield (
            f"converged: {summary['converged']}/{summary['samples']} "
            f"(worst final gradient norm {summary['max_final_gradient_norm']:.3e})"
        )
        yield (
            f"iterations: min {summary['iterations']['min']}, "
            f"mean {summary['iterations']['mean']:.1f}, max {summary['iterations']['max']}"
        )
        yield "limits per sign pattern:"
        for key, count, index in limit_rows:
            yield f"  {key}  {count}  index {index}"
        if unclassified:
            yield f"  unclassified  {unclassified}"

    _render(args, payload, csv_rows, table_lines)
    return 0


# name -> (handler, help): build_parser registers these and main dispatches on them
_COMMANDS = {
    "critical-points": (cmd_critical_points, "enumerate the critical set"),
    "polynomials": (cmd_polynomials, "Morse vs Poincare polynomials and verdict"),
    "verify": (cmd_verify, "run the numeric cross-check suites"),
    "flow": (cmd_flow, "gradient descents from Haar starts"),
}


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
