"""Command-line interface: critical-point census, polynomial comparison,
cross-check suites, and gradient-flow batches, all with reproducible seeds.

JSON is the machine format and is byte-stable for fixed flags and seed on a
fixed platform; tables are for humans and carry no stability promise. The
library returns plain records and arrays; this module alone builds the JSON
objects, CSV rows and table lines from them, and writes JSON with
`json.dumps(..., indent=2)`.

`critical-points` writes the bytes of that JSON without building a record
object or dict per pattern: it renders each record straight from the
stacked sign table of the exact layer and writes the records one by one
instead of joining them. Its sign and Hessian texts are picked, not
formatted per record: `_picked_texts` builds the text of a run of them
once per code of the few signs the run reads, and every pattern picks its
runs' texts by its codes there.

`import rotmorse.cli` loads only the standard library and the numpy-free
exact layer (`patterns`, `topology`, `intpoly`), and `polynomials` runs on
them alone. The other commands import numpy and the float layer when
they are dispatched, in `_import_float_layer`.

Exit codes: 0 success (and perfect, for `polynomials`), 1 standard output
was closed before all of it was written (a broken pipe, as in `| head`),
2 a bad argument or --out path, 3 perfectness check failed, 4 a numeric
suite failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from collections import Counter
from functools import cache
from pathlib import Path

from .patterns import _index, default_weights, validate_weights
from .topology import is_perfect


@cache
def _import_float_layer() -> None:
    """Bind numpy and the float layer's names in this module, once; every
    command but polynomials calls this when it is dispatched."""
    global np, _pattern_table, _check_flow_args, _check_start, _flows
    global _haar, _pair_arrays, pair_indices, _suites
    import numpy as np

    from .critical import _pattern_table
    from .riemannian import _check_flow_args, _check_start, _flows
    from .rotations import _haar, _pair_arrays, pair_indices
    from .verify import _suites


class CliInputError(Exception):
    """Input problems detected after argument parsing (e.g. a bad start file)."""


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process for every main call."""
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
        # None stands for "not given", so that flow can refuse these with --start.
        p.add_argument("--seed", type=int, default=None, help="rng seed for anything sampled (default 0)")
        if name in ("verify", "flow"):
            p.add_argument("--samples", type=int, default=None, help="number of random samples (default 100)")
            p.add_argument("--tol", type=float, default=1e-8, help="gradient-norm tolerance")
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    sub.choices["flow"].add_argument(
        "--start",
        default=None,
        help=(
            "JSON file with one start matrix (row-major); runs a single descent from it "
            "and takes neither --samples nor --seed"
        ),
    )

    return parser


def _parse_args(argv) -> argparse.Namespace:
    """Parse and validate; args.c becomes the validated weights, a list of
    floats.

    The weights are checked once: by validate_weights, or for flow and
    verify by _check_flow_args, which also checks --tol and the scaled
    weights.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "polynomials":
        _import_float_layer()
    if args.n < 1:
        parser.error("n must be >= 1")
    if args.c == "default":
        c = default_weights(args.n)
    else:
        try:
            c = [float(x) for x in args.c.split(",")]
        except ValueError:
            parser.error(f"could not parse --c {args.c!r} as comma-separated reals")
    try:
        if "samples" in args:  # only verify and flow take --samples and --tol
            args.c = _check_flow_args(c, args.tol, n=args.n).tolist()
        else:
            args.c = validate_weights(c, n=args.n)
    except ValueError as exc:
        parser.error(str(exc))
    if getattr(args, "start", None) is not None and (args.samples is not None or args.seed is not None):
        parser.error("--samples and --seed cannot be used with --start")
    args.seed = 0 if args.seed is None else args.seed
    if args.seed < 0:
        parser.error("seed must be >= 0")
    if "samples" in args:
        args.samples = 100 if args.samples is None else args.samples
        if args.samples < 1:
            parser.error("samples must be >= 1")
    return args


def _json_float(x: float) -> str:
    """The text json.dumps writes for the float x."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _write(args: argparse.Namespace, pieces) -> None:
    """Write the text pieces, in order and unjoined, to --out or stdout."""
    if not args.out:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(args.out, "w", buffering=1 << 16) as f:
            f.writelines(pieces)
    except OSError as exc:
        raise CliInputError(f"could not write {args.out!r}: {exc}") from exc


def _render(args: argparse.Namespace, payload: dict, csv_rows, table_lines) -> None:
    """Write the requested format to --out or stdout.

    payload is the JSON object after the "n" and "c" every command echoes;
    its JSON text is `json.dumps(..., indent=2)`.
    csv_rows (header first) and table_lines are callables, so only the
    requested format is built.
    """
    if args.format == "json":
        text = json.dumps({"n": args.n, "c": args.c, **payload}, indent=2)
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows())
        text = buf.getvalue().rstrip("\n")
    else:
        text = "\n".join(table_lines())
    _write(args, (text, "\n"))


def _pattern_key(eps) -> str:
    return "".join("+" if e > 0 else "-" for e in eps)


def _picked_texts(negative: np.ndarray, items: list, sep: str) -> list:
    """Per row of the (P, n) bool array negative, the texts of the items
    in runs: a list whose sep-join is the sep-join of the row's item texts.

    An item is (positions, texts), and its text in a row is texts[code],
    the code having bit i set when the row's sign at positions[i] is
    negative. A run is a stretch of consecutive items that read at most 5
    positions between them. Each run's text is built once per code of its
    positions, one integer matmul gives every (P, runs) code as a slot in
    the table of these texts, and one object gather gives the lists. A run
    that reads all n signs sees only the codes with an even number of set
    bits, as every pattern has an even number of -1s: its other slots are
    never read.
    """
    runs = []
    for positions, texts in items:
        if not runs or len(set(runs[-1][0]).union(positions)) > 5:
            runs.append(([], []))
        run_positions, run_items = runs[-1]
        run_positions += [p for p in positions if p not in run_positions]
        run_items.append((positions, texts))
    weights = np.zeros((negative.shape[1], len(runs)), dtype=np.intp)
    starts, table = [], []
    for k, (positions, run_items) in enumerate(runs):
        weights[positions, k] = 1 << np.arange(len(positions))
        starts.append(len(table))
        # the code of each item at each code of the run
        picks = [[0] * len(run_items) for _ in positions]
        for i, (item_positions, _) in enumerate(run_items):
            for j, p in enumerate(item_positions):
                picks[positions.index(p)][i] = 1 << j
        bits = np.arange(1 << len(positions))[:, None] >> np.arange(len(positions)) & 1
        codes = (bits @ picks).T.tolist()
        columns = [[texts[q] for q in column] for (_, texts), column in zip(run_items, codes)]
        table += map(sep.join, zip(*columns))
    slots = np.empty(len(table), dtype=object)
    slots[:] = table
    return slots[negative @ weights + np.array(starts, dtype=np.intp)].tolist()


def _hessian_items(negative: np.ndarray, hessians: np.ndarray, prefixes: list, fmt) -> list:
    """The items of _picked_texts for the Hessian diagonal: per pair (a, b),
    the texts prefix + fmt(h) of its entry h at each code of the signs at
    a and b, with one prefix per pair.

    The entry at the pair (a, b) is -c(a)*eps(a) - c(b)*eps(b), fixed by
    the signs at a and b. Signs that occur at (a, b) also occur in a
    pattern with at most two -1s (one more -1 elsewhere evens out a single
    one), so the codes of those 1 + d rows scatter the bits of hessians
    into a (4, d) table, and each table entry is formatted once.
    """
    n, d = negative.shape[1], hessians.shape[1]
    iu, ju = _pair_arrays(n)
    rows = np.count_nonzero(negative, axis=1) <= 2
    few = negative[rows]
    picks = (few[:, iu] + 2 * few[:, ju]) * d + np.arange(d)
    table = np.zeros(4 * d)
    table[picks] = hessians[rows]
    texts = [p + fmt(h) for p, h in zip(prefixes * 4, table.tolist())]
    return [((a, b), texts[j::d]) for j, (a, b) in enumerate(zip(iu.tolist(), ju.tolist()))]


def cmd_critical_points(args: argparse.Namespace) -> int:
    signs, indices, values, hessians = _pattern_table(args.n, np.array(args.c))
    indices, values = indices.tolist(), values.tolist()
    # the record order is sorted(key=(index, value)) over the patterns
    sort_keys = list(zip(indices, values))
    order = sorted(range(len(sort_keys)), key=sort_keys.__getitem__)
    negative = signs < 0
    d = hessians.shape[1]
    key_items = [((p,), ("+", "-")) for p in range(args.n)]

    if args.format == "json":
        sep = ",\n        "
        prefixes = [json.dumps(f"({i},{j})") + ": " for i, j in pair_indices(args.n)]
        entries = _picked_texts(negative, _hessian_items(negative, hessians, prefixes, _json_float), sep)
        eps = _picked_texts(negative, [((p,), ("1", "-1")) for p in range(args.n)], sep)
        # the header object without its closing "\n}", then the record list
        head = json.dumps({"n": args.n, "c": args.c}, indent=2)[:-2] + ',\n  "critical_points": ['
        opening, closing = ("{\n        ", "\n      }") if d else ("{", "}")

        def pieces():
            yield head
            lead = "\n    "
            for p in order:
                yield (
                    f'{lead}{{\n      "eps": [\n        {sep.join(eps[p])}\n      ],'
                    f'\n      "index": {indices[p]},\n      "value": {_json_float(values[p])},'
                    f'\n      "hessian_diagonal": {opening}{sep.join(entries[p])}{closing}\n    }}'
                )
                lead = ",\n    "
            yield "\n  ]\n}\n"

    elif args.format == "csv":
        prefixes = [""] * d
        entries = _picked_texts(negative, _hessian_items(negative, hessians, prefixes, float.__repr__), ";")
        keys = _picked_texts(negative, key_items, "")

        def pieces():
            yield "index,value,eps,hessian_diagonal\n"
            for p in order:
                yield f"{indices[p]},{values[p]!r},{''.join(keys[p])},{';'.join(entries[p])}\n"

    else:
        keys = _picked_texts(negative, key_items, "")

        def pieces():
            yield f"critical points of f_c on SO({args.n}), c = {args.c}\n"
            yield f"{'index':>5}  {'value':>12}  pattern\n"
            for p in order:
                yield f"{indices[p]:>5}  {values[p]:>12.6g}  {''.join(keys[p])}\n"
            yield f"total: {len(order)} critical points\n"

    _write(args, pieces())
    return 0


def cmd_polynomials(args: argparse.Namespace) -> int:
    report = is_perfect(args.n)  # the weights, checked once, do not enter the count
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

    rows = [
        ("morse", "Morse polynomial:", report.morse),
        ("poincare_basis", "Poincare polynomial (Z2, basis):", report.poincare_basis),
        ("poincare_product", "Poincare polynomial (Z2, product):", report.poincare_product),
        ("remainder", "Morse-inequality remainder R(t):", remainder),
    ]

    def csv_rows():
        return [
            ("quantity", "value"),
            *((key, str(value)) for key, _, value in rows),
            ("verdict", verdict),
        ]

    def table_lines():
        return [
            f"n = {args.n}, c = {args.c}",
            *(f"{label:<36}{value}" for _, label, value in rows),
            f"verdict: {verdict}",
        ]

    _render(args, payload, csv_rows, table_lines)
    return 0 if report.perfect else 3


def cmd_verify(args: argparse.Namespace) -> int:
    suites = _suites(_haar(args.n, args.samples, args.seed), np.array(args.c), args.tol)
    all_passed = all(s.passed for s in suites)
    payload = {
        "seed": args.seed,
        "samples": args.samples,
        "suites": [vars(s) for s in suites],
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
    except (OSError, ValueError, TypeError, OverflowError) as exc:
        raise CliInputError(f"could not read start file {path!r}: {exc}") from exc
    try:
        return _check_start(A, n)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def cmd_flow(args: argparse.Namespace) -> int:
    if args.start is not None:
        starts = _load_start_matrix(args.start, args.n)[None]
    else:
        starts = _haar(args.n, args.samples, args.seed)
    points, iterations, norms, converged, patterns = _flows(starts, np.array(args.c), args.tol)
    points, iterations, norms = points.tolist(), iterations.tolist(), norms.tolist()
    converged = converged.tolist()

    limits = Counter(patterns)
    unclassified = limits.pop(None, 0)
    # (key, count, Morse index) per limit pattern, sorted by key
    limit_rows = sorted((_pattern_key(p), k, _index(p)) for p, k in limits.items())
    summary = {
        "samples": len(points),
        "converged": sum(converged),
        "unclassified": unclassified,
        "pattern_counts": {key: count for key, count, _ in limit_rows},
        "max_final_gradient_norm": max(norms),
        "iterations": {
            "min": min(iterations),
            "mean": sum(iterations) / len(iterations),
            "max": max(iterations),
        },
    }
    payload = {
        "seed": args.seed,
        "tol": args.tol,
        "samples": [
            {
                "final_point": point,
                "iterations": count,
                "final_gradient_norm": norm,
                "classified_pattern": pattern,
                "converged": ok,
            }
            for point, count, norm, pattern, ok in zip(points, iterations, norms, patterns, converged)
        ],
        "summary": summary,
    }

    def csv_rows():
        yield ("sample", "iterations", "final_gradient_norm", "converged", "pattern")
        rows = zip(iterations, norms, converged, patterns)
        for i, (count, norm, ok, pattern) in enumerate(rows):
            key = "unclassified" if pattern is None else _pattern_key(pattern)
            yield (i, count, repr(norm), ok, key)

    def table_lines():
        yield (
            f"gradient flow on SO({args.n}), c = {args.c}, "
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
        code = _COMMANDS[args.command][0](args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone. Python flushes stdout again at exit, so point it
        # at devnull first, as the signal module's documentation recommends.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
