"""The argv grid: a fixed list of rotmorse command lines, and a runner that
compares what two source trees write for each of them.

pytest does not collect this module, and it imports only the standard
library, so it also runs where numpy is not installed:

    python tests/argv_grid.py --against REV   # this tree against git revision REV
    python tests/argv_grid.py                 # this tree alone, checked
    python tests/argv_grid.py --exact         # the same, on the numpy-free slice

--against REV unpacks REV's src with `git archive` into a temporary
directory and runs every argv of the grid on both trees, each tree in one
child process with COLUMNS=80. It compares stdout, stderr, the exit code
and the bytes of the --out file, prints each argv whose results differ
with its first differing line, and exits 1 if any does.

Without --against, the grid runs on this tree alone. Every argv must write
no traceback and exit with a code in 0..4. Every JSON text it writes must
parse, and csv.reader must read every CSV text it writes as split(",")
does, with as many fields in every row as in the header: the CLI joins
CSV fields with commas and quotes none. Every
polynomials run must exit 0, and every argument error
must exit 2 with the last stderr line "rotmorse: error: ..." or, from a
subcommand's own parser, "rotmorse COMMAND: error: ...". --exact
keeps the argv that run without numpy: polynomials and the argument
errors. The tier-1 test runs this check without the three slow argv.

No digest of float output is stored: the last bits of flow and verify
depend on the BLAS build, so the grid compares two trees on one machine.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
import traceback
import warnings
from collections import Counter, namedtuple
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COMMANDS = ("critical-points", "polynomials", "verify", "flow")
DRAW = ("--samples", "3", "--seed", "7")  # what every sampled argv of the grid draws

# One argv of the grid. error: _parse_args refuses it, so it exits 2 with the
# last stderr line "rotmorse: error: ..." (argparse writes "rotmorse flow:
# error: ..." for what a subcommand's own parser refuses). slow: it takes seconds.
Case = namedtuple("Case", ("argv", "error", "slow"), defaults=(False, False))

# The flow --start files, written into the working directory of each run.
# turn3z is turn3 with signed zeros off its turned block: A_13 = +0 and
# A_31 = -0, A_23 = -0 and A_32 = +0, so the gradient's zero components and
# the zero entries of the Cayley step carry both signs.
_TURN = [[math.cos(0.3), -math.sin(0.3), 0.0], [math.sin(0.3), math.cos(0.3), 0.0], [0.0, 0.0, 1.0]]
_TURN_Z = [_TURN[0], [*_TURN[1][:2], -0.0], [-0.0, 0.0, 1.0]]
START_FILES = {
    "eye3.json": "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]",
    "turn3.json": json.dumps(_TURN),
    "turn3z.json": json.dumps(_TURN_Z),
    "eye2.json": "[[1, 0], [0, 1]]",
    "off3.json": "[[2, 0, 0], [0, 1, 0], [0, 0, 1]]",
    "huge3.json": "[[1e400, 0, 0], [0, 1, 0], [0, 0, 1]]",
    "nan3.json": "[[NaN, 0, 0], [0, 1, 0], [0, 0, 1]]",
    "text3.json": '[["a", 0, 0], [0, 1, 0], [0, 0, 1]]',
    "cut3.json": "[[1, 0, 0], [0, 1",
}


def _weights(values) -> str:
    return "--c=" + ",".join(map(repr, values))


def weight_families(n: int) -> list:
    """The --c arguments of the grid at n, as argv tails: the default
    weights, seeded random weights, weights near 1e308, and s * (1..n) at
    the scales s = 1e-6, 1e25 and 1e300, where an absolute --tol misjudges
    the flow."""
    rng = random.Random(n)
    return [
        (),
        (_weights(itertools.accumulate(rng.uniform(0.05, 1.0) for _ in range(n))),),
        (_weights(1e308 * (1 + 0.7 * k / max(n - 1, 1)) for k in range(n)),),
        *((_weights(s * k for k in range(1, n + 1)),) for s in (1e-6, 1e25, 1e300)),
    ]


def _formats(argv) -> list:
    """argv in every format, and again with --out for JSON and CSV."""
    return [
        [*argv, "--format", fmt, *out]
        for fmt in ("table", "json", "csv")
        for out in ((), ("--out", f"grid-out.{fmt}"))
        if fmt != "table" or not out
    ]


def _runs() -> list:
    """The argv that pass _parse_args."""
    runs = []
    for command, n in itertools.product(COMMANDS, range(1, 13)):
        draw = DRAW if command in ("verify", "flow") else ()
        for c in weight_families(n):
            runs += _formats([command, "--n", str(n), *c, *draw])
    for start in ("eye3.json", "turn3.json", "turn3z.json"):
        runs += _formats(["flow", "--n", "3", "--start", start])
    bad_starts = ("eye2.json", "off3.json", "huge3.json", "nan3.json", "text3.json", "cut3.json", "missing.json")
    return runs + [
        ["verify", "--n", "4", "--samples", "100", "--seed", "7"],
        ["flow", "--n", "4", "--samples", "1000", "--seed", "42", "--format", "json"],
        ["verify", "--n", "4", *DRAW, "--tol", "1e-300", "--format", "json"],
        ["flow", "--n", "3", *DRAW, "--tol", "1e-3", "--format", "csv"],
        # weights that tie once scaled; only the exact commands take them
        ["critical-points", "--n", "3", "--c=0,5e-324,1", "--format", "csv"],
        ["polynomials", "--n", "3", "--c=0,5e-324,1", "--format", "json"],
        ["critical-points", "--n", "3", "--c=-0.0,1,2"],
        ["polynomials", "--n", "4", "--seed", "5"],
        ["critical-points", "--n", "3", "--format", "json", "--out", "missing/out.json"],
        ["verify", "--n", "3", *DRAW, "--out", "missing/out.txt"],
        ["flow", "--n", "2", "--start", "eye2.json", "--c=1e300,2e300", "--format", "json"],
        ["flow", "--n", "3", "--start", "eye3.json", "--tol", "1e-12", "--format", "csv"],
        *(["flow", "--n", "3", "--start", name] for name in bad_starts),
    ]


def _errors() -> list:
    """The argv that _parse_args refuses."""
    errors = [[]]
    for command in COMMANDS:
        errors += [
            [command],
            [command, "--n", "0"],
            [command, "--n", "-1"],
            [command, "--n", "x"],
            [command, "--n", "3", "--seed", "-1"],
            [command, "--n", "3", "--seed", "x"],
            [command, "--n", "3", "--format", "xml"],
            [command, "--n", "3", "--c", "-1,1,2"],  # argparse reads -1,1,2 as an option
            *([command, "--n", "3", f"--c={c}"] for c in ("1,1,2", "-1,1,2", "nan,1,2", "1,inf,2", "1,2", "1,x,3", "")),
        ]
        if command in ("verify", "flow"):
            errors += [
                [command, "--n", "3", "--c=0,5e-324,1"],
                *([command, "--n", "3", "--samples", s] for s in ("0", "-2", "x")),
                *([command, "--n", "3", "--tol", t] for t in ("0", "-1", "nan", "inf", "x")),
            ]
        else:
            errors += [[command, "--n", "3", "--samples", "2"], [command, "--n", "3", "--tol", "1e-3"]]
    return errors + [
        ["flow", "--n", "3", "--start", "eye3.json", "--samples", "2"],
        ["flow", "--n", "3", "--start", "eye3.json", "--seed", "1"],
        ["verify", "--n", "3", "--start", "eye3.json"],
    ]


def _slow() -> list:
    """Descents that reach the 100,000-trial cap at near-tied huge weights;
    each argv takes seconds."""
    near_tie = _weights(1e300 * (1 + k / 10) for k in range(7))
    return [
        ["flow", "--n", "7", *DRAW, near_tie, "--format", "json"],
        ["verify", "--n", "7", *DRAW, near_tie, "--format", "json"],
        ["flow", "--n", "5", "--samples", "20", "--c=1,1.000000001,1.00001,2,3"],
    ]


def grid(exact: bool = False, slow: bool = True) -> list:
    """The grid's Cases, in a fixed order. exact keeps the polynomials runs
    and the argument errors, which run without numpy; slow=False drops the
    slow argv."""
    cases = [Case(a) for a in _runs()] + [Case(a, error=True) for a in _errors()]
    cases += [Case(a, slow=True) for a in _slow()]
    return [
        case
        for case in cases
        if (slow or not case.slow) and (not exact or case.error or case.argv[0] == "polynomials")
    ]


def _child(cases_path: str) -> None:
    """Run each argv of the JSON list at cases_path through rotmorse.cli.main
    in this process. The results of argv k go to results/k.stdout,
    results/k.stderr and results/k.out (the --out file, moved there if one
    was written), and the exit codes to results/codes.json."""
    import rotmorse
    from rotmorse.cli import main

    if not Path(rotmorse.__file__).resolve().is_relative_to(Path(os.environ["PYTHONPATH"]).resolve()):
        raise RuntimeError(f"rotmorse imported from {rotmorse.__file__}, not from PYTHONPATH")
    for name, text in START_FILES.items():
        Path(name).write_text(text)
    results = Path("results")
    results.mkdir()
    codes = []
    for k, argv in enumerate(json.loads(Path(cases_path).read_text())):
        stdout, stderr = io.StringIO(), io.StringIO()
        # catch_warnings clears the once-per-place warning registries, so
        # each argv warns as it would in a fresh process.
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            try:
                code = main(argv)
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
            except Exception:
                traceback.print_exc()
                code = None
        codes.append(code)
        (results / f"{k}.stdout").write_bytes(stdout.getvalue().encode())
        (results / f"{k}.stderr").write_bytes(stderr.getvalue().encode())
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        if out is not None and out.is_file():
            out.replace(results / f"{k}.out")
    (results / "codes.json").write_text(json.dumps(codes))


def run(src: Path, cases: list, workdir: Path) -> Path:
    """Run the cases on the rotmorse package under src, in one child process
    working in workdir; return the directory of its results, which records
    reads."""
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "cases.json").write_text(json.dumps([case.argv for case in cases]))
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    subprocess.run([sys.executable, __file__, "--child", "cases.json"], cwd=workdir, env=env, check=True, timeout=600)
    return workdir / "results"


def records(results: Path):
    """[exit code, stdout, stderr, --out text or None] per case of a run,
    read lazily."""
    for k, code in enumerate(json.loads((results / "codes.json").read_text())):
        texts = (results / f"{k}.{name}" for name in ("stdout", "stderr", "out"))
        yield [code, *(path.read_bytes().decode() if path.exists() else None for path in texts)]


def first_difference(got: str, expected: str):
    """(line number, got line, expected line) at the first line where the two
    texts differ, a missing line being None; None if they are equal."""
    pairs = itertools.zip_longest(got.splitlines(keepends=True), expected.splitlines(keepends=True))
    return next(((k, *pair) for k, pair in enumerate(pairs, 1) if pair[0] != pair[1]), None)


_FIELDS = ("exit code", "stdout", "stderr", "--out")


def compare(rev: str, cases: list) -> int:
    """Run the cases on this tree and on REV's src; print every argv whose
    results differ and a count per field. 1 if any differs, else 0."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = tmp / "rev.tar"
        subprocess.run(["git", "-C", str(REPO), "archive", f"--output={archive}", rev, "src"], check=True)
        subprocess.run(["tar", "-xf", str(archive), "-C", str(tmp)], check=True)
        mine = run(REPO / "src", cases, tmp / "tree")
        theirs = run(tmp / "src", cases, tmp / "rev")
        differ = Counter()
        for case, got, expected in zip(cases, records(mine), records(theirs)):
            lines = []
            for field, x, y in zip(_FIELDS, got, expected):
                if x == y:
                    continue
                differ[field] += 1
                if field == "exit code" or None in (x, y):
                    lines.append(f"  {field}: {y!r} at {rev}, {x!r} here")
                else:
                    k, line, wanted = first_difference(x, y)
                    lines.append(f"  {field} line {k}: {wanted!r:.300} at {rev}, {line!r:.300} here")
            if lines:
                differ["argv"] += 1
                print(shlex.join(case.argv), *lines, sep="\n")
    counts = ", ".join(f"{field} {differ[field]}" for field in _FIELDS)
    print(f"{len(cases)} argv against {rev}: {differ['argv']} differ ({counts})")
    return 1 if differ["argv"] else 0


def output_format(argv) -> str:
    """The --format an argv asks for."""
    return argv[argv.index("--format") + 1] if "--format" in argv else "table"


def problems(cases: list, results) -> list:
    """(argv, problem) for each rule of the module docstring that a case's
    result breaks."""
    found = []
    for case, (code, stdout, stderr, written) in zip(cases, results):
        argv = case.argv
        if "Traceback" in stderr:
            found.append((argv, "traceback on stderr"))
        if code not in range(5):
            found.append((argv, f"exit code {code!r}"))
        fmt = output_format(argv)
        for text in filter(None, (stdout, written)):
            if fmt == "json":
                try:
                    json.loads(text)
                except ValueError as exc:
                    found.append((argv, f"JSON does not parse: {exc}"))
            elif fmt == "csv":
                rows = [row.split(",") for row in text.splitlines()]
                if list(csv.reader(io.StringIO(text))) != rows or len({len(row) for row in rows}) > 1:
                    found.append((argv, "a CSV field holds a comma, a quote or a line break"))
        last = (stderr.splitlines() or [""])[-1]
        if case.error and (code != 2 or not re.match(r"rotmorse( [a-z-]+)?: error: ", last)):
            found.append((argv, f"argument error exits {code!r} with last stderr line {last!r}"))
        if argv[:1] == ["polynomials"] and not case.error and code != 0:
            found.append((argv, f"polynomials exits {code!r}"))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the rotmorse argv grid.")
    parser.add_argument("--against", metavar="REV", help="compare this tree with git revision REV")
    parser.add_argument("--exact", action="store_true", help="only the argv that run without numpy")
    parser.add_argument("--child", metavar="CASES", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child)
        return 0
    cases = grid(exact=args.exact)
    if args.against:
        return compare(args.against, cases)
    with tempfile.TemporaryDirectory() as tmp:
        found = problems(cases, records(run(REPO / "src", cases, Path(tmp))))
    for argv, problem in found:
        print(f"{shlex.join(argv)}: {problem}")
    print(f"{len(cases)} argv: {len(found)} problems")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
