"""rotmorse benchmark: end-to-end goodput of the documented CLI, and traced
per-layer timings.

    python3 perfbench/run.py --workload descent|oracle|census --seed N \\
        --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/rotmorse``; nothing
needs to be built or installed. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones (see perfbench/README.md). The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are for
people. A fuller record, with the machine, is written to
``.perfbench-out/result-<workload>-trace<k>.json``.

Exit codes: 0 all outputs correct, 1 some output failed its check (the
result is still printed), 2 no ``src/rotmorse`` to measure, 3 the checkers
failed their self-tests, 4 the workload process failed or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from worker import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SPAWNS = 5
TIME_LIMIT_S = 170.0
# Prints the monotonic clock once rotmorse.cli is imported, then the
# reference loop's time in the same process, then where rotmorse came from.
PROBE = (
    "import time, rotmorse.cli; t = time.monotonic(); import sys; "
    f"sys.path.insert(0, {str(HERE)!r}); from worker import reference_seconds; "
    "print(t, reference_seconds(), rotmorse.cli.__file__)"
)


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({pin: "1" for pin in PINS})
    return env


def setup_seconds(env, src: Path, deadline: float) -> list:
    """(wall, reference) seconds from spawning a fresh process until its
    import of rotmorse.cli returns; the second is the wall scaled by
    REFERENCE_S over the reference loop's time in that process."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE], env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3 or src not in Path(fields[2]).resolve().parents:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip() or proc.stdout.strip()}")
        wall = float(fields[0]) - t0
        times.append((wall, wall * REFERENCE_S / float(fields[1])))
    return times


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def end_to_end(result, setup) -> dict:
    """Medians over whole cycles of the untraced run; the two rates are in
    reference seconds (see README.md)."""
    cycles = [c for c in result["cycles"] if c["wall"] > 0]
    with_ok = [c for c in cycles if c["ok"]] or [dict(c, ok=1) for c in cycles]
    return {
        "setup_s": statistics.median(ref for _, ref in setup),
        "ok_per_s": statistics.median(c["ok"] / c["ref_wall"] for c in cycles),
        "cpu_per_ok_ms": statistics.median(c["ref_cpu"] / c["ok"] * 1e3 for c in with_ok),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ratio": result["ok"] / result["attempted"],
    }


def raw_rates(result) -> str:
    cycles = [c for c in result["cycles"] if c["wall"] > 0 and c["ok"]]
    ok_per_s = statistics.median(c["ok"] / c["wall"] for c in cycles) if cycles else 0.0
    cpu = statistics.median(c["cpu"] / c["ok"] * 1e3 for c in cycles) if cycles else 0.0
    ref = statistics.median(c["ref_s"] for c in result["cycles"])
    return (f"wall-clock medians: ok_per_s {ok_per_s:.4f}, cpu_per_ok_ms {cpu:.4f}; "
            f"reference loop {ref * 1e3:.2f} ms")


def report(args, result, metrics, units, setup) -> list:
    """Lines for people, printed above the JSON line."""
    lines = [
        f"rotmorse benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds} s, trace {'on' if args.trace else 'off'}",
        "machine: " + json.dumps(result["machine"]),
    ]
    unsuccessful = sum(result["unsuccessful"].values())
    counts = (
        f"{result['attempted']} operations attempted: {result['ok']} ok, "
        f"{unsuccessful} unsuccessful, {result['failed']} failed; "
        f"fail_ratio {(unsuccessful + result['failed']) / result['attempted']:.4f}"
    )
    if args.trace:
        t = result["trace"]
        lines += [
            "PER-LAYER, from a TRACED run: times include tracing overhead and are "
            "not end-to-end figures",
            f"  trace.overhead_ratio {metrics['trace.overhead_ratio']:.4f} "
            f"(traced wall {t['traced_wall_s']:.3f} s vs plain {t['plain_wall_s']:.3f} s "
            f"for the same commands)",
            f"  {'layer':<12}{'self s':>12}{'share':>8}{'calls':>12}",
        ]
        wall = t["traced_wall_s"]
        for layer, s in sorted(t["layer_self_s"].items(), key=lambda kv: -kv[1]):
            lines.append(f"  {layer:<12}{s:>12.4f}{s / wall:>8.1%}{t['layer_calls'][layer]:>12}")
        lines.append(f"  {'uncovered':<12}{t['uncovered_s']:>12.6f}{t['uncovered_s'] / wall:>8.1%}")
        lines.append(f"  {'= wall':<12}{wall:>12.4f}   ({t['spans']} spans, {counts})")
    else:
        lines.append(f"end-to-end, tracing off; {counts}")
        lines.append(f"  setup_s is the median of {len(setup)} spawns in reference seconds: "
                     + ", ".join(f"{ref:.4f}" for _, ref in setup) + "; wall-clock: "
                     + ", ".join(f"{wall:.4f}" for wall, _ in setup))
        lines.append(f"  ok_per_s and cpu_per_ok_ms are medians over {len(result['cycles'])} cycles, "
                     "in reference seconds")
        lines.append("  " + raw_rates(result))
    if result["unsuccessful"]:
        lines.append(
            "  unsuccessful by reason: "
            + ", ".join(f"{k} {v}" for k, v in sorted(result["unsuccessful"].items()))
            + f"; largest weight scale among them {result['unsuccessful_max_weight_scale']:.3g}"
        )
    for name, unit in units.items():
        lines.append(f"  {name:<40} {metrics[name]!r:>24} {unit}")
    for error in result["errors"]:
        lines.append(f"CHECK FAILED: {error}")
    if result["error_count"] > len(result["errors"]):
        lines.append(f"CHECK FAILED: ... {result['error_count']} in all")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    src = ROOT / "src"
    if not (src / "rotmorse" / "cli.py").is_file():
        print(f"error: no rotmorse sources under {src}", file=sys.stderr)
        return 2
    problems = checks.self_test()
    if problems:
        print("error: output checkers failed their self-tests:", *problems, sep="\n  ", file=sys.stderr)
        return 3
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    env = child_env(src)
    try:
        setup = [] if args.trace else setup_seconds(env, src.resolve(), deadline)
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--src", str(src), "--out", str(out_dir / "command-out.json"),
                "--spans", str(out_dir / f"spans-{args.workload}.npz"),
            ],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload process exited {proc.returncode}", file=sys.stderr)
        return 4
    result = json.loads(lines[-1])
    result["machine"]["git_commit"] = git_commit()
    metrics = result["per_layer"] if args.trace else end_to_end(result, setup)
    units = declared_units(args.trace)
    print("\n".join(report(args, result, metrics, units, setup)))
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, seed=args.seed, seconds=args.seconds, setup_s=setup, metrics=metrics),
                   indent=1)
    )
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
