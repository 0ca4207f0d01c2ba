"""Workload process of the benchmark.

``run.py`` starts this script once per run, with the BLAS thread pins and
``PYTHONPATH=src`` in its environment. It calls ``rotmorse.cli.main`` in
this one process and thread, command after command (a closed loop), checks
every output with ``checks.py`` and prints one JSON line with its tallies.

Untraced (``--trace 0``): after a small warm-up it runs whole cycles until
``--seconds`` have passed, timing each ``main`` call (wall and CPU).

Traced (``--trace 1``): it runs every command twice, once plain and once
under ``spans.Tracer``, alternating which goes first; the traced outputs
must equal the plain ones. The plain twins give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import checks
import spans
import workloads

PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE_LOOPS = 100_000
# The reference loop's time on the 2-core Xeon the bounds were set on; it
# only sets the scale of the reference-second metrics.
REFERENCE_S = 0.015


def cpu_seconds() -> float:
    """CPU of this process, all threads, plus any children it waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_command(cli, cmd):
    """Run one command; return (exit code, output text, wall s, CPU s)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(cmd.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed operation, not the end of the run
            rc = "raised " + traceback.format_exc(limit=4)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    text = buf.getvalue()
    if cmd.out is not None:
        out = Path(cmd.out)
        text = out.read_text() if out.exists() else ""
        out.unlink(missing_ok=True)
    return rc, text, wall, cpu


class Tally:
    def __init__(self):
        self.attempted = self.ok = self.failed = 0
        self.unsuccessful = Counter()
        self.unsuccessful_max_scale = 0.0
        self.errors = []
        self.error_count = 0
        self.descents = self.accepted_steps = self.classified = self.index0 = 0

    def add(self, cmd, v: checks.Verdict):
        self.attempted += cmd.ops
        self.ok += v.ok
        self.failed += v.failed
        self.unsuccessful.update(v.unsuccessful)
        self.unsuccessful_max_scale = max(self.unsuccessful_max_scale, v.unsuccessful_max_scale)
        self.error(*(f"{cmd.kind} {' '.join(cmd.argv[1:3])}: {e}" for e in v.errors))
        self.descents += v.descents
        self.accepted_steps += v.accepted_steps
        self.classified += v.classified
        self.index0 += v.index0

    def error(self, *messages):
        self.error_count += len(messages)
        self.errors.extend(messages[: max(0, 20 - len(self.errors))])

    def finish(self) -> dict:
        self.error(*filter(None, [checks.index0_problem(self.classified, self.index0)]))
        return {
            "correct": self.error_count == 0,
            "attempted": self.attempted,
            "ok": self.ok,
            "failed": self.failed,
            "unsuccessful": dict(self.unsuccessful),
            "unsuccessful_max_weight_scale": self.unsuccessful_max_scale,
            "classified": self.classified,
            "index0": self.index0,
            "error_count": self.error_count,
            "errors": self.errors,
        }


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop: how fast this CPU runs right now.

    It makes no container objects and runs with the cyclic collector off,
    so nothing the program under test leaves in memory can slow it down.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(REFERENCE_LOOPS):
            x = float(i)
            acc += x * 0.5 - (x % 7.0)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def measure(cli, schedule, seconds):
    """Untraced run over whole cycles.

    Per cycle it keeps wall, CPU and ok count, and the wall and CPU again in
    reference seconds: each command's time scaled by REFERENCE_S over the
    mean of the reference loop's times just before and just after it. The
    machine this runs on is shared, and its speed drifts by tens of percent
    over minutes; the reference readings follow that drift.
    """
    tally, cycles = Tally(), []
    deadline = time.perf_counter() + seconds
    ref = reference_seconds()
    for cycle in schedule:
        c = dict.fromkeys(("wall", "cpu", "ok", "ref_wall", "ref_cpu", "ref_s"), 0.0)
        for cmd in cycle:
            rc, text, wall, cpu = run_command(cli, cmd)
            before, ref = ref, reference_seconds()
            scale = 2.0 * REFERENCE_S / (before + ref)
            v = checks.check(cmd, rc, text)
            tally.add(cmd, v)
            c["wall"] += wall
            c["cpu"] += cpu
            c["ok"] += v.ok
            c["ref_wall"] += wall * scale
            c["ref_cpu"] += cpu * scale
            c["ref_s"] += ref / len(cycle)
        cycles.append(c)
        if time.perf_counter() >= deadline:
            return tally, cycles


def measure_traced(cli, schedule, seconds):
    """Traced run: every command plain and traced, in alternating order."""
    tally, tracer = Tally(), spans.Tracer()
    plain_wall = traced_wall = 0.0
    deadline = time.perf_counter() + seconds
    for cycle in schedule:
        for cmd in cycle:
            tracer.command_id += 1
            runs = {}
            for traced in (tracer.command_id % 2 == 1, tracer.command_id % 2 == 0):
                if not traced:
                    runs[traced] = run_command(cli, cmd)
                    continue
                tracer.install()
                try:
                    runs[traced] = run_command(cli, cmd)
                finally:
                    tracer.uninstall()
            rc, text, wall, _ = runs[False]
            if runs[True][:2] != (rc, text):
                tally.error(f"{cmd.kind}: output changed under tracing")
            tally.add(cmd, checks.check(cmd, rc, text))
            plain_wall += wall
            traced_wall += runs[True][2]
        if time.perf_counter() >= deadline:
            return tally, tracer, plain_wall, traced_wall


def _percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def layer_metrics(tally, tracer, plain_wall, traced_wall):
    """Per-layer metrics, normalised per attempted operation where they
    would otherwise grow with the length of the run."""
    per_function, roots = tracer.summary()
    ops = tally.attempted

    def fn(layer, name):
        return per_function.get((layer, name), (0, 0.0, 0.0))

    def layer_total(layer, field):
        return sum(v[field] for (lay, _), v in per_function.items() if lay == layer)

    def per_call(layer, name, unit):
        calls, inclusive, _ = fn(layer, name)
        return inclusive / calls / unit if calls else 0.0

    m = {}
    for layer in spans.LAYERS:
        if layer != "cli":
            m[f"{layer}.calls"] = layer_total(layer, 0) / ops
        m[f"{layer}.self_s"] = layer_total(layer, 2) / ops
    for layer, name in [
        ("rotations", "retract"),
        ("rotations", "haar_sample"),
        ("riemannian", "objective"),
        ("riemannian", "riemannian_gradient"),
        ("riemannian", "tangent_hessian"),
        ("critical", "validate_costs"),
    ]:
        m[f"{layer}.{name}.calls"] = fn(layer, name)[0] / ops
    for layer, name in [
        ("rotations", "retract"),
        ("riemannian", "objective"),
        ("riemannian", "tangent_hessian"),
        ("riemannian", "numeric_index"),
    ]:
        m[f"{layer}.{name}.us_per_call"] = per_call(layer, name, 1e-6)
    for name in ("fd_tangent_hessian", "fd_gradient"):
        m[f"verify.{name}.ms_per_call"] = per_call("verify", name, 1e-3)
    m["critical.validate_costs.self_s"] = fn("critical", "validate_costs")[2] / ops
    for layer, name in [
        ("critical", "enumerate_critical_points"),
        ("critical", "sign_patterns"),
        ("critical", "morse_polynomial"),
        ("topology", "enumerate_basis"),
        ("topology", "poincare_from_basis"),
        ("topology", "morse_remainder"),
    ]:
        m[f"{layer}.{name}.s"] = fn(layer, name)[1] / ops
    flows = tracer.durations("riemannian", "gradient_flow")
    m["riemannian.gradient_flow.p50_ms"] = _percentile(flows, 50) * 1e3
    m["riemannian.gradient_flow.p99_ms"] = _percentile(flows, 99) * 1e3
    m["riemannian.gradient_flow.samples"] = len(flows)
    # Accepted steps come from the FlowResult JSON, so these three exist
    # only where the workload prints descents.
    retracts, steps, descents = fn("rotations", "retract")[0], tally.accepted_steps, tally.descents
    m["riemannian.iterations_per_descent"] = steps / descents if descents else 0.0
    m["riemannian.backtracks"] = (retracts - steps) / descents if descents else 0.0
    m["riemannian.linesearch_accept_ratio"] = steps / retracts if descents and retracts else 0.0
    uncovered = traced_wall - roots
    m["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
    m["trace.wall_s"] = traced_wall / ops
    m["trace.uncovered_s"] = uncovered / ops
    m["trace.ops"] = ops

    layers = sorted({lay for lay, _ in per_function})
    self_total = sum(layer_total(lay, 2) for lay in layers)
    if abs(self_total + uncovered - traced_wall) > 1e-6 * traced_wall:
        tally.error(f"layer self times {self_total!r} + uncovered {uncovered!r} != wall {traced_wall!r}")
    extra = {
        "traced_wall_s": traced_wall,
        "plain_wall_s": plain_wall,
        "uncovered_s": uncovered,
        "layer_self_s": {lay: layer_total(lay, 2) for lay in layers},
        "layer_calls": {lay: layer_total(lay, 0) for lay in layers},
        "spans": len(tracer.fn),
    }
    return m, extra


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_pins": {k: os.environ.get(k) for k in PINS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True, help="directory rotmorse must be imported from")
    parser.add_argument("--out", required=True, help="scratch file for --out commands")
    parser.add_argument("--spans", required=True, help="where a traced run writes its spans")
    args = parser.parse_args()

    import rotmorse.cli as cli

    src = Path(args.src).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"rotmorse was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    for cmd in workloads.warmup(args.workload, args.out):
        run_command(cli, cmd)
    schedule = workloads.cycles(args.workload, args.seed, args.out)
    result = {"machine": machine_record()}
    if args.trace:
        tally, tracer, plain_wall, traced_wall = measure_traced(cli, schedule, args.seconds)
        result["per_layer"], result["trace"] = layer_metrics(tally, tracer, plain_wall, traced_wall)
        tracer.save(args.spans)
    else:
        tally, result["cycles"] = measure(cli, schedule, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(tally.finish())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
