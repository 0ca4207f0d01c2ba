"""Seeded command schedules for the benchmark workloads.

Every input a command receives -- weights, weight-scale exponents and the
``--seed`` of each CLI call -- is drawn here from the workload seed, so the
same seed gives the same commands. A workload is an endless sequence of
cycles; one cycle is the smallest list of commands that covers the whole
input range, so a run that completes whole cycles always sees the same mix.

Stdlib only: run.py imports it too, and run.py never loads numpy or
rotmorse.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what the checker needs to know about it."""

    kind: str  # "flow", "verify", "polynomials" or "critical-points"
    argv: tuple  # arguments for rotmorse.cli.main
    n: int
    c: tuple  # the weights the output must echo
    seed: int
    ops: int  # operations this command covers
    scale: float = 1.0  # weight scale 10^u (descent only)
    out: str | None = None  # file the command writes instead of stdout


WORKLOADS = ("descent", "oracle", "census")

# descent: batches of Haar starts at small n, weights 10^u * (1..n).
DESCENT_DIMS = (3, 4)
DESCENT_U_LOW = -3.0
DESCENT_STRATA = 6  # unit-width strata of u over [-3, 3)
# Within a stratum, cycle j takes u at offset + j * (golden ratio - 1),
# modulo 1: any run of whole cycles covers every stratum evenly, so the
# share of descents below the unclassified threshold barely depends on the
# seed.
GOLDEN_STEP = (5**0.5 - 1) / 2
DESCENT_BATCH = 4
# oracle: all four verify suites at d = 28 with the default weights.
ORACLE_N = 8
ORACLE_SAMPLES = 4
# census: the exact layer at a large and a moderate n.
CENSUS_POLY_N = 16
CENSUS_POINTS_N = 11


def _weights_arg(c) -> str:
    # repr round-trips a float exactly, so the output can be compared bit for bit.
    return ",".join(repr(float(x)) for x in c)


def _command(kind, n, c, seed, ops, extra=(), scale=1.0, out=None, pass_c=True) -> Command:
    argv = [kind, "--n", str(n)]
    if pass_c:
        argv += ["--c", _weights_arg(c)]
    argv += ["--seed", str(seed), *extra, "--format", "json"]
    if out is not None:
        argv += ["--out", out]
    return Command(kind, tuple(argv), n, tuple(float(x) for x in c), seed, ops, scale, out)


def _call_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _flow(n, scale, seed, samples) -> Command:
    c = [scale * i for i in range(1, n + 1)]
    return _command("flow", n, c, seed, samples, ("--samples", str(samples)), scale=scale)


def _verify(n, seed, samples) -> Command:
    c = range(1, n + 1)  # the CLI default, which the command is left to choose
    return _command("verify", n, c, seed, samples, ("--samples", str(samples)), pass_c=False)


def _increasing_weights(rng: random.Random, n: int) -> list:
    c = [rng.uniform(0.0, 1.0)]
    for _ in range(n - 1):
        c.append(c[-1] + rng.uniform(0.05, 1.0))
    return c


def _census_pair(poly_n, points_n, poly_c, points_c, poly_seed, points_seed, out) -> list:
    return [
        _command("polynomials", poly_n, poly_c, poly_seed, 2 ** (poly_n - 1)),
        _command("critical-points", points_n, points_c, points_seed, 2 ** (points_n - 1), out=out),
    ]


def cycles(workload: str, seed: int, out: str):
    """Yield the workload's cycles forever; ``out`` is the scratch file for
    commands that write with ``--out``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    strata = []
    if workload == "descent":
        strata = [(n, k, rng.random()) for n in DESCENT_DIMS for k in range(DESCENT_STRATA)]
    for j in itertools.count():
        if workload == "descent":
            cycle = []
            for n, k, offset in strata:
                u = DESCENT_U_LOW + k + (offset + j * GOLDEN_STEP) % 1.0
                cycle.append(_flow(n, 10.0**u, _call_seed(rng), DESCENT_BATCH))
            rng.shuffle(cycle)
        elif workload == "oracle":
            cycle = [_verify(ORACLE_N, _call_seed(rng), ORACLE_SAMPLES)]
        else:
            cycle = _census_pair(
                CENSUS_POLY_N,
                CENSUS_POINTS_N,
                _increasing_weights(rng, CENSUS_POLY_N),
                _increasing_weights(rng, CENSUS_POINTS_N),
                _call_seed(rng),
                _call_seed(rng),
                out,
            )
        yield cycle


def warmup(workload: str, out: str) -> list:
    """Small commands of the workload's kinds, run once before timing so
    that lazy imports and first-call set-up are not measured."""
    if workload == "descent":
        return [_flow(3, 1.0, 0, 1)]
    if workload == "oracle":
        return [_verify(3, 0, 1)]
    return _census_pair(4, 4, [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], 0, 0, out)
