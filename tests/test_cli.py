import csv
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rotmorse
from rotmorse.cli import build_parser, main
from rotmorse.critical import default_costs, enumerate_critical_points, validate_costs
from rotmorse.riemannian import gradient_flow
from rotmorse.rotations import haar_sample, is_rotation, pair_indices

from helpers import assert_same_text, count_weight_checks


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """Run python with these arguments in a fresh process that imports
    rotmorse from the tree under test."""
    src = Path(rotmorse.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_critical_points_n3_json(capsys):
    code, out, _ = run_cli(capsys, "critical-points", "--n", "3", "--format", "json")
    assert code == 0
    points = json.loads(out)["critical_points"]
    assert len(points) == 4
    assert [p["index"] for p in points] == [0, 1, 2, 3]  # sorted by index then value
    assert points[0]["eps"] == [1, -1, -1]
    assert points[-1]["eps"] == [1, 1, 1]


def test_critical_points_json_record(capsys):
    code, out, _ = run_cli(capsys, "critical-points", "--n", "2", "--c", "1,2", "--format", "json")
    assert code == 0
    assert json.loads(out)["critical_points"][-1] == {
        "eps": [1, 1],
        "index": 1,
        "value": 3.0,
        "hessian_diagonal": {"(1,2)": -3.0},
    }


def test_critical_points_n1(capsys):
    code, out, _ = run_cli(capsys, "critical-points", "--n", "1", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["critical_points"]) == 1


def test_critical_points_table(capsys):
    code, out, _ = run_cli(capsys, "critical-points", "--n", "2")
    assert code == 0
    assert "total: 2 critical points" in out


def test_non_increasing_costs_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["critical-points", "--n", "3", "--c", "1,1,2"])
    assert excinfo.value.code == 2
    assert "strictly increasing" in capsys.readouterr().err


def test_unparseable_costs_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["critical-points", "--n", "2", "--c", "1,x"])
    assert excinfo.value.code == 2


def test_polynomials_perfect_verdict(capsys):
    code, out, _ = run_cli(capsys, "polynomials", "--n", "5")
    assert code == 0
    assert "verdict: PERFECT" in out


def test_polynomials_n2_json(capsys):
    code, out, _ = run_cli(capsys, "polynomials", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["morse"] == payload["poincare_basis"] == payload["poincare_product"] == [1, 1]
    assert payload["remainder"] == []
    assert payload["perfect"] is True


def test_parser_state_does_not_leak_between_main_calls(capsys):
    code, out, _ = run_cli(capsys, "polynomials", "--n", "3", "--c", "1,2,5")
    assert code == 0 and "c = [1.0, 2.0, 5.0]" in out
    code, out, _ = run_cli(capsys, "polynomials", "--n", "3")
    assert code == 0 and out.splitlines()[0] == "n = 3, c = [1.0, 2.0, 3.0]"
    assert build_parser() is build_parser()


def test_polynomials_n12_under_ten_seconds(capsys):
    import time

    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "polynomials", "--n", "12", "--format", "json")
    elapsed = time.perf_counter() - t0
    assert code == 0 and elapsed < 10.0
    assert sum(json.loads(out)["morse"]) == 2048


def test_polynomials_n60_runs(capsys):
    # the basis used to be listed, 2^59 ints at n = 60; now it is counted
    code, out, _ = run_cli(capsys, "polynomials", "--n", "60", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PERFECT" and payload["perfect"] is True
    assert payload["morse"] == payload["poincare_basis"] == payload["poincare_product"]
    coeffs = payload["poincare_basis"]
    assert sum(coeffs) == 2**59
    assert len(coeffs) == 1771 and coeffs == coeffs[::-1]


def test_verify_small_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--samples", "10", "--seed", "7")
    assert code == 0
    assert out.count("[PASS]") == 4


def test_verify_n4_documented_invocation(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "4", "--samples", "100", "--seed", "7", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    by_name = {s["name"]: s for s in payload["suites"]}
    assert by_name["gradient-fd"]["max_residual"] < 1e-7


def test_verify_json_suite_fields(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--samples", "1", "--format", "json")
    assert code == 0
    suites = json.loads(out)["suites"]
    for s in suites:
        assert list(s) == ["name", "passed", "max_residual", "threshold", "detail"]
    by_name = {s["name"]: s for s in suites}
    assert by_name["index-equivalence"]["passed"] is True


def test_verify_unreachable_tolerance_stops_at_the_floor_and_passes(capsys):
    # --tol sets only where a descent stops: below the gradient's rounding
    # floor each descent stops at that floor, charted at the minimum.
    code, out, _ = run_cli(
        capsys, "verify", "--n", "4", "--samples", "1", "--tol", "1e-300"
    )
    assert code == 0
    assert "[PASS] flow-classification" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "3", "--samples", "1", "--c", "1e-9,2e-9,3e-9"),
        ("--n", "2", "--c", "1e-300,2e-300"),
    ],
)
def test_verify_tiny_weights_give_a_verdict(capsys, argv):
    # The index suite's zero band is relative to the largest Hessian
    # diagonal entry, so admissible weights this small still pass it; the
    # flow suite may fail at this scale.
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code in (0, 4)
    assert "[PASS] index-equivalence" in out
    assert out.rstrip("\n").rsplit("\n", 1)[-1] in ("all suites passed", "one or more suites FAILED")
    assert err == ""


def test_flow_n2_converges_to_minimum(capsys):
    code, out, _ = run_cli(
        capsys, "flow", "--n", "2", "--samples", "100", "--seed", "1", "--format", "json"
    )
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["converged"] == 100
    assert set(summary["pattern_counts"]) <= {"++", "--"}
    assert summary["pattern_counts"].get("--", 0) >= 99


def test_flow_limits_enumerated_n3(capsys):
    code, out, _ = run_cli(
        capsys, "flow", "--n", "3", "--samples", "500", "--seed", "1", "--format", "json"
    )
    assert code == 0
    summary = json.loads(out)["summary"]
    assert set(summary["pattern_counts"]) <= {"+++", "+--", "-+-", "--+"}
    assert summary["unclassified"] == 0
    assert summary["converged"] == 500


def test_flow_zero_samples_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["flow", "--n", "4", "--samples", "0"])
    assert excinfo.value.code == 2


def test_flow_start_file(tmp_path, capsys):
    path = tmp_path / "start.json"
    path.write_text(json.dumps(np.eye(3).tolist()))
    code, out, _ = run_cli(capsys, "flow", "--n", "3", "--start", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["samples"] == 1
    assert payload["samples"][0]["classified_pattern"] == [1, 1, 1]
    sample = payload["samples"][0]
    assert list(sample) == [
        "final_point", "iterations", "final_gradient_norm", "classified_pattern", "converged"
    ]
    assert sample["final_point"] == np.eye(3).tolist()
    assert sample["converged"] is True


@pytest.mark.parametrize("extra", [("--samples", "5"), ("--seed", "3"), ("--samples", "1", "--seed", "0")])
def test_flow_start_file_refuses_samples_and_seed(tmp_path, capsys, extra):
    path = tmp_path / "start.json"
    path.write_text(json.dumps(np.eye(2).tolist()))
    with pytest.raises(SystemExit) as excinfo:
        main(["flow", "--n", "2", "--start", str(path), *extra])
    assert excinfo.value.code == 2
    assert "--samples and --seed cannot be used with --start" in capsys.readouterr().err


def test_flow_off_manifold_start_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(np.ones((3, 3)).tolist()))
    code, _, err = run_cli(capsys, "flow", "--n", "3", "--start", str(path))
    assert code == 2
    assert "not a rotation" in err


@pytest.mark.parametrize("entry", ["1e400", "NaN"])
def test_non_finite_start_is_no_rotation_and_warns_nothing(tmp_path, capsys, entry):
    # 1e400 reads as inf; neither it nor NaN reaches a matrix product.
    path = tmp_path / "start.json"
    path.write_text(f"[[{entry}, 0], [0, 1]]")
    A = np.array(json.loads(path.read_text()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_rotation(A)
        with pytest.raises(ValueError, match="not a rotation"):
            gradient_flow(A, [1, 2])
        code, _, err = run_cli(capsys, "flow", "--n", "2", "--start", str(path))
    assert code == 2
    assert err == "error: start matrix is not a rotation matrix within membership tolerance\n"


def test_flow_wrong_shape_start_exit_2(tmp_path, capsys):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(np.eye(2).tolist()))
    code, _, err = run_cli(capsys, "flow", "--n", "3", "--start", str(path))
    assert code == 2
    assert err == "error: start matrix has shape (2, 2), expected (3, 3)\n"


def test_flow_missing_start_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "flow", "--n", "3", "--start", "/nonexistent.json")
    assert code == 2
    assert "could not read" in err


@pytest.mark.parametrize("kind", ["missing", "directory", "not-json", "empty-path", "trailing-slash"])
def test_flow_unreadable_start_file_names_the_reason(tmp_path, capsys, kind):
    # The path is opened as given: "" and "start.json/" name no readable file.
    path = tmp_path / "start.json"
    arg, number = str(path), None
    if kind == "missing":
        number = errno.ENOENT
    elif kind == "directory":
        path.mkdir()
        number = errno.EISDIR
    elif kind == "empty-path":
        arg, number = "", errno.ENOENT
    else:
        path.write_text("[[1, 0], [0, 1]")
        if kind == "trailing-slash":
            arg, number = f"{path}/", errno.ENOTDIR
    if number is None:
        reason = "Expecting ',' delimiter: line 1 column 16 (char 15)"
    else:
        reason = f"[Errno {number}] {os.strerror(number)}: {arg!r}"
    code, out, err = run_cli(capsys, "flow", "--n", "2", "--start", arg)
    assert (code, out) == (2, "")
    assert err == f"error: could not read start file {arg!r}: {reason}\n"


def test_flow_samples_equal_seeded_haar_descents(capsys):
    n, seed, samples = 3, 5, 6
    code, out, _ = run_cli(
        capsys, "flow", "--n", str(n), "--samples", str(samples), "--seed", str(seed),
        "--format", "json",
    )
    assert code == 0
    rng = np.random.default_rng(seed)
    expected = [gradient_flow(haar_sample(n, rng), default_costs(n)) for _ in range(samples)]
    got = json.loads(out)["samples"]
    assert len(got) == samples
    for sample, res in zip(got, expected):
        assert sample["final_point"] == res.final_point.tolist()
        assert sample["iterations"] == res.iterations
        assert sample["final_gradient_norm"] == res.final_gradient_norm


@pytest.mark.parametrize("weights", [(), ("--c", "1e-9,2e-9,3e-9")], ids=["default", "unclassified"])
def test_flow_table_and_csv_agree_with_json(capsys, weights):
    # The bits of a descent depend on the BLAS build, so the three formats
    # of one run are checked against each other, not against digests.
    argv = ["flow", "--n", "3", "--samples", "6", "--seed", "5", *weights, "--format"]
    out = {}
    for fmt in ("json", "csv", "table"):
        code, out[fmt], _ = run_cli(capsys, *argv, fmt)
        assert code == 0
    data = json.loads(out["json"])
    samples, summary = data["samples"], data["summary"]
    if weights:
        assert summary["unclassified"] == len(samples)

    def key(pattern):
        return "unclassified" if pattern is None else "".join("+" if e > 0 else "-" for e in pattern)

    rows = list(csv.reader(io.StringIO(out["csv"])))
    assert rows[0] == ["sample", "iterations", "final_gradient_norm", "converged", "pattern"]
    assert rows[1:] == [
        [str(i), str(s["iterations"]), repr(s["final_gradient_norm"]), str(s["converged"]),
         key(s["classified_pattern"])]
        for i, s in enumerate(samples)
    ]

    its = summary["iterations"]
    limits = [
        f"  {k}  {count}  index {sum(j for j, e in enumerate(k) if e == '+')}"
        for k, count in summary["pattern_counts"].items()
    ]
    unclassified = [f"  unclassified  {summary['unclassified']}"] if summary["unclassified"] else []
    assert out["table"].splitlines() == [
        f"gradient flow on SO(3), c = {data['c']}, seed 5, {len(samples)} start(s)",
        f"converged: {summary['converged']}/{summary['samples']} "
        f"(worst final gradient norm {summary['max_final_gradient_norm']:.3e})",
        f"iterations: min {its['min']}, mean {its['mean']:.1f}, max {its['max']}",
        "limits per sign pattern:",
        *limits,
        *unclassified,
    ]


def test_same_seed_byte_identical_json(capsys):
    argv = ["flow", "--n", "2", "--samples", "10", "--seed", "3", "--format", "json"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "points.json"
    code, out, _ = run_cli(
        capsys, "critical-points", "--n", "2", "--format", "json", "--out", str(dest)
    )
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["n"] == 2


def test_out_flag_unwritable_path_exit_2(tmp_path, capsys):
    dest = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(
        capsys, "critical-points", "--n", "2", "--format", "json", "--out", str(dest)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: could not write")
    assert not dest.exists()


def test_critical_points_csv(capsys):
    code, out, _ = run_cli(capsys, "critical-points", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,value,eps,hessian_diagonal"
    assert len(lines) == 3


def test_invalid_n_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["critical-points", "--n", "0"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["flow", "verify"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exit_2(capsys, command, tol):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--n", "3", "--samples", "3", "--tol", tol])
    assert excinfo.value.code == 2
    assert "tol must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["flow", "verify"])
@pytest.mark.parametrize("c", ["0,5e-324,1", "0,1e-200,1e200"])
def test_weights_that_tie_once_scaled_exit_2(command, c):
    # The descent runs at weights scaled so that the largest lies in
    # [0.5, 1), where these tie; flow and verify refuse them before any
    # descent starts, in a fresh process well inside the timeout.
    src = Path(rotmorse.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [command, "--n", "3", "--samples", "20", "--c", c]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "rotmorse", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "float64 range" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize("command", ["critical-points", "polynomials"])
@pytest.mark.parametrize("c", ["0,5e-324,1", "0,1e-200,1e200"])
def test_exact_commands_accept_weights_that_tie_once_scaled(capsys, command, c):
    code, out, _ = run_cli(capsys, command, "--n", "3", "--c", c)
    assert code == 0 and out


@pytest.mark.parametrize("command", ["critical-points", "polynomials", "verify", "flow"])
def test_negative_seed_exit_2(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--n", "3", "--seed", "-1"])
    assert excinfo.value.code == 2
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("polynomials", "--n", "3", "--tol", "1e-3"),
        ("critical-points", "--n", "3", "--samples", "5"),
    ],
)
def test_exact_commands_refuse_samples_and_tol(capsys, argv):
    # Only verify and flow sample points or descend, so only they take these.
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        '[["a","b"],["c","d"]]',
        '{"x": 1}',
        "[[1,0],[0]]",
        pytest.param("[[1" + "0" * 400 + "]]", id="oversized-int"),
    ],
)
def test_flow_malformed_start_file_exit_2(tmp_path, capsys, content):
    path = tmp_path / "start.json"
    path.write_text(content)
    code, _, err = run_cli(capsys, "flow", "--n", "2", "--start", str(path))
    assert code == 2
    assert "could not read start file" in err


# sha256 of stdout at the default weights. Every float in these outputs is
# a small integer, exact in binary, so the bytes do not depend on the BLAS
# build; a digest that changes means the output format changed.
EXACT_OUTPUT_SHA256 = {
    ("critical-points", 1, "json"):
        "16d81c4d47101bad546f66346f78a482aa41eba40b8629100f83e99306fc5a34",
    ("critical-points", 1, "csv"):
        "3de1bbd456a17deff0d10143b82939babd3973c616e31c6c24f8caea2582d7bb",
    ("critical-points", 1, "table"):
        "d3c884ad2ad7b8cc5254ab03336c6aa7b8464c6e1721a6ff3aefc0339c3b89ac",
    ("critical-points", 2, "json"):
        "113afbe7d78bf059b6452edeb6e556865ffaa5ff64b747b6422d27f331f8bcc5",
    ("critical-points", 2, "csv"):
        "4ade32fb4aa5b0dc6f32b87639bc359b45e4e7e467e487fa00c7b2f66151481a",
    ("critical-points", 2, "table"):
        "3a4fb991f3ecdfb17ac44550a6f783f5e6b607c7ad3e6b2ec648d4ea5c7e56c6",
    ("critical-points", 5, "json"):
        "eee099dd6a1c0d88a92c94540d30b5d73fa1dd12199dcb1d86c9ac43067d5a9f",
    ("critical-points", 5, "csv"):
        "5273cb4a416a7ccd56abf205200c5a0512f68c5f1ef7be3bdd713dfac6040e55",
    ("critical-points", 5, "table"):
        "04096e6bf054e1aade268e808746ce515fb9f60619a77d16ec505b4f6c151c3c",
    ("polynomials", 1, "json"):
        "5494c9ec280fbe94b7542fc7ce8b0224f335144871b46deb7e2e2882b075b876",
    ("polynomials", 1, "csv"):
        "bb0e805974b419da91833ac90b48fed68ced641b04e5adb8b8ad04dfbe0dd950",
    ("polynomials", 1, "table"):
        "1ffab4f32d95062d39db2128a8daf93f17f9c687ebceb44303e1cd8dc497ce15",
    ("polynomials", 2, "json"):
        "e2874ab54cccfb6a2c124e423e0418726be5a7a22aea1dbd1f756ed448533570",
    ("polynomials", 2, "csv"):
        "716de04c030edbeedc20fea60f2fa99de3eb347e8eb4d7ee2f0a5454cef5637a",
    ("polynomials", 2, "table"):
        "f65d00558f7031752e9707ccd2b97bc7611ceb8ca16cffd3dde9c12e8cb53e67",
    ("polynomials", 5, "json"):
        "f04845a7cf804d881361616160cbba488978b126fd2f83ed109fdbb20bb4eabd",
    ("polynomials", 5, "csv"):
        "0d3994f0bb75a7a9dd127aba00491b1fb1bdf8a4bc401319671dc5191b4e16ea",
    ("polynomials", 5, "table"):
        "043223698bab504e2068e3fe35d17268a4cf4fb454382a7917ef98bcadfcf06e",
}


@pytest.mark.parametrize("command,n,fmt", sorted(EXACT_OUTPUT_SHA256))
def test_exact_outputs_byte_stable(capsys, command, n, fmt):
    code, out, _ = run_cli(capsys, command, "--n", str(n), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXACT_OUTPUT_SHA256[(command, n, fmt)]


@pytest.mark.parametrize(
    "argv",
    [
        ("flow", "--n", "3", "--samples", "2"),
        ("flow", "--n", "3", "--samples", "2", "--c", "1,2,3"),
        ("verify", "--n", "3", "--samples", "2"),
        ("verify", "--n", "3", "--samples", "2", "--c", "1,2,3"),
    ],
)
def test_flow_and_verify_validate_the_weights_once(monkeypatch, capsys, argv):
    calls = count_weight_checks(monkeypatch)
    code, _, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["critical-points", "polynomials"])
@pytest.mark.parametrize("c", [None, "1,2,3"])
def test_exact_commands_validate_the_weights_once(monkeypatch, capsys, command, c):
    calls = count_weight_checks(monkeypatch)
    code, _, _ = run_cli(capsys, command, "--n", "3", *(("--c", c) if c else ()), "--format", "json")
    assert code == 0
    assert len(calls) == 1


# Modules that the exact path runs none of: numpy belongs to the float layer,
# scipy is no dependency at all, and the rest serve code that no exact
# command runs.
NOT_ON_THE_EXACT_PATH = ("numpy", "scipy", "dataclasses", "inspect", "typing", "pathlib", "csv")


def test_exact_path_loads_neither_numpy_nor_scipy():
    # Each step runs in a fresh process without site (-S), which may load
    # some of these itself, and is charged only with the modules it adds.
    main_call = "import rotmorse.cli; assert rotmorse.cli.main({}) == 0"
    for step in (
        "import rotmorse.cli",
        "import rotmorse.topology",
        main_call.format(["polynomials", "--n", "12"]),
        main_call.format(["polynomials", "--n", "12", "--format", "json"]),
    ):
        code = (
            f"import sys; before = set(sys.modules); {step}; "
            f"loaded = sorted((set(sys.modules) - before) & set({NOT_ON_THE_EXACT_PATH!r})); "
            "assert not loaded, loaded"
        )
        proc = run_python("-S", "-c", code)
        assert proc.returncode == 0, (step, proc.stderr)


def test_no_command_loads_dataclasses():
    # The records are namedtuples, so no module of the package needs it.
    code = (
        "import sys; before = set(sys.modules)\n"
        "from rotmorse.cli import main\n"
        "for argv in (['flow', '--n', '3', '--samples', '2'], ['verify', '--n', '3', '--samples', '2'],\n"
        "             ['critical-points', '--n', '3']):\n"
        "    assert main([*argv, '--format', 'json']) == 0\n"
        "assert 'dataclasses' not in set(sys.modules) - before\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


# What each bad argument writes last to stderr, with exit code 2, before the
# float layer is needed.
NUMPY_FREE_ARGUMENT_ERRORS = {
    ("critical-points", "--n", "0"): "n must be >= 1, got 0",
    ("critical-points", "--n", "3", "--c", "1,1,2"): "cost vector must be strictly increasing",
    ("flow", "--n", "0"): "n must be >= 1, got 0",
    ("verify", "--n", "3", "--c", "1,x,3"): "could not parse --c '1,x,3' as comma-separated reals",
    ("flow", "--n", "3", "--tol", "0"): "grad_tol must be finite and positive, got 0.0",
    ("verify", "--n", "3", "--tol", "nan"): "grad_tol must be finite and positive, got nan",
    ("flow", "--n", "3", "--c", "0,5e-324,1"):
        "cost vector spans more than the float64 range: scaled to max < 1, it ties",
    ("verify", "--n", "3", "--c", "0,5e-324,1"):
        "cost vector spans more than the float64 range: scaled to max < 1, it ties",
    ("verify", "--n", "3", "--seed", "-1"): "seed must be >= 0, got -1",
    ("flow", "--n", "3", "--samples", "0"): "samples must be >= 1, got 0",
    ("flow", "--n", "3", "--start", "start.json", "--samples", "2"):
        "--samples and --seed cannot be used with --start",
}


@pytest.mark.parametrize("argv", list(NUMPY_FREE_ARGUMENT_ERRORS))
def test_argument_errors_caught_without_the_float_layer_load_no_numpy(argv):
    code = (
        "import sys\n"
        "from rotmorse.cli import main\n"
        "try:\n"
        f"    main({list(argv)!r})\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 2, exc.code\n"
        "    assert 'numpy' not in sys.modules\n"
        "else:\n"
        "    raise AssertionError('no exit')\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.endswith(f"rotmorse: error: {NUMPY_FREE_ARGUMENT_ERRORS[argv]}\n")


@pytest.mark.parametrize(
    "argv", [("polynomials", "--n", "6"), ("verify", "--n", "3", "--samples", "2")]
)
def test_csv_from_a_fresh_process_equals_csv_in_process(capsys, argv):
    # main in process, as the argv grid runs it, writes what a fresh process writes
    argv = (*argv, "--format", "csv")
    proc = run_python("-m", "rotmorse", *argv)
    code, out, _ = run_cli(capsys, *argv)
    assert proc.returncode == code == 0, proc.stderr
    assert proc.stdout == out


# What polynomials writes to stderr, with exit code 2, for each class of bad --c.
BAD_WEIGHTS_ERRORS = {
    "1,1,2": "cost vector must be strictly increasing",
    "-1,1,2": "cost vector must satisfy 0 <= c_1",
    "nan,1,2": "cost vector entries must be finite",
    "1,inf,2": "cost vector entries must be finite",
    "1,2": "cost vector has length 2, expected 3",
    "1,x,3": "could not parse --c '1,x,3' as comma-separated reals",
}


@pytest.mark.parametrize("c", sorted(BAD_WEIGHTS_ERRORS))
def test_polynomials_refuses_bad_weights(monkeypatch, capsys, c):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    with pytest.raises(SystemExit) as excinfo:
        main(["polynomials", "--n", "3", f"--c={c}"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err == (
        "usage: rotmorse [-h] {critical-points,polynomials,verify,flow} ...\n"
        f"rotmorse: error: {BAD_WEIGHTS_ERRORS[c]}\n"
    )


def test_closed_stdout_exits_1_without_a_traceback():
    # The reader takes one line and closes the pipe while the command is
    # still writing: about 0.5 MB of flow JSON, written at once, and about
    # 5 MB of critical-points JSON, written record by record.
    src = Path(rotmorse.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv in (
        ["flow", "--n", "4", "--samples", "1000", "--seed", "42", "--format", "json"],
        ["critical-points", "--n", "12", "--format", "json"],
    ):
        command = [sys.executable, "-m", "rotmorse", *argv]
        with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            try:
                _, err = proc.communicate(timeout=60)
            finally:
                proc.kill()
        assert first == b"{\n", argv
        assert proc.returncode == 1, argv
        assert err == b"", argv


def _increasing_weights(n: int, seed: int) -> str:
    c = np.cumsum(np.random.default_rng(seed).uniform(0.05, 1.0, n))
    return ",".join(map(repr, c.tolist()))


@pytest.mark.parametrize(
    "argv",
    [
        ("critical-points", "--n", "9", "--c", _increasing_weights(9, 9)),
        ("flow", "--n", "3", "--samples", "20", "--c", _increasing_weights(3, 3)),
        ("verify", "--n", "4", "--samples", "3", "--c", _increasing_weights(4, 4)),
        ("polynomials", "--n", "12", "--c", _increasing_weights(12, 12)),
        # the descent runs at weights scaled near 1, so its norms stay finite here
        pytest.param(("flow", "--n", "2", "--samples", "2", "--c", "1e300,2e300"), id="huge-weights"),
    ],
)
def test_json_output_is_stdlib_indented_json(tmp_path, capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert_same_text(out, json.dumps(json.loads(out), indent=2) + "\n")
    if "1e300,2e300" in argv:
        assert "Infinity" not in out
        assert all(math.isfinite(x["final_gradient_norm"]) for x in json.loads(out)["samples"])
    dest = tmp_path / "out.json"
    code, printed, _ = run_cli(capsys, *argv, "--format", "json", "--out", str(dest))
    assert code == 0 and printed == ""
    assert_same_text(dest.read_text(), out)


def _reference_critical_points_text(n: int, c: np.ndarray, fmt: str) -> str:
    """The critical-points stdout built the slow way, as the reference: one
    record object per pattern, sorted by (index, value), then one JSON dict
    per record through `json.dumps`, one CSV row per record through the csv
    module, or one table line per record."""
    records = sorted(enumerate_critical_points(n, c), key=lambda r: (r.index, r.value))

    def key(eps):
        return "".join("+" if e > 0 else "-" for e in eps)

    if fmt == "json":
        pair_keys = [f"({i},{j})" for i, j in pair_indices(n)]
        points = [
            {
                "eps": r.pattern,
                "index": r.index,
                "value": r.value,
                "hessian_diagonal": dict(zip(pair_keys, r.hessian_diagonal.tolist())),
            }
            for r in records
        ]
        return json.dumps({"n": n, "c": c.tolist(), "critical_points": points}, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("index", "value", "eps", "hessian_diagonal"))
        for r in records:
            hessian = ";".join(repr(h) for h in r.hessian_diagonal.tolist())
            writer.writerow((r.index, repr(r.value), key(r.pattern), hessian))
        return buf.getvalue().rstrip("\n") + "\n"
    lines = [f"critical points of f_c on SO({n}), c = {c.tolist()}", f"{'index':>5}  {'value':>12}  pattern"]
    lines += [f"{r.index:>5}  {r.value:>12.6g}  {key(r.pattern)}" for r in records]
    return "\n".join([*lines, f"total: {len(records)} critical points"]) + "\n"


@st.composite
def _weight_families(draw):
    """(n, weights) with n in 1..9; weights None (the default), random
    increasing, starting at 0, near 1e-300, or near 1e308, where values and
    Hessian entries overflow to +-inf."""
    n = draw(st.integers(1, 9))
    family = draw(st.sampled_from(["default", "random", "c1-zero", "tiny", "huge"]))
    if family == "default":
        return n, None
    c = np.cumsum(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    if family == "c1-zero":
        c = c - c[0]
    elif family == "tiny":
        c = c * 1e-300
    elif family == "huge":
        c = 1e308 * (0.6 + c / c[-1])
    return n, validate_costs(c)


def _explicit_weights(n: int) -> tuple:
    return n, validate_costs(np.cumsum(np.random.default_rng(n).uniform(0.05, 1.0, n)))


# Texts are picked per run of items reading at most 5 signs. Up to n = 5 one
# run reads all n signs, whose product is fixed, so half its codes never
# occur; at n = 12 the 11 pairs of the first Hessian row split into runs of
# 4, 4 and 3, beyond the n <= 9 that the strategy draws.
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_weight_families())
@example(_explicit_weights(2))
@example(_explicit_weights(3))
@example(_explicit_weights(4))
@example(_explicit_weights(5))
@example(_explicit_weights(12))
def test_critical_points_equal_the_record_reference(tmp_path, capsys, case):
    n, c = case
    argv = ["critical-points", "--n", str(n)]
    if c is not None:
        argv += ["--c", ",".join(map(repr, c.tolist()))]
    c = default_costs(n) if c is None else c
    dest = tmp_path / "out.txt"
    for fmt in ("json", "csv", "table"):
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        assert_same_text(out, _reference_critical_points_text(n, c, fmt))
        code, printed, _ = run_cli(capsys, *argv, "--format", fmt, "--out", str(dest))
        assert code == 0 and printed == ""
        assert_same_text(dest.read_text(), out)


@pytest.mark.parametrize(
    "n,fmt",
    [
        pytest.param(6, "json", id="json"),
        pytest.param(6, "csv", id="csv"),
        pytest.param(6, "table", id="table"),
        # the n = 16 JSON is 146 MB; the table shows a NaN value as "nan"
        pytest.param(16, "table", id="n16-table"),
    ],
)
def test_critical_points_at_huge_weights_write_no_warning(n, fmt):
    # Values and Hessian entries overflow to +-inf here, each with the sign
    # of its exact sum and none as NaN; numpy is not asked to warn about it,
    # and the output keeps the non-finite texts.
    c = "1e308,1.2e308,1.4e308,1.5e308,1.6e308,1.7e308"
    if n == 16:
        c = ",".join(map(repr, np.linspace(1e308, 1.7e308, 16).tolist()))
    src = Path(rotmorse.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["critical-points", "--n", str(n), "--c", c, "--format", fmt]
    proc = subprocess.run(
        [sys.executable, "-m", "rotmorse", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "nan" not in proc.stdout.lower()
    assert_same_text(proc.stdout, _reference_critical_points_text(n, validate_costs(c.split(",")), fmt))
    if fmt == "json":
        assert "-Infinity" in proc.stdout and '": Infinity' in proc.stdout
    if fmt == "csv":
        # ++---- has the exact value -4e308; its leading terms alone overflow to +inf
        assert "\n1,-inf,++----," in proc.stdout and ";inf;" in proc.stdout
