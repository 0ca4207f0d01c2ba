import hashlib
import json

import numpy as np
import pytest

from rotmorse.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_critical_points_n3_json(capsys):
    code, out, _ = run_cli(capsys, "critical-points", "--n", "3", "--format", "json")
    assert code == 0
    points = json.loads(out)["critical_points"]
    assert len(points) == 4
    assert [p["index"] for p in points] == [0, 1, 2, 3]  # sorted by index then value
    assert points[0]["eps"] == [1, -1, -1]
    assert points[-1]["eps"] == [1, 1, 1]


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


def test_polynomials_n12_under_ten_seconds(capsys):
    import time

    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "polynomials", "--n", "12", "--format", "json")
    elapsed = time.perf_counter() - t0
    assert code == 0 and elapsed < 10.0
    assert sum(json.loads(out)["morse"]) == 2048


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


def test_verify_unreachable_tolerance_exit_4(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "4", "--samples", "1", "--tol", "1e-300"
    )
    assert code == 4
    assert "[FAIL] flow-classification" in out


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


def test_flow_off_manifold_start_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(np.ones((3, 3)).tolist()))
    code, _, err = run_cli(capsys, "flow", "--n", "3", "--start", str(path))
    assert code == 2
    assert "not a rotation" in err


def test_flow_missing_start_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "flow", "--n", "3", "--start", "/nonexistent.json")
    assert code == 2
    assert "could not read" in err


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


@pytest.mark.parametrize("content", ['[["a","b"],["c","d"]]', '{"x": 1}', "[[1,0],[0]]"])
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
