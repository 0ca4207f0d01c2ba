import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rotmorse
from rotmorse.verify import SuiteResult


def test_public_names_resolve_once():
    # A stale name in __all__ would make `from rotmorse import *` raise.
    assert len(set(rotmorse.__all__)) == len(rotmorse.__all__)
    namespace = {}
    exec("from rotmorse import *", namespace)
    assert all(name in namespace for name in rotmorse.__all__)


def test_public_names_are_listed_before_they_are_imported():
    # In a fresh process the names resolve on first use: dir() lists them
    # all before any is imported, and the star import resolves every one.
    src = Path(rotmorse.__file__).resolve().parents[1]
    code = (
        "import sys, rotmorse; names = set(rotmorse.__all__)\n"
        "assert names <= set(dir(rotmorse)), names - set(dir(rotmorse))\n"
        "assert 'numpy' not in sys.modules\n"
        "namespace = {}; exec('from rotmorse import *', namespace)\n"
        "assert names <= set(namespace), names - set(namespace)\n"
        "assert all(namespace[name] is getattr(rotmorse, name) for name in names)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr



def _syntax(module):
    return ast.parse((Path(rotmorse.__file__).parent / f"{module}.py").read_text())


def _count(tree, kind):
    return sum(isinstance(node, kind) for node in ast.walk(tree))


def test_every_descent_runs_one_loop():
    # riemannian has one while loop, _descend's, and _flows calls it. A new
    # step direction goes through that loop; verify, cli and critical have
    # no while loop of their own.
    tree = _syntax("riemannian")
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert _count(tree, ast.While) == _count(functions["_descend"], ast.While) == 1
    calls = ast.walk(functions["_flows"])
    assert any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_descend" for node in calls)
    for module in ("verify", "cli", "critical"):
        assert _count(_syntax(module), ast.While) == 0, module

_P4 = "IntPolynomial((1, 1, 1, 2, 1, 1, 1))"
# record type -> (a record, its fields in order, its repr)
RECORDS = {
    "PerfectnessReport": (
        lambda: rotmorse.is_perfect(4),
        ("n", "morse", "poincare_basis", "poincare_product", "remainder", "perfect"),
        f"PerfectnessReport(n=4, morse={_P4}, poincare_basis={_P4}, poincare_product={_P4}, "
        "remainder=IntPolynomial(()), perfect=True)",
    ),
    "FlowResult": (
        lambda: rotmorse.gradient_flow(np.eye(2), [1, 2]),
        ("final_point", "iterations", "final_gradient_norm", "classified_pattern", "converged"),
        "FlowResult(final_point=array([[1., 0.],\n       [0., 1.]]), iterations=0, "
        "final_gradient_norm=0.0, classified_pattern=(1, 1), converged=True)",
    ),
    "SuiteResult": (
        lambda: SuiteResult("gradient-fd", True, 0.0, 1e-07),
        ("name", "passed", "max_residual", "threshold", "detail"),
        "SuiteResult(name='gradient-fd', passed=True, max_residual=0.0, threshold=1e-07, detail='')",
    ),
    "CriticalPointRecord": (
        lambda: rotmorse.enumerate_critical_points(2)[1],
        ("pattern", "index", "value", "hessian_diagonal"),
        "CriticalPointRecord(pattern=(-1, -1), index=0, value=-3.0, hessian_diagonal=array([3.]))",
    ),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_api(name):
    # Every record at the public boundary is an immutable namedtuple.
    make, fields, text = RECORDS[name]
    record = make()
    assert type(record).__name__ == name and type(record)._fields == fields
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    values = tuple(getattr(record, field) for field in fields)
    assert record == values
    assert record._asdict() == dict(zip(fields, values))
    assert repr(record) == text
