import os
import subprocess
import sys
from pathlib import Path

import rotmorse


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
