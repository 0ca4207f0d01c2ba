"""The argv grid of argv_grid.py on this tree alone, without its slow argv.

Its bytes are not pinned: `python tests/argv_grid.py --against REV`
compares them with another revision's."""

import tempfile
import time
from pathlib import Path

import rotmorse

import argv_grid


def test_the_grid_breaks_no_rule():
    # No traceback, exit codes in 0..4, JSON that parses, CSV that
    # csv.reader reads as split(",") does, polynomials exits 0, and every
    # argument error exits 2 with argparse's last line.
    cases = argv_grid.grid(slow=False)
    began = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        results = argv_grid.run(Path(rotmorse.__file__).resolve().parents[1], cases, Path(tmp))
        assert argv_grid.problems(cases, argv_grid.records(results)) == []
    print(f"{len(cases)} argv in {time.perf_counter() - began:.1f} s")
