"""Thread-count determinism self-check for the benchmark's two problems.

    python3 -m pytest -q perfbench/test_determinism.py

xvamild promises bit-for-bit identical results at any thread count.  A
speed-up that breaks this must show here:

* ``xvamild solve`` on the README config book gives the same output
  digests in ``manifest.json`` at ``--threads 1`` and ``--threads 2``;
* ``picard_solve`` on the grid_solve problem gives identical values at 1
  and 2 threads with 3000 paths.  The solver sizes a path chunk as
  500000 // (21 * 9) = 2645 paths on this grid, so 3000 paths make two
  chunks and the second thread has work.

The first check takes a few seconds, the second about half a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import problems  # noqa: E402


def test_solve_manifest_digests_equal_at_one_and_two_threads(tmp_path):
    from xvamild.cli import main

    digests = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        argv = ["solve", "--config", str(problems.BOOK), "--out", str(out),
                "--threads", str(threads), "--seed", "11"]
        assert main(argv) == 0
        with open(out / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["threads"] == threads
        digests[threads] = manifest["outputs"]
    assert digests[1] == digests[2]


def test_grid_solve_values_equal_at_one_and_two_threads():
    from xvamild.mildsolver import picard_solve

    reports = {}
    for threads in (1, 2):
        spec, model, t_nodes, x_nodes, v_nodes, mc = problems.grid_problem(
            5, n_paths=3000, threads=threads
        )
        reports[threads] = picard_solve(
            spec, model, t_nodes, x_nodes, v_nodes, mc, tol=problems.GRID_TOL
        )
    one, two = reports[1], reports[2]
    assert np.array_equal(one.u.values, two.u.values)
    assert one.sup_diffs == two.sup_diffs
    assert one.stderr_floor == two.stderr_floor
    assert one.converged and two.converged
