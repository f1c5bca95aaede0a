"""Regenerate ``reference.json``: the stored result of every pooled master seed.

    python3 perfbench/make_reference.py

Runs each operation of each workload once per master seed of the pool
(``problems.SEED_POOL``), untraced, and stores the checked quantities with
the bound by which a later run may differ from them:

* default curves (deterministic): 1e-9;
* value-field means and the refined price: the solver's stop tolerance
  (``solver.tol`` of the book, ``problems.GRID_TOL`` on the grid).  With
  common random numbers these numbers are deterministic per seed, so a
  change that keeps results (reordered arithmetic moves them by ~1e-12)
  stays far inside, and one that moves them by more than the tolerance the
  solver promises is a different result;
* ``verify``: the PASS/FAIL verdict of every check, and the martingale
  check's max |z| within 0.5.  The martingale check is a 3-sigma test on
  fresh paths and FAILs on some pooled seeds; those
  verdicts are stored as they are, not left out of the pool.

Only regenerate when a change is meant to alter results, and say why.
"""

from __future__ import annotations

import json
import sys

import problems
import run as bench


def _pin(value: float, bound: float) -> dict:
    return {"value": value, "bound": bound}


def _grid_ref(summary: dict, tol: float) -> dict:
    return {"u_mean": _pin(summary["u_mean"], tol), "u0_mean": _pin(summary["u0_mean"], tol)}


def _checked(workload: str, op: dict) -> dict:
    if op.get("error") or op.get("rc", 0) != 0 or "summary" not in op:
        raise RuntimeError(f"{workload} master seed {op['master_seed']} failed: {op}")
    return op["summary"]


def main() -> int:
    seeds = list(range(problems.SEED_POOL))
    out = {"desk_cli": {}, "grid_solve": {}, "verify_desk": {}}

    book_tol = problems.load_book()["solver"]["tol"]
    desk = bench.Run("desk_cli", 0, 0.0, False, limit_s=3600.0)
    for s in seeds:
        entry = {}
        for command in bench.DESK_CYCLE:
            summary = _checked("desk_cli", bench.run_cli_op(desk, 0, command, s, False))
            if command[0] == "defaults":
                entry["defaults"] = {"atom_joint": _pin(summary["atom_joint"], 1e-9),
                                     "empirical_sup_gap": _pin(summary["empirical_sup_gap"], 1e-9)}
            else:
                entry[command[0]] = _grid_ref(summary, book_tol)
            if command[0] == "price":
                entry["price"]["value"] = _pin(summary["value"], book_tol)
        out["desk_cli"][str(s)] = entry
        print("desk_cli", s, entry, flush=True)

    grid = bench.Run("grid_solve", 0, 1e9, False, limit_s=3600.0)
    payload = bench.grid_loop(grid, seeds)
    for op in payload["ops"]:
        if "summary" not in op or not op["summary"]["converged"]:
            raise RuntimeError(f"grid_solve master seed {op['master_seed']} failed: {op}")
        out["grid_solve"][str(op["master_seed"])] = {"solve": _grid_ref(op["summary"], problems.GRID_TOL)}
    print("grid_solve", out["grid_solve"], flush=True)

    verify = bench.Run("verify_desk", 0, 0.0, False, limit_s=3600.0)
    for s in seeds:
        op = bench.run_cli_op(verify, 0, ("verify",), s, False)
        if op.get("error") or "summary" not in op:  # exit code 1 is a FAIL verdict
            raise RuntimeError(f"verify_desk master seed {s} failed: {op}")
        checks = op["summary"]["checks"]
        z = bench._max_abs_z(checks)
        out["verify_desk"][str(s)] = {
            "verify": {"max_abs_z": _pin(z, 0.5)},
            "verdicts": {name: c["ok"] for name, c in checks.items()},
        }
        print("verify_desk", s, z, out["verify_desk"][str(s)]["verdicts"], flush=True)

    with open(problems.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
