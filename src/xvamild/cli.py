"""Command-line interface.

Subcommands: simulate (physical-measure paths), defaults (survival and
first-passage curves), solve (fixed-point value grid), price (solve plus
a refined single-point estimate), verify (desk-scale checks).  Every
command reads one JSON config, --seed applied to it and to verify's
--compare config, and writes into --out.  ``main`` frames every run: a
command that returns gets config.normalised.json and then manifest.json,
the digests of everything written; the manifest comes last, so an
interrupted run is detectable by its absence.  A run that raises, the
defaults density-identity refusal among them, leaves no manifest.

Exit codes: 0 success, 1 runtime or verification failure, 2 config
validation failure, 3 invalid-path budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    RunSetup,
    build_run,
    emit_config,
    load_config,
    normalise_config,
    resolve_axes,
)
from .defaultclock import (default_density, empirical_survival, identity_gaps,
                           sample_default_times, survival_curve)
from .gridfn import CoverageError, save_grid, write_grid_csv, write_table
from .mildsolver import McConfig, picard_solve, refine_point
from .simulate import InvalidPathBudgetError, TimeGrid, positivity_report, simulate_paths
from .special import DomainError, SingularInputError
from .valuation import discount
from .verify import run_verify
from .volmodel import InvariantError, check_positivity


class OutputDir:
    """Tracks files written into the run directory, made at the first write, and their digests."""

    def __init__(self, root: str):
        self.root = root
        self.digests = {}

    def path(self, name: str) -> str:
        os.makedirs(self.root, exist_ok=True)
        return os.path.join(self.root, name)

    def record(self, name: str) -> None:
        h = hashlib.sha256()
        with open(self.path(name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        self.digests[name] = h.hexdigest()

    def write_text(self, name: str, text: str) -> None:
        with open(self.path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        self.record(name)

    def write_json(self, name: str, payload) -> None:
        self.write_text(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def write_with(self, name: str, writer) -> None:
        with open(self.path(name), "w", encoding="utf-8", newline="") as fh:
            writer(fh)
        self.record(name)

    def finish_manifest(self, command: str, config_path: str, setup: RunSetup,
                        threads: int, started: float) -> None:
        """Write config.normalised.json, then manifest.json with every file's digest."""
        normalised = emit_config(setup.cfg)
        self.write_text("config.normalised.json", normalised)
        with open(config_path, "rb") as fh:
            raw_digest = hashlib.sha256(fh.read()).hexdigest()
        manifest = {
            "tool": "xvamild",
            "version": __version__,
            "command": command,
            "config_file_sha256": raw_digest,
            "config_sha256": hashlib.sha256(normalised.encode()).hexdigest(),
            "master_seed": setup.master_seed,
            "threads": threads,
            "wall_time_s": round(time.perf_counter() - started, 3),
            "outputs": dict(sorted(self.digests.items())),
        }
        with open(self.path("manifest.json"), "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _resolve_threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return max(1, os.cpu_count() or 1)


def _setup_from(path: str, seed: int | None) -> RunSetup:
    cfg = normalise_config(load_config(path))
    if seed is not None:
        cfg["mc"]["master_seed"] = seed
    return build_run(cfg)


# -- subcommands ------------------------------------------------------------------


def cmd_simulate(args, setup, threads, out) -> int:
    grid = TimeGrid(setup.t0, setup.t_end, setup.n_steps)
    paths = simulate_paths(
        setup.model_p, (math.log(setup.s0), setup.v0), grid,
        setup.n_paths, setup.master_seed,
    )

    out.write_with("terminal.csv", lambda fh: write_table(
        fh, ("path_id", "x_T", "v_T", "invalid"),
        (range(paths.n_paths), paths.x[:, -1], paths.v[:, -1], paths.invalid)))

    x, v = paths.valid_x(), paths.valid_v()
    ks = range(len(grid.nodes))  # one reduction per node: x.mean(axis=0) sums in another order
    out.write_with("summary.csv", lambda fh: write_table(
        fh, ("t", "mean_x", "std_x", "mean_v", "std_v", "min_v"),
        (grid.nodes, [x[:, k].mean() for k in ks], [x[:, k].std(ddof=1) for k in ks],
         [v[:, k].mean() for k in ks], [v[:, k].std(ddof=1) for k in ks], v.min(axis=0))))

    path_rep = positivity_report(paths)
    feller = check_positivity(setup.params, horizon=setup.t_end)
    out.write_json("positivity.json", {"paths": asdict(path_rep), "condition": asdict(feller)})
    print(
        f"simulated {paths.n_paths} paths over [{setup.t0}, {setup.t_end}] "
        f"({setup.n_steps} steps), {paths.n_invalid} invalid; wrote {args.out}"
    )
    return 0


def cmd_defaults(args, setup, threads, out) -> int:
    if setup.spec.defaults is None:
        raise ConfigError("defaults", "this command needs default clocks configured")
    dspec = setup.spec.defaults

    # the identity must hold before anything is written
    gaps = identity_gaps(dspec, setup.t0, setup.t_end)
    worst = max(gaps.values())
    if worst > 1e-6:
        raise DomainError(
            f"density identity gap {worst:.3e} exceeds 1e-6; refusing to write curves")

    grid = TimeGrid(setup.t0, setup.t_end, setup.n_steps)
    curve = survival_curve(dspec, grid)
    dens = default_density(dspec, grid)

    header = ["t", "investor", "counterparty", "joint"]
    columns = [grid.nodes, curve.investor, curve.counterparty, curve.joint]
    mc_gap = None
    tie_fraction = None
    if args.mc_check:
        times = sample_default_times(dspec, grid, 100000, setup.master_seed)
        emp = empirical_survival(times.joint, grid.nodes)
        tie_fraction = times.tie_fraction
        mc_gap = float(np.max(np.abs(emp - curve.joint)))
        header += ["empirical_joint", "abs_gap"]
        columns += [emp, np.abs(emp - curve.joint)]

    out.write_with("survival.csv", lambda fh: write_table(fh, header, columns))
    out.write_with("density.csv", lambda fh: write_table(
        fh, ("t", *dens), (grid.nodes, *(d.values for d in dens.values()))))

    summary = {
        "identity_gaps_dense": gaps,
        "atoms": {name: d.atom for name, d in dens.items()},
    }
    if mc_gap is not None:
        summary["empirical_sup_gap"] = mc_gap
        summary["tie_fraction"] = tie_fraction
    out.write_json("defaults_summary.json", summary)
    if mc_gap is not None and mc_gap > 0.01:
        print(f"empirical survival gap {mc_gap:.4f} exceeds 0.01", file=sys.stderr)
        return 1
    line = f"default curves on {len(grid.nodes)} nodes, max identity gap {worst:.2e}"
    if mc_gap is not None:
        line += f", empirical sup gap {mc_gap:.4f}"
    print(line + f"; wrote {args.out}")
    return 0


def _solve(setup, threads, fresh_check):
    t_nodes, x_nodes, v_nodes = resolve_axes(setup)
    mc = McConfig(
        n_paths=setup.n_paths, n_steps=setup.n_steps,
        master_seed=setup.master_seed, threads=threads,
    )
    rep = picard_solve(
        setup.spec, setup.model_q, t_nodes, x_nodes, v_nodes, mc,
        tol=setup.tol, max_sweeps=setup.max_iter,
        validate_fresh=fresh_check,
    )
    return rep, mc


def _write_solve_outputs(out: OutputDir, rep) -> None:
    out.write_with("value_grid.csv", lambda fh: write_grid_csv(rep.u, fh))
    save_grid(rep.u, out.path("value_grid.npz"))
    out.record("value_grid.npz")
    report = {f.name: getattr(rep, f.name) for f in fields(rep) if f.name != "u"}
    report["grid"] = {
        "t": [float(t) for t in rep.u.t_nodes],
        "x_range": [float(rep.u.x_nodes[0]), float(rep.u.x_nodes[-1])],
        "v_range": [float(rep.u.v_nodes[0]), float(rep.u.v_nodes[-1])],
        "nx": len(rep.u.x_nodes),
        "nv": len(rep.u.v_nodes),
    }
    out.write_json("report.json", report)


def cmd_solve(args, setup, threads, out) -> int:
    rep, _ = _solve(setup, threads, args.fresh_check)
    _write_solve_outputs(out, rep)
    here = float(rep.u.evaluate_at_time(setup.t0, math.log(setup.s0), setup.v0))
    status = "converged" if rep.converged else "NOT converged"
    print(
        f"{status} in {sum(rep.sweeps_per_slab)} sweeps over "
        f"{max(len(rep.slab_bounds) - 1, 1)} slab(s); "
        f"u(t0, s0, v0) = {here:.6g}; wrote {args.out}"
    )
    return _verdict(rep)


def _verdict(rep) -> int:
    """Exit code of a solve: 1 when its fresh-seed check failed or it did not converge."""
    if rep.fresh_ok is False:  # None when --fresh-check was not asked for
        print(f"fresh-seed validation gap {rep.fresh_gap:.3e} exceeded its limit", file=sys.stderr)
        return 1
    return 0 if rep.converged else 1


def cmd_price(args, setup, threads, out) -> int:
    rep, mc = _solve(setup, threads, args.fresh_check)
    _write_solve_outputs(out, rep)

    point = (setup.t0, math.log(setup.s0), setup.v0)
    grid_value = float(rep.u.evaluate_at_time(*point))
    value, stderr = refine_point(
        setup.spec, setup.model_q, rep.u, point, mc, seed_salt=1,
    )
    out.write_json("price.json", {
        "t": setup.t0,
        "s0": setup.s0,
        "v0": setup.v0,
        "grid_value": grid_value,
        "value": value,
        "stderr": stderr,
        "discount_to_horizon": discount(setup.spec.rate, setup.t0, setup.t_end),
    })
    print(
        f"value at (t={setup.t0}, s0={setup.s0}, v0={setup.v0}): "
        f"{value:.6g} (stderr {stderr:.2g}, grid {grid_value:.6g}); wrote {args.out}"
    )
    return _verdict(rep)


def cmd_verify(args, setup, threads, out) -> int:
    compare = None if args.compare is None else _setup_from(args.compare, args.seed)
    results = run_verify(setup, threads, compare)
    for res in results:
        flag = "PASS" if res.ok else "FAIL"
        print(f"[{flag}] {res.name} ({res.seconds:.1f}s): {res.detail}")
    out.write_json("verify.json", [asdict(r) for r in results])
    n_fail = sum(not r.ok for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed; wrote {args.out}")
    return 0 if n_fail == 0 else 1


# -- argument parsing --------------------------------------------------------------


def _nonneg_int(text: str) -> int:
    val = int(text)
    if val < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return val


def _add_common(sub) -> None:
    sub.add_argument("--config", required=True, help="path to the JSON run config")
    sub.add_argument("--out", default="xvamild_out", help="output directory")
    sub.add_argument(
        "--threads", type=int, default=None,
        help="worker threads (default: the cores available to the process)",
    )
    sub.add_argument(
        "--seed", type=_nonneg_int, default=None,
        help="override mc.master_seed from the config",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xvamild",
        description="Valuation adjustments under stochastic volatility: "
                    "simulation, default clocks, and the fixed-point value solver.",
    )
    parser.add_argument("--version", action="version", version=f"xvamild {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="simulate physical-measure paths")
    _add_common(sim)
    sim.set_defaults(fn=cmd_simulate)

    dfl = subs.add_parser("defaults", help="survival and first-passage curves")
    _add_common(dfl)
    dfl.add_argument(
        "--mc-check", action="store_true",
        help="cross-check survival curves against sampled default times",
    )
    dfl.set_defaults(fn=cmd_defaults)

    for name, fn, text in (("solve", cmd_solve, "solve the value grid"),
                           ("price", cmd_price, "solve, then refine the start-point value")):
        sub = subs.add_parser(name, help=text)
        _add_common(sub)
        sub.add_argument(
            "--fresh-check", action="store_true",
            help="re-apply the final map with independent streams and compare",
        )
        sub.set_defaults(fn=fn)

    ver = subs.add_parser("verify", help="run desk-scale verification checks")
    _add_common(ver)
    ver.add_argument(
        "--compare", default=None, metavar="PATH",
        help="config whose market must dominate this one (shared-noise check)",
    )
    ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        started = time.perf_counter()
        setup = _setup_from(args.config, args.seed)
        threads = _resolve_threads(args)
        out = OutputDir(args.out)
        code = args.fn(args, setup, threads, out)
        out.finish_manifest(args.command, args.config, setup, threads, started)
        return code
    except ConfigError as exc:
        print(f"config error at {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvalidPathBudgetError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return 3
    except (CoverageError, DomainError, SingularInputError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
