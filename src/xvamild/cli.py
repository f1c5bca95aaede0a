"""Command-line interface.

Subcommands: simulate (physical-measure paths), defaults (survival and
first-passage curves), solve (fixed-point value grid), price (solve plus
a refined single-point estimate), verify (desk-scale checks).  Every
command reads one JSON config, writes its outputs plus the normalised
config into --out, and finishes with a manifest.json carrying digests of
everything written; the manifest is written last so an interrupted run
is detectable by its absence.

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

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    build_run,
    emit_config,
    load_config,
    normalise_config,
    resolve_axes,
)
from .defaultclock import default_density, sample_default_times, empirical_survival, survival_curve
from .gridfn import CoverageError, save_grid, write_grid_csv
from .mildsolver import McConfig, picard_solve, refine_point
from .simulate import InvalidPathBudgetError, TimeGrid, positivity_report, simulate_paths
from .special import DomainError, SingularInputError
from .valuation import discount
from .verify import run_verify
from .volmodel import InvariantError, check_positivity


def _fmt(x) -> str:
    return f"{float(x):.17g}"


class OutputDir:
    """Tracks files written into the run directory and their digests."""

    def __init__(self, root: str):
        self.root = root
        self.digests = {}
        os.makedirs(root, exist_ok=True)

    def path(self, name: str) -> str:
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

    def finish_manifest(self, command: str, config_path: str, cfg: dict,
                        seed: int, threads: int, started: float) -> None:
        with open(config_path, "rb") as fh:
            raw_digest = hashlib.sha256(fh.read()).hexdigest()
        manifest = {
            "tool": "xvamild",
            "version": __version__,
            "command": command,
            "config_file_sha256": raw_digest,
            "config_sha256": hashlib.sha256(emit_config(cfg).encode()).hexdigest(),
            "master_seed": seed,
            "threads": threads,
            "wall_time_s": round(time.perf_counter() - started, 3),
            "outputs": dict(sorted(self.digests.items())),
        }
        with open(self.path("manifest.json"), "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _resolve_threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("XVA_MILD_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError("XVA_MILD_THREADS", f"not an integer: {env!r}") from exc
    return max(1, os.cpu_count() or 1)


def _setup_from(args):
    raw = load_config(args.config)
    cfg = normalise_config(raw)
    if args.seed is not None:
        cfg["mc"]["master_seed"] = args.seed
    return build_run(cfg)


# -- subcommands ------------------------------------------------------------------


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    setup = _setup_from(args)
    threads = _resolve_threads(args)
    out = OutputDir(args.out)

    grid = TimeGrid(setup.t0, setup.t_end, setup.n_steps)
    paths = simulate_paths(
        setup.model_p, (math.log(setup.s0), setup.v0), grid,
        setup.n_paths, setup.master_seed, threads=threads,
    )

    def write_terminal(fh):
        fh.write("path_id,x_T,v_T,invalid\n")
        for i in range(paths.n_paths):
            fh.write(
                f"{i},{_fmt(paths.x[i, -1])},{_fmt(paths.v[i, -1])},"
                f"{int(paths.invalid[i])}\n"
            )

    out.write_with("terminal.csv", write_terminal)

    x, v = paths.valid_x(), paths.valid_v()

    def write_summary(fh):
        fh.write("t,mean_x,std_x,mean_v,std_v,min_v\n")
        for k, t in enumerate(grid.nodes):
            fh.write(
                f"{_fmt(t)},{_fmt(x[:, k].mean())},{_fmt(x[:, k].std(ddof=1))},"
                f"{_fmt(v[:, k].mean())},{_fmt(v[:, k].std(ddof=1))},"
                f"{_fmt(v[:, k].min())}\n"
            )

    out.write_with("summary.csv", write_summary)

    path_rep = positivity_report(paths)
    feller = check_positivity(setup.params, horizon=setup.t_end)
    out.write_json("positivity.json", {
        "paths": {
            "min_v": path_rep.min_v,
            "frac_nonpositive": path_rep.frac_nonpositive,
            "n_paths": path_rep.n_paths,
            "n_steps": path_rep.n_steps,
        },
        "condition": {
            "holds": feller.holds,
            "gamma_star": feller.gamma_star,
            "lhs": feller.lhs,
            "rhs": feller.rhs,
            "detail": feller.detail,
        },
    })
    out.write_text("config.normalised.json", emit_config(setup.cfg))
    out.finish_manifest("simulate", args.config, setup.cfg,
                        setup.master_seed, threads, started)
    print(
        f"simulated {paths.n_paths} paths over [{setup.t0}, {setup.t_end}] "
        f"({setup.n_steps} steps), {paths.n_invalid} invalid; wrote {args.out}"
    )
    return 0


def cmd_defaults(args) -> int:
    started = time.perf_counter()
    setup = _setup_from(args)
    threads = _resolve_threads(args)
    if setup.spec.defaults is None:
        raise ConfigError("defaults", "this command needs default clocks configured")
    out = OutputDir(args.out)
    dspec = setup.spec.defaults

    # the identity must hold on a dense grid before anything is written;
    # first-passage densities can carry a root-like kink at the left end
    dense = TimeGrid(setup.t0, setup.t_end, 20000)
    gaps = {
        "investor": default_density(dspec, dense, "investor").identity_gap,
        "counterparty": default_density(dspec, dense, "counterparty").identity_gap,
        "joint": default_density(dspec, dense).identity_gap,
    }
    worst = max(abs(g) for g in gaps.values())
    if worst > 1e-6:
        print(
            f"density identity gap {worst:.3e} exceeds 1e-6; refusing to write curves",
            file=sys.stderr,
        )
        return 1

    grid = TimeGrid(setup.t0, setup.t_end, setup.n_steps)
    curve = survival_curve(dspec, grid)
    dens = {
        "investor": default_density(dspec, grid, "investor"),
        "counterparty": default_density(dspec, grid, "counterparty"),
        "joint": default_density(dspec, grid),
    }

    mc_gap = None
    tie_fraction = None
    emp = None
    if args.mc_check:
        times = sample_default_times(dspec, grid, 100000, setup.master_seed)
        emp = empirical_survival(times.joint, grid.nodes)
        tie_fraction = times.tie_fraction
        mc_gap = float(np.max(np.abs(emp - curve.joint)))

    def write_survival(fh):
        header = "t,investor,counterparty,joint"
        if emp is not None:
            header += ",empirical_joint,abs_gap"
        fh.write(header + "\n")
        for k, t in enumerate(grid.nodes):
            row = (
                f"{_fmt(t)},{_fmt(curve.investor[k])},"
                f"{_fmt(curve.counterparty[k])},{_fmt(curve.joint[k])}"
            )
            if emp is not None:
                row += f",{_fmt(emp[k])},{_fmt(abs(emp[k] - curve.joint[k]))}"
            fh.write(row + "\n")

    out.write_with("survival.csv", write_survival)

    def write_density(fh):
        fh.write("t,investor,counterparty,joint\n")
        for k, t in enumerate(grid.nodes):
            fh.write(
                f"{_fmt(t)},{_fmt(dens['investor'].values[k])},"
                f"{_fmt(dens['counterparty'].values[k])},"
                f"{_fmt(dens['joint'].values[k])}\n"
            )

    out.write_with("density.csv", write_density)

    summary = {
        "identity_gaps_dense": gaps,
        "atoms": {name: d.atom for name, d in dens.items()},
    }
    if mc_gap is not None:
        summary["empirical_sup_gap"] = mc_gap
        summary["tie_fraction"] = tie_fraction
    out.write_json("defaults_summary.json", summary)
    out.write_text("config.normalised.json", emit_config(setup.cfg))
    out.finish_manifest("defaults", args.config, setup.cfg,
                        setup.master_seed, threads, started)

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


def _write_solve_outputs(out: OutputDir, setup, rep) -> None:
    out.write_with("value_grid.csv", lambda fh: write_grid_csv(rep.u, fh))
    save_grid(rep.u, out.path("value_grid.npz"))
    out.record("value_grid.npz")
    out.write_json("report.json", {
        "converged": rep.converged,
        "sup_diffs": rep.sup_diffs,
        "sweeps_per_slab": rep.sweeps_per_slab,
        "slab_bounds": rep.slab_bounds,
        "lipschitz_budget": rep.lipschitz_budget,
        "stderr_floor": rep.stderr_floor,
        "coverage_fraction": rep.coverage_fraction,
        "fresh_gap": rep.fresh_gap,
        "fresh_ok": rep.fresh_ok,
        "grid": {
            "t": [float(t) for t in rep.u.t_nodes],
            "x_range": [float(rep.u.x_nodes[0]), float(rep.u.x_nodes[-1])],
            "v_range": [float(rep.u.v_nodes[0]), float(rep.u.v_nodes[-1])],
            "nx": len(rep.u.x_nodes),
            "nv": len(rep.u.v_nodes),
        },
    })
    out.write_text("config.normalised.json", emit_config(setup.cfg))


def cmd_solve(args) -> int:
    started = time.perf_counter()
    setup = _setup_from(args)
    threads = _resolve_threads(args)
    out = OutputDir(args.out)
    rep, _ = _solve(setup, threads, args.fresh_check)
    _write_solve_outputs(out, setup, rep)
    out.finish_manifest("solve", args.config, setup.cfg,
                        setup.master_seed, threads, started)
    here = float(rep.u.evaluate_at_time(setup.t0, math.log(setup.s0), setup.v0))
    status = "converged" if rep.converged else "NOT converged"
    print(
        f"{status} in {sum(rep.sweeps_per_slab)} sweeps over "
        f"{max(len(rep.slab_bounds) - 1, 1)} slab(s); "
        f"u(t0, s0, v0) = {here:.6g}; wrote {args.out}"
    )
    if args.fresh_check and rep.fresh_ok is False:
        print(
            f"fresh-seed validation gap {rep.fresh_gap:.3e} exceeded its limit",
            file=sys.stderr,
        )
        return 1
    return 0 if rep.converged else 1


def cmd_price(args) -> int:
    started = time.perf_counter()
    setup = _setup_from(args)
    threads = _resolve_threads(args)
    out = OutputDir(args.out)
    rep, mc = _solve(setup, threads, args.fresh_check)
    _write_solve_outputs(out, setup, rep)

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
    out.finish_manifest("price", args.config, setup.cfg,
                        setup.master_seed, threads, started)
    print(
        f"value at (t={setup.t0}, s0={setup.s0}, v0={setup.v0}): "
        f"{value:.6g} (stderr {stderr:.2g}, grid {grid_value:.6g}); wrote {args.out}"
    )
    return 0 if rep.converged else 1


def cmd_verify(args) -> int:
    started = time.perf_counter()
    setup = _setup_from(args)
    threads = _resolve_threads(args)
    compare = None
    if args.compare is not None:
        compare = build_run(normalise_config(load_config(args.compare)))
    out = OutputDir(args.out)
    results = run_verify(setup, threads, compare)
    for res in results:
        flag = "PASS" if res.ok else "FAIL"
        print(f"[{flag}] {res.name} ({res.seconds:.1f}s): {res.detail}")
    out.write_json("verify.json", [r.to_dict() for r in results])
    out.write_text("config.normalised.json", emit_config(setup.cfg))
    out.finish_manifest("verify", args.config, setup.cfg,
                        setup.master_seed, threads, started)
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
        help="worker threads (default: XVA_MILD_THREADS or all cores)",
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

    slv = subs.add_parser("solve", help="solve the value grid")
    _add_common(slv)
    slv.add_argument(
        "--fresh-check", action="store_true",
        help="re-apply the final map with independent streams and compare",
    )
    slv.set_defaults(fn=cmd_solve)

    prc = subs.add_parser("price", help="solve, then refine the start-point value")
    _add_common(prc)
    prc.add_argument("--fresh-check", action="store_true",
                     help="re-apply the final map with independent streams and compare")
    prc.set_defaults(fn=cmd_price)

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
        return args.fn(args)
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
