"""The xvamild benchmark: three closed-loop workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload desk_cli --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is taken from the checkout's
``src`` directory and is only called from outside: every operation runs in
a child interpreter (``probe.py``) with one client, each operation starting
after the previous one ended.

Workloads (see ``layers.json`` for why each was chosen and which layers it
should move):

* ``desk_cli``    ``xvamild defaults --mc-check``, ``solve`` and ``price`` on the
                  README config book, each in a fresh process, ``--threads 2``;
* ``grid_solve``  in-process ``picard_solve`` on the acceptance fixture grid,
                  one thread;
* ``verify_desk`` ``xvamild verify --threads 2`` on the README config book.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` operations alternate untraced and
traced, and the JSON carries the per-layer metrics and the tracing overhead.
Every operation's outputs are checked; a failed check counts the operation
as failed.  The lines before the JSON print every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import problems  # noqa: E402

WORKLOADS = ("desk_cli", "grid_solve", "verify_desk")
THREADS = {"desk_cli": 2, "grid_solve": 1, "verify_desk": 2}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 7
HARD_LIMIT_S = 165.0  # the whole run, set-up included, ends before this
DESK_CYCLE = (("defaults", "--mc-check"), ("solve",), ("price",))
VERIFY_CHECKS = ("gamma_tail_quadrature", "default_clock_identity", "variance_positivity",
                 "discount_bond", "affine_oracle", "martingale_residual", "value_bounds")


class Run:
    """State of one benchmark run: clock, child environment, work directory."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 limit_s: float = HARD_LIMIT_S):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.limit_s = limit_s
        self.work = ROOT / ".perfbench_work" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        for var in THREAD_VARS:
            self.env[var] = "1"
        self.env.pop("XVA_MILD_THREADS", None)  # --threads is always passed

    def remaining(self) -> float:
        return self.limit_s - (time.perf_counter() - self.started)

    def child(self, args) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(HERE / "probe.py"), *args],
            env=self.env, cwd=str(ROOT), capture_output=True, text=True,
            timeout=max(self.remaining(), 1.0),
        )


# -- set-up ------------------------------------------------------------------------------


def measure_setup(run: Run) -> list:
    seeds = problems.op_seeds("setup:" + run.workload, run.seed, SETUP_REPEATS)
    times = []
    for s in seeds:
        proc = run.child(["setup", "--workload", run.workload, "--seed", str(s)])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# -- the closed loops ------------------------------------------------------------------


def run_cli_op(run: Run, index: int, command, master_seed: int, traced: bool) -> dict:
    out = run.work / f"op{index:03d}-{command[0]}"
    result_file = run.work / f"op{index:03d}.json"
    argv = [command[0], *command[1:], "--config", str(problems.BOOK), "--out", str(out),
            "--threads", str(THREADS[run.workload]), "--seed", str(master_seed)]
    cmd = ["cli", "--result", str(result_file), "--op", str(index)]
    if traced:
        cmd.append("--trace")
    start = time.perf_counter()
    try:
        proc = run.child([*cmd, "--", *argv])
        failure = None if proc.returncode == 0 else f"probe exited {proc.returncode}: {proc.stderr[-500:]}"
    except subprocess.TimeoutExpired:
        failure = "timed out"
    wall = time.perf_counter() - start
    res = {"command": command[0], "master_seed": master_seed, "traced": traced,
           "process_s": wall, "rc": None}
    if failure is None:
        with open(result_file, encoding="utf-8") as fh:
            res.update(json.load(fh))
        result_file.unlink()
    else:
        res["error"] = failure
    shutil.rmtree(out, ignore_errors=True)
    return res


def cli_loop(run: Run, cycle) -> list:
    """Run ``cycle`` (a sequence of commands) over and over until time is up.

    A command starts only if the median duration of its earlier runs still
    fits in the measuring window; the first cycle always runs whole, and a
    traced run keeps going until it has one untraced and one traced cycle.
    """
    seeds = problems.op_seeds(run.workload, run.seed, 256)
    ops = []
    loop_start = time.perf_counter()
    n_cycle = 0
    while True:
        traced = run.trace and n_cycle % 2 == 1
        for command in cycle:
            past = [o["process_s"] for o in ops if o["command"] == command[0]]
            elapsed = time.perf_counter() - loop_start
            must = n_cycle == 0 or (run.trace and n_cycle == 1)
            over = past and elapsed + statistics.median(past) > run.seconds
            if (over and not must) or run.remaining() < 5.0:
                return ops
            ops.append(run_cli_op(run, len(ops), command, seeds[n_cycle], traced))
        n_cycle += 1


def grid_loop(run: Run, seeds=None) -> dict:
    if seeds is None:
        seeds = problems.op_seeds(run.workload, run.seed, 256)
    result_file = run.work / "grid.json"
    args = ["grid", "--result", str(result_file), "--seconds", str(run.seconds),
            "--seeds", ",".join(str(s) for s in seeds)]
    if run.trace:
        args.append("--trace")
    proc = run.child(args)
    if proc.returncode != 0:
        raise RuntimeError(f"grid worker failed:\n{proc.stderr[-2000:]}")
    with open(result_file, encoding="utf-8") as fh:
        payload = json.load(fh)
    result_file.unlink()
    return payload


# -- correctness -------------------------------------------------------------------------


def _load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def _band_problems(summary: dict, tol: float) -> list:
    """The value field must stay in [0, CAP] up to its own Monte Carlo band."""
    band = 3.0 * summary["stderr_floor"] + tol
    if summary["u_min"] < -band or summary["u_max"] > problems.CAP + band:
        return [f"value field [{summary['u_min']:.4g}, {summary['u_max']:.4g}] leaves "
                f"[0, {problems.CAP}] by more than {band:.3g}"]
    return []


def _reference_problems(summary: dict, ref: dict) -> list:
    out = []
    for key, pinned in ref.items():
        got = summary.get(key)
        if not problems.finite(got):
            out.append(f"{key} is {got!r}")
        elif abs(got - pinned["value"]) > pinned["bound"]:
            out.append(f"{key} = {got!r} differs from the stored reference "
                       f"{pinned['value']!r} by more than {pinned['bound']:.3g}")
    return out


def op_problems(workload: str, op: dict, reference: dict, tol: float) -> list:
    """Everything wrong with one operation; empty when it counts as correct."""
    command = op.get("command", "solve")
    if op.get("error"):
        return [op["error"]]
    if op.get("rc", 0) not in ((0, 1) if command == "verify" else (0,)):
        return [f"exit code {op['rc']}"]
    summary = op.get("summary")
    if summary is None:
        return ["no outputs"]
    ref = reference.get(workload, {}).get(str(op["master_seed"]))
    if ref is None:
        return [f"no stored reference for master seed {op['master_seed']}"]
    found = []
    if "converged" in summary and not summary["converged"]:
        found.append("reported converged: false")
    numbers = [v for v in summary.values() if isinstance(v, float)]
    if summary.get("finite") is False or not all(math.isfinite(v) for v in numbers):
        found.append("non-finite value")
    if "u_min" in summary:
        found += _band_problems(summary, tol)
    if command == "defaults" and summary["identity_gap_max"] > 1e-6:
        found.append(f"density identity gap {summary['identity_gap_max']:.3g} > 1e-6")
    if command == "price":
        band = 3.0 * summary["stderr"]
        if not -band <= summary["value"] <= problems.CAP + band:
            found.append(f"price {summary['value']:.6g} outside [0, {problems.CAP}] +/- {band:.3g}")
    if command == "verify":
        found += _verdict_problems(op, ref["verdicts"])
        summary = dict(summary, max_abs_z=_max_abs_z(summary["checks"]))
    found += _reference_problems(summary, ref[command])
    return found


def _verdict_problems(op: dict, stored: dict) -> list:
    """A check FAILs the operation unless its stored verdict is FAIL too.

    The martingale check is a 3-sigma test on fresh paths; when the
    references were made it FAILed on some pooled master seeds.  Those
    verdicts are stored and reported with every run that meets them,
    instead of the seeds being dropped from the pool.
    """
    checks = op["summary"]["checks"]
    if sorted(checks) != sorted(VERIFY_CHECKS):
        return [f"verify ran checks {sorted(checks)}"]
    found = []
    for name, check in checks.items():
        if check["ok"] != stored[name]:
            found.append(f"verify check {name} {'PASS' if check['ok'] else 'FAIL'}, "
                         f"stored verdict {'PASS' if stored[name] else 'FAIL'}: {check['detail']}")
    if (op["rc"] == 1) == all(c["ok"] for c in checks.values()):
        found.append(f"exit code {op['rc']} does not match the check verdicts")
    return found


def _max_abs_z(checks: dict) -> float:
    detail = checks.get("martingale_residual", {}).get("detail", "")
    try:
        return float(detail.split("max |z|")[1].split()[0])
    except (IndexError, ValueError):
        return math.nan


# -- metrics -------------------------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else math.nan


def _finite(x: float) -> float:
    """NaN (no successful operation to measure) is not valid JSON; report 0."""
    return x if math.isfinite(x) else 0.0


def end_to_end(workload: str, ops: list, setup: list, peak_rss: float) -> tuple:
    """(metrics for the JSON line, extra named figures for the report lines)."""
    extra = {}
    if workload == "grid_solve":
        good = [o for o in ops if "work" in o]
        extra["solve_s"] = (_median(o["wall_s"] for o in good), "s")
        extra["sweep_mnps"] = (_median(o["work"] / o["wall_s"] / 1e6 for o in good), "M node*path*steps/s")
        op_s = extra["solve_s"][0]
    else:
        op_s = 0.0
        for command in (DESK_CYCLE if workload == "desk_cli" else (("verify",),)):
            name = command[0]
            value = _median(o["main_s"] for o in ops if o["command"] == name and "main_s" in o)
            extra[f"{name}_s"] = (value, "s")
            op_s += value
        extra["process_s"] = (_median(o["process_s"] for o in ops), "s")
    metrics = {
        "setup_s": {"value": _finite(_median(setup)), "unit": "s"},
        "op_s": {"value": _finite(op_s), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
    }
    return metrics, extra


PER_LAYER = [
    ("cli.import_s", "s"), ("cli.write_s", "s"),
    ("config.build_s", "s"), ("config.resolve_axes_s", "s"),
    ("special.calls", "count"), ("special.points", "count"), ("special.s", "s"),
    ("defaultclock.s", "s"), ("defaultclock.nodes", "count"),
    ("simulate.s", "s"), ("simulate.path_steps", "count"), ("simulate.mpsps", "M/s"),
    ("simulate.invalid_paths", "count"),
    ("volmodel.coeff_calls", "count"), ("volmodel.coeff_s", "s"),
    ("gridfn.eval_calls", "count"), ("gridfn.eval_points", "count"), ("gridfn.eval_s", "s"),
    ("gridfn.outside_frac", "ratio"),
    ("valuation.driver_calls", "count"), ("valuation.driver_points", "count"),
    ("valuation.driver_s", "s"), ("valuation.slope_calls", "count"), ("valuation.slope_s", "s"),
    ("valuation.martingale_s", "s"),
    ("mildsolver.sweeps", "count"), ("mildsolver.slabs", "count"), ("mildsolver.nps", "count"),
    ("mildsolver.sweep_s", "s"), ("mildsolver.self_s", "s"), ("mildsolver.cpu_per_wall", "ratio"),
    ("mildsolver.refine_s", "s"), ("mildsolver.budget_s", "s"), ("mildsolver.oracle_s", "s"),
    *[(f"verify.{name}_s", "s") for name in VERIFY_CHECKS],
    ("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"),
]


def _unit_layers(units: list) -> dict:
    """Per-layer figures of one traced unit (a desk cycle or one operation)."""
    tot = {}
    for layers in units:
        for name, figures in layers.items():
            into = tot.setdefault(name, {})
            for key, value in figures.items():
                into[key] = into.get(key, 0) + value

    def get(name, key="s"):
        return float(tot.get(name, {}).get(key, 0))

    sweeps = get("mildsolver.sweep", "calls")
    sim_s = get("simulate")
    outside_pts = get("gridfn.outside", "points")
    return {
        "cli.write_s": get("cli.write"),
        "config.build_s": get("config.build"),
        "config.resolve_axes_s": get("config.resolve_axes"),
        "special.calls": get("special", "calls"),
        "special.points": get("special", "points"),
        "special.s": get("special"),
        "defaultclock.s": get("defaultclock"),
        "defaultclock.nodes": get("defaultclock", "nodes"),
        "simulate.s": sim_s,
        "simulate.path_steps": get("simulate", "path_steps"),
        "simulate.mpsps": get("simulate", "path_steps") / sim_s / 1e6 if sim_s else 0.0,
        "simulate.invalid_paths": get("simulate", "invalid"),
        "volmodel.coeff_calls": get("volmodel.coeff", "calls"),
        "volmodel.coeff_s": get("volmodel.coeff"),
        "gridfn.eval_calls": get("gridfn.eval", "calls"),
        "gridfn.eval_points": get("gridfn.eval", "points"),
        "gridfn.eval_s": get("gridfn.eval"),
        "gridfn.outside_frac": get("gridfn.outside", "outside") / outside_pts if outside_pts else 0.0,
        "valuation.driver_calls": get("valuation.driver", "calls"),
        "valuation.driver_points": get("valuation.driver", "points"),
        "valuation.driver_s": get("valuation.driver"),
        "valuation.slope_calls": get("valuation.slope", "calls"),
        "valuation.slope_s": get("valuation.slope"),
        "valuation.martingale_s": get("valuation.martingale"),
        "mildsolver.sweeps": sweeps,
        "mildsolver.slabs": get("mildsolver.solve", "slabs"),
        "mildsolver.nps": get("mildsolver.sweep", "nps"),
        "mildsolver.sweep_s": get("mildsolver.sweep") / sweeps if sweeps else 0.0,
        "mildsolver.self_s": get("mildsolver.sweep", "self_s"),
        "mildsolver.cpu_per_wall": (get("mildsolver.sweep", "cpu") / get("mildsolver.sweep")
                                    if get("mildsolver.sweep") else 0.0),
        "mildsolver.refine_s": get("mildsolver.refine"),
        "mildsolver.budget_s": get("mildsolver.budget"),
        "mildsolver.oracle_s": get("mildsolver.oracle"),
    }


def per_layer(workload: str, ops: list) -> dict:
    """Mean per-layer figures over traced units, plus the tracing overhead."""
    if workload == "desk_cli":
        cycles = {}
        for o in ops:
            cycles.setdefault((o["master_seed"], o["traced"]), []).append(o)
        units = [(traced, group) for (_, traced), group in cycles.items()
                 if len(group) == len(DESK_CYCLE)]
        op_time = lambda group: sum(o.get("main_s", math.nan) for o in group)  # noqa: E731
    else:
        key = "wall_s" if workload == "grid_solve" else "main_s"
        units = [(o["traced"], [o]) for o in ops]
        op_time = lambda group: group[0].get(key, math.nan)  # noqa: E731
    traced = [group for flag, group in units if flag]
    plain = [group for flag, group in units if not flag]
    figures = [_unit_layers([o.get("layers", {}) for o in group]) for group in traced]
    out = {name: statistics.fmean(f[name] for f in figures) for name in figures[0]} if figures else {}
    out["cli.import_s"] = _median(o["import_s"] for o in ops if "import_s" in o)
    for name in VERIFY_CHECKS:
        out[f"verify.{name}_s"] = _median(
            o["summary"]["checks"][name]["seconds"] for o in ops
            if not o["traced"] and "checks" in o.get("summary", {}))
    t_on = _median(op_time(g) for g in traced)
    t_off = _median(op_time(g) for g in plain)
    out["trace.overhead_s"] = t_on - t_off
    out["trace.overhead_frac"] = (t_on - t_off) / t_off
    return {name: {"value": _finite(out.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}


# -- run record ----------------------------------------------------------------------------


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def run_record(run: Run) -> dict:
    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(f"L{_read(index / 'level')} {_read(index / 'type')} {_read(index / 'size')}")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "threads": THREADS[run.workload],
        "thread_env": {var: run.env[var] for var in THREAD_VARS},
        "closed_loop_clients": 1,
    }


# -- main ---------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "xvamild" / "__init__.py").is_file():
        print(f"no xvamild sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = run_record(run)
    setup = [] if run.trace else measure_setup(run)  # set-up is an end-to-end metric only

    if run.workload == "grid_solve":
        payload = grid_loop(run)
        ops, peak_rss, spans = payload["ops"], payload["maxrss_mb"], payload["spans"]
        tol = problems.GRID_TOL
    else:
        cycle = DESK_CYCLE if run.workload == "desk_cli" else (("verify",),)
        ops = cli_loop(run, cycle)
        peak_rss = max(o.get("maxrss_mb", 0.0) for o in ops)
        spans = [o.pop("spans") for o in ops if "spans" in o]
        tol = problems.load_book()["solver"]["tol"]

    reference = _load_reference()
    failed = 0
    for o in ops:
        o["problems"] = op_problems(run.workload, o, reference, tol)
        failed += bool(o["problems"])
        for p in o["problems"]:
            print(f"FAILED op (master seed {o['master_seed']}): {p}")
        for name, check in o.get("summary", {}).get("checks", {}).items():
            if not check["ok"]:
                print(f"verify check {name} FAILs on master seed {o['master_seed']}, "
                      f"as stored in reference.json: {check['detail']}")

    record["ops"] = ops
    record["setup_s"] = setup
    if run.trace:
        with open(run.work / "trace.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "thread", "op", "counts"],
                       "processes": spans}, fh)
        metrics = per_layer(run.workload, ops)
    else:
        metrics, extra = end_to_end(run.workload, ops, setup, peak_rss)
        for name, (value, unit) in extra.items():
            print(f"{name:28s} {value:14.6g} {unit}")
        print(f"{'peak_rss_mb':28s} {peak_rss:14.6g} MB")
        print(f"{'fail_frac':28s} {failed / len(ops):14.6g} failed/attempted")
    with open(run.work / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"ops {len(ops)}, setup repeats {len(setup)}, record {run.work / 'record.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
