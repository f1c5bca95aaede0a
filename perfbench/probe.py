"""Child process of the benchmark: one fresh interpreter per call.

    probe.py setup --workload W --seed N
        import xvamild and assemble one run, print the elapsed seconds.
    probe.py cli --result FILE [--trace] -- <xvamild arguments>
        import xvamild.cli, run cli.main on the arguments, summarise the
        outputs it wrote, write timings and the summary to FILE.
    probe.py grid --result FILE --seeds A,B,.. --seconds S [--trace]
        closed loop of in-process picard_solve calls on the acceptance grid.

``run.py`` starts these with PYTHONPATH pointing at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import problems


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


# -- setup ------------------------------------------------------------------------


def cmd_setup(args) -> int:
    start = time.perf_counter()
    if args.workload == "grid_solve":
        import xvamild.mildsolver  # noqa: F401  (the modules a grid solve loads)

        problems.grid_problem(args.seed)
    else:
        from xvamild.cli import build_run, load_config, normalise_config

        cfg = normalise_config(load_config(str(problems.BOOK)))
        cfg["mc"]["master_seed"] = args.seed
        build_run(cfg)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


# -- one CLI command ----------------------------------------------------------------


def _grid_summary(values, stderr_floor: float) -> dict:
    import numpy as np

    return {
        "finite": bool(np.all(np.isfinite(values))),
        "u_min": float(np.min(values)),
        "u_max": float(np.max(values)),
        "u_mean": float(np.mean(values)),
        "u0_mean": float(np.mean(values[0])),
        "stderr_floor": float(stderr_floor),
    }


def _load(out: str, name: str):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def summarise_outputs(command: str, out: str) -> dict:
    """The numbers the benchmark checks, read back from the run directory."""
    import numpy as np

    summary = {"manifest_outputs": sorted(_load(out, "manifest.json")["outputs"])}
    if command == "defaults":
        dsum = _load(out, "defaults_summary.json")
        summary["identity_gap_max"] = max(abs(g) for g in dsum["identity_gaps_dense"].values())
        summary["empirical_sup_gap"] = dsum["empirical_sup_gap"]
        summary["atom_joint"] = dsum["atoms"]["joint"]
    if command in ("solve", "price"):
        rep = _load(out, "report.json")
        with np.load(os.path.join(out, "value_grid.npz")) as npz:
            values = npz["values"]
        summary.update(_grid_summary(values, rep["stderr_floor"]))
        summary["converged"] = bool(rep["converged"])
    if command == "price":
        price = _load(out, "price.json")
        summary.update({k: price[k] for k in ("value", "stderr", "grid_value")})
    if command == "verify":
        summary["checks"] = {
            r["name"]: {"ok": bool(r["ok"]), "seconds": r["seconds"], "detail": r["detail"]}
            for r in _load(out, "verify.json")
        }
    return summary


def cmd_cli(args) -> int:
    tracer = None
    start = time.perf_counter()
    import xvamild.cli

    import_s = time.perf_counter() - start
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.op = args.op
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    cpu0 = time.process_time()
    start = time.perf_counter()
    error = None
    try:
        rc = xvamild.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crashed command is a failed operation
        rc, error = 99, f"{type(exc).__name__}: {exc}"
    main_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0
    result = {"rc": rc, "error": error, "import_s": import_s, "main_s": main_s,
              "cpu_s": cpu_s, "maxrss_mb": _maxrss_mb()}
    if tracer is not None:
        tracer.uninstall()
        from tracer import layer_totals

        spans = tracer.dump()
        result["layers"] = layer_totals(spans)
        result["spans"] = spans
    if rc == 0 or (argv[0] == "verify" and rc == 1):  # 1: verify ran, a check FAILed
        out = argv[argv.index("--out") + 1]
        result["summary"] = summarise_outputs(argv[0], out)
    _write(args.result, result)
    return 0


# -- in-process grid solves -----------------------------------------------------------


def cmd_grid(args) -> int:
    import numpy as np

    import xvamild.mildsolver
    from tracer import Tracer, layer_totals

    seeds = [int(s) for s in args.seeds.split(",")]
    results = []
    spans = []
    loop_start = time.perf_counter()
    for i, seed in enumerate(seeds):
        elapsed = time.perf_counter() - loop_start
        walls = [r["wall_s"] for r in results]
        if walls and elapsed + float(np.median(walls)) > args.seconds:
            if not args.trace or {r["traced"] for r in results} == {False, True}:
                break
        traced = bool(args.trace and i % 2 == 1)
        spec, model, t_nodes, x_nodes, v_nodes, mc = problems.grid_problem(seed)
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.op = i
            tracer.install()
            tracer.wrap_model(model)
        res = {"master_seed": seed, "traced": traced}
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            # looked up at call time, so the traced wrapper is the one called
            rep = xvamild.mildsolver.picard_solve(spec, model, t_nodes, x_nodes, v_nodes, mc, tol=problems.GRID_TOL)
            res["wall_s"] = time.perf_counter() - start
            res["cpu_s"] = time.process_time() - cpu0
            res["work"] = problems.sweep_work(rep, mc.n_paths, mc.n_steps)
            res["summary"] = {"converged": bool(rep.converged),
                              **_grid_summary(rep.u.values, rep.stderr_floor)}
        except Exception as exc:  # a crashed solve is a failed operation
            res["wall_s"] = time.perf_counter() - start
            res["error"] = f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.uninstall()
            op_spans = tracer.dump()
            res["layers"] = layer_totals(op_spans)
            spans.append(op_spans)
        results.append(res)
    _write(args.result, {"ops": results, "maxrss_mb": _maxrss_mb(), "spans": spans})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="probe.py")
    subs = parser.add_subparsers(dest="mode", required=True)
    p = subs.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=cmd_setup)
    p = subs.add_parser("cli")
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--op", type=int, default=0)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(fn=cmd_cli)
    p = subs.add_parser("grid")
    p.add_argument("--result", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_grid)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
