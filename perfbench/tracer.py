"""Span recording around xvamild's public functions, installed from outside.

The program is not modified: ``install`` replaces module attributes (at
every module that binds the name through ``from .x import y``), class
attributes and ``VolModel`` instance attributes with timing wrappers, and
``uninstall`` puts the originals back.  Spans are kept in memory as
``(name, start, end, parent, thread id, op id, counts)`` and written out by
the caller when the process ends.  ``layer_totals`` sums them per layer.
"""

from __future__ import annotations

import bisect
import functools
import threading
import time

import numpy as np

# (layer span name, attribute path, lookup sites).  Each lookup site is a
# module that binds the function under that name; all of them are wrapped.
FUNCTIONS = [
    ("config.build", "load_config", ("xvamild.config", "xvamild.cli")),
    ("config.build", "normalise_config", ("xvamild.config", "xvamild.cli")),
    ("config.build", "build_run", ("xvamild.config", "xvamild.cli")),
    ("config.resolve_axes", "resolve_axes", ("xvamild.config", "xvamild.cli", "xvamild.verify")),
    ("special", "gamma_survival", ("xvamild.special", "xvamild.defaultclock", "xvamild.verify")),
    ("special", "gamma_hazard_factor", ("xvamild.special", "xvamild.defaultclock", "xvamild.valuation")),
    ("defaultclock", "survival_curve", ("xvamild.defaultclock", "xvamild.cli", "xvamild.verify", "xvamild.valuation")),
    ("defaultclock", "default_density", ("xvamild.defaultclock", "xvamild.cli", "xvamild.verify")),
    ("defaultclock", "hazard_curve", ("xvamild.defaultclock",)),
    ("defaultclock", "sample_default_times", ("xvamild.defaultclock", "xvamild.cli")),
    ("defaultclock", "empirical_survival", ("xvamild.defaultclock", "xvamild.cli")),
    ("simulate", "simulate_paths", ("xvamild.simulate", "xvamild.mildsolver", "xvamild.valuation", "xvamild.cli")),
    ("valuation.driver", "driver", ("xvamild.valuation", "xvamild.mildsolver")),
    ("valuation.martingale", "martingale_residual", ("xvamild.valuation", "xvamild.verify")),
    ("mildsolver.solve", "picard_solve", ("xvamild.mildsolver", "xvamild.cli", "xvamild.verify")),
    ("mildsolver.sweep", "apply_mild_map", ("xvamild.mildsolver",)),
    ("mildsolver.refine", "refine_point", ("xvamild.mildsolver", "xvamild.cli")),
    ("mildsolver.budget", "lipschitz_budget", ("xvamild.mildsolver",)),
    ("mildsolver.oracle", "linear_oracle", ("xvamild.mildsolver", "xvamild.verify")),
    ("cli.write", "save_grid", ("xvamild.gridfn", "xvamild.mildsolver", "xvamild.cli")),
    ("cli.write", "write_grid_csv", ("xvamild.gridfn", "xvamild.mildsolver", "xvamild.cli")),
]

# (layer span name, module, class, method)
METHODS = [
    ("gridfn.eval", "xvamild.gridfn", "GridFunction", "evaluate_at_time"),
    ("gridfn.outside", "xvamild.gridfn", "GridFunction", "outside"),
    ("valuation.slope", "xvamild.valuation", "MarketSpec", "log_survival_slopes"),
    ("cli.write", "xvamild.cli", "OutputDir", "write_text"),
    ("cli.write", "xvamild.cli", "OutputDir", "write_with"),
    ("cli.write", "xvamild.cli", "OutputDir", "record"),
    ("cli.write", "xvamild.cli", "OutputDir", "finish_manifest"),
]

COEFFICIENTS = ("vol_of_price", "drift_v", "vol_of_v")


def _size(x) -> int:
    return int(np.size(x))


def _grid_nodes(args, kwargs, pos: int) -> int:
    grid = kwargs.get("grid", args[pos] if len(args) > pos else None)
    return len(grid.nodes) if grid is not None else 0


def _sweep_nps(args, kwargs) -> int:
    """Node-path-steps of one apply_mild_map call, from its arguments."""
    names = ("spec", "model", "u_prev", "t_nodes", "x_nodes", "v_nodes", "mc", "master")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    t_nodes = np.asarray(bound["t_nodes"], dtype=float)
    mc = bound["mc"]
    master = bound.get("master")
    t0 = master.t0 if master is not None else float(t_nodes[0])
    dt = master.dt if master is not None else (float(t_nodes[-1]) - t0) / mc.n_steps
    idx = np.rint((t_nodes - t0) / dt).astype(int)
    m_end = bound.get("m_end")
    m_end = int(idx[-1]) if m_end is None else int(m_end)
    n_xv = np.size(bound["x_nodes"]) * np.size(bound["v_nodes"])
    return int(n_xv * mc.n_paths * int(np.sum(m_end - idx)))


def _counts_before(name: str, attr: str, args, kwargs):
    if name == "mildsolver.sweep":
        return {"nps": _sweep_nps(args, kwargs), "cpu0": time.process_time()}
    return None


def _counts_after(name: str, attr: str, args, kwargs, result, pre):
    if name == "special":
        return {"points": _size(args[1] if len(args) > 1 else kwargs["x"])}
    if name == "defaultclock" and attr in ("survival_curve", "default_density",
                                           "hazard_curve", "sample_default_times"):
        return {"nodes": _grid_nodes(args, kwargs, 1)}
    if name == "simulate":
        return {
            "path_steps": result.x.shape[0] * (result.x.shape[1] - 1),
            "invalid": int(result.n_invalid),
        }
    if name == "valuation.driver":
        return {"points": int(np.size(result))}
    if name == "gridfn.eval":
        return {"points": _size(args[2] if len(args) > 2 else kwargs["x"])}
    if name == "gridfn.outside":
        return {"points": int(np.size(result)), "outside": int(np.count_nonzero(result))}
    if name == "mildsolver.solve":
        return {"slabs": len(result.sweeps_per_slab)}
    if name == "mildsolver.sweep":
        return {"nps": pre["nps"], "cpu": time.process_time() - pre["cpu0"]}
    return None


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.op = None
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, attr: str):
        spans, lock = self.spans, self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with lock:
                idx = len(spans)
                spans.append(None)
            stack.append(idx)
            pre = _counts_before(name, attr, args, kwargs)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = _counts_after(name, attr, args, kwargs, result, pre) if ok else None
                spans[idx] = (name, start, end, parent, threading.get_ident(), self.op, counts)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def _replace(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        if getattr(original, "__wrapped_by_perfbench__", False):
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, attr))

    def install(self) -> None:
        """Wrap every listed function at every module that binds it."""
        import importlib

        for name, attr, sites in FUNCTIONS:
            for site in sites:
                module = importlib.import_module(site)
                if hasattr(module, attr):
                    self._replace(module, attr, name)
        for name, site, cls, meth in METHODS:
            owner = getattr(importlib.import_module(site), cls)
            self._replace(owner, meth, name)
        self._wrap_run_setup()

    def _wrap_run_setup(self) -> None:
        """Make build_run wrap the coefficient callables of the models it builds."""
        import xvamild.cli
        import xvamild.config

        tracer = self
        for module in (xvamild.config, xvamild.cli):
            traced_build = module.build_run

            @functools.wraps(traced_build)
            def build_run(cfg, _inner=traced_build):
                setup = _inner(cfg)
                tracer.wrap_model(setup.model_p)
                tracer.wrap_model(setup.model_q)
                return setup

            build_run.__wrapped_by_perfbench__ = True
            self._saved.append((module, "build_run", traced_build))
            module.build_run = build_run

    def wrap_model(self, model) -> None:
        """Wrap the VolModel coefficient callables on the instance."""
        for attr in COEFFICIENTS:
            self._replace(model, attr, "volmodel.coeff")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self) -> list:
        """All spans as lists; call when no traced call is still running."""
        return [list(s) for s in self.spans]


# -- turning spans into per-layer metrics -------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _outermost(spans, name: str) -> list:
    """Spans of ``name`` with no ancestor of the same name on their thread."""
    out = []
    for s in spans:
        if s[0] != name:
            continue
        parent = s[3]
        nested = False
        while parent is not None:
            if spans[parent][0] == name:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            out.append(s)
    return out


def self_time(starts, spans, target) -> float:
    """Duration of ``target`` minus the union of all spans inside it.

    ``spans`` is sorted by start and ``starts`` holds their start times.
    Spans from any thread count, so chunks run on the solver's thread pool
    are subtracted from the sweep that launched them.
    """
    lo, hi = target[1], target[2]
    first = bisect.bisect_left(starts, lo)
    last = bisect.bisect_right(starts, hi)
    inner = [(s[1], s[2]) for s in spans[first:last] if s is not target and s[2] <= hi]
    return (hi - lo) - _union_length(inner)


def layer_totals(spans) -> dict:
    """Per-process sums of busy time, calls and counts for every span name.

    ``spans`` must be one process's spans, so parent indices resolve.  Busy
    time sums the outermost spans of each name, across threads.
    """
    spans = [tuple(s) for s in spans]
    by_start = sorted(spans, key=lambda s: s[1])
    starts = [s[1] for s in by_start]
    out = {}
    for name in sorted({s[0] for s in spans}):
        top = _outermost(spans, name)
        counts = {}
        for s in top:
            for k, v in (s[6] or {}).items():
                counts[k] = counts.get(k, 0) + v
        out[name] = {"calls": len(top), "s": sum(s[2] - s[1] for s in top), **counts}
        if name == "mildsolver.sweep":
            out[name]["self_s"] = sum(self_time(starts, by_start, s) for s in top)
    return out
