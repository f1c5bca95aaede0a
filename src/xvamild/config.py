"""Run configuration: JSON schema, validation, and object assembly.

A run config is a plain JSON object with sections model / market /
defaults / grid / mc / solver.  Loading is strict: unknown keys are
rejected at every level and every violation is reported with the full
field path (``market.collateral_frac: ...``), so a typo fails fast
instead of silently running with a default.  ``normalise_config`` fills
optional fields and rewrites the config into a canonical form that is a
fixed point of itself: load -> normalise -> emit -> load -> normalise
reproduces the same dictionary byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .defaultclock import DefaultSpec, GammaParams, PartyDefault, no_default_party
from .valuation import (
    MarketSpec,
    capped_call,
    constant_dividend,
    constant_payoff,
    proportional_hedge,
    zero_dividend,
    zero_hedge,
)
from .volmodel import (
    InvariantError,
    PowerParams,
    VolModel,
    black_scholes_params,
    build_power_model,
    garch_params,
    heston_params,
    measure_change,
    on_times,
)

_PRESETS = ("black_scholes", "heston", "garch", "custom")


class ConfigError(ValueError):
    """A config violation, carrying the path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


# -- leaf validators ------------------------------------------------------------


def _obj(val, path: str) -> dict:
    if not isinstance(val, dict):
        raise ConfigError(path, f"expected an object, got {type(val).__name__}")
    return val


def _reject_unknown(obj: dict, path: str, allowed) -> None:
    extra = sorted(set(obj) - set(allowed))
    if extra:
        where = f"{path}.{extra[0]}" if path else extra[0]
        raise ConfigError(where, "unknown key")


def _num(val, path: str, lo=None, hi=None, lo_strict=False) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(val).__name__}")
    out = float(val)
    if not math.isfinite(out):
        raise ConfigError(path, "must be finite")
    if lo is not None and (out < lo or (lo_strict and out == lo)):
        raise ConfigError(path, f"must be {'>' if lo_strict else '>='} {lo}, got {out}")
    if hi is not None and out > hi:
        raise ConfigError(path, f"must be <= {hi}, got {out}")
    return out


def _int(val, path: str, lo=None) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(path, f"expected an integer, got {type(val).__name__}")
    if lo is not None and val < lo:
        raise ConfigError(path, f"must be >= {lo}, got {val}")
    return int(val)


def _bool(val, path: str) -> bool:
    if not isinstance(val, bool):
        raise ConfigError(path, f"expected a boolean, got {type(val).__name__}")
    return val


def _timefn_cfg(val, path: str, lo=None):
    """Validate a constant-or-piecewise time function, return canonical form."""
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        return _num(val, path, lo=lo)
    obj = _obj(val, path)
    _reject_unknown(obj, path, {"kind", "times", "values"})
    kind = obj.get("kind")
    if kind != "piecewise_constant":
        raise ConfigError(
            f"{path}.kind", "expected a number or kind 'piecewise_constant'"
        )
    times = obj.get("times")
    values = obj.get("values")
    if not isinstance(times, list) or not times:
        raise ConfigError(f"{path}.times", "expected a non-empty array of numbers")
    if not isinstance(values, list):
        raise ConfigError(f"{path}.values", "expected an array of numbers")
    ts = [_num(t, f"{path}.times[{i}]") for i, t in enumerate(times)]
    vs = [_num(v, f"{path}.values[{i}]", lo=lo) for i, v in enumerate(values)]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ConfigError(f"{path}.times", "must be strictly increasing")
    if len(vs) != len(ts) + 1:
        raise ConfigError(
            f"{path}.values",
            f"need len(times) + 1 = {len(ts) + 1} entries, got {len(vs)}",
        )
    return {"kind": "piecewise_constant", "times": ts, "values": vs}


def _timefn_build(norm):
    """Turn the canonical form back into what `as_time_fn` accepts."""
    if isinstance(norm, float):
        return norm
    ts = np.asarray(norm["times"], dtype=float)
    vs = np.asarray(norm["values"], dtype=float)

    def fn(t):
        return vs[np.searchsorted(ts, t, side="right")]

    return fn


# -- section normalisers ----------------------------------------------------------


def _norm_model(raw) -> dict:
    obj = _obj(raw, "model")
    preset = obj.get("preset")
    if preset not in _PRESETS:
        raise ConfigError("model.preset", f"expected one of {list(_PRESETS)}")
    out = {
        "preset": preset,
        "s0": _num(obj.get("s0", None), "model.s0", lo=0.0, lo_strict=True),
        "drift_b": _timefn_cfg(obj.get("drift_b", 0.0), "model.drift_b"),
    }
    if preset == "black_scholes":
        _reject_unknown(obj, "model", {"preset", "s0", "drift_b", "sigma", "v0"})
        sigma = obj.get("sigma")
        v0 = obj.get("v0")
        if sigma is None and v0 is None:
            raise ConfigError("model.sigma", "black_scholes needs sigma or v0")
        if sigma is not None:
            sigma = _num(sigma, "model.sigma", lo=0.0, lo_strict=True)
        if v0 is not None:
            v0 = _num(v0, "model.v0", lo=0.0, lo_strict=True)
        if sigma is None:
            sigma = math.sqrt(v0)
        if v0 is None:
            v0 = sigma * sigma
        if abs(v0 - sigma * sigma) > 1e-12 * max(1.0, v0):
            raise ConfigError("model.v0", f"inconsistent with sigma^2 = {sigma * sigma}")
        out["sigma"] = sigma
        out["v0"] = v0
    elif preset in ("heston", "garch"):
        _reject_unknown(
            obj, "model", {"preset", "s0", "drift_b", "v0", "k", "l0", "lam", "rho"}
        )
        for key, lo in (("k", 0.0), ("l0", 0.0), ("lam", None)):
            if key not in obj:
                raise ConfigError(f"model.{key}", f"required for preset {preset!r}")
            out[key] = _timefn_cfg(obj[key], f"model.{key}", lo=lo)
        out["rho"] = _num(obj.get("rho", 0.0), "model.rho", lo=-1.0, hi=1.0)
        if abs(out["rho"]) >= 1.0:
            raise ConfigError("model.rho", "must lie strictly inside (-1, 1)")
        out["v0"] = _num(obj.get("v0", None), "model.v0", lo=0.0)
    else:
        _reject_unknown(obj, "model", {"preset", "s0", "drift_b", "v0", "params"})
        out["v0"] = _num(obj.get("v0", None), "model.v0", lo=0.0)
        p = _obj(obj.get("params", None), "model.params")
        _reject_unknown(
            p, "model.params",
            {"k", "l0", "l", "alpha", "lam", "beta", "theta0", "theta1", "rho"},
        )
        cp = {
            "k": _timefn_cfg(p.get("k", 0.0), "model.params.k", lo=0.0),
            "l0": _timefn_cfg(p.get("l0", 0.0), "model.params.l0", lo=0.0),
            "theta0": _timefn_cfg(p.get("theta0", 0.0), "model.params.theta0"),
            "theta1": _timefn_cfg(p.get("theta1", 0.0), "model.params.theta1"),
            "rho": _timefn_cfg(p.get("rho", 0.0), "model.params.rho"),
        }
        for key in ("l", "lam"):
            vals = p.get(key, [])
            if not isinstance(vals, list):
                raise ConfigError(f"model.params.{key}", "expected an array")
            cp[key] = [
                _timefn_cfg(v, f"model.params.{key}[{i}]") for i, v in enumerate(vals)
            ]
        for key in ("alpha", "beta"):
            vals = p.get(key, [])
            if not isinstance(vals, list):
                raise ConfigError(f"model.params.{key}", "expected an array")
            cp[key] = [_num(v, f"model.params.{key}[{i}]") for i, v in enumerate(vals)]
        if len(cp["l"]) != len(cp["alpha"]):
            raise ConfigError("model.params.alpha", "must pair one exponent per l term")
        if len(cp["lam"]) != len(cp["beta"]):
            raise ConfigError("model.params.beta", "must pair one exponent per lam term")
        out["params"] = cp
    return out


_RATE_KEYS = (
    "collateral_rate_pos",
    "collateral_rate_neg",
    "funding_rate_pos",
    "funding_rate_neg",
    "hedge_rate_pos",
    "hedge_rate_neg",
)

_MARKET_KEYS = {
    "rate", *_RATE_KEYS, "collateral_frac", "closeout_frac",
    "lgd_investor", "lgd_counterparty", "own_default_funding",
    "dividend", "hedge", "payoff",
}


def _norm_market(raw, t_lo: float, t_hi: float) -> dict:
    obj = _obj(raw, "market")
    _reject_unknown(obj, "market", _MARKET_KEYS)
    if "rate" not in obj:
        raise ConfigError("market.rate", "required")
    out = {"rate": _timefn_cfg(obj["rate"], "market.rate")}
    for key in _RATE_KEYS:
        # absent spread rates default to the risk-free rate, not to zero
        out[key] = _timefn_cfg(obj.get(key, obj["rate"]), f"market.{key}")
    out["collateral_frac"] = _timefn_cfg(
        obj.get("collateral_frac", 0.0), "market.collateral_frac", lo=0.0
    )
    out["closeout_frac"] = _timefn_cfg(
        obj.get("closeout_frac", 1.0), "market.closeout_frac", lo=0.0
    )
    ts = np.linspace(t_lo, t_hi, 257)
    a = on_times(_timefn_build(out["collateral_frac"]), ts)
    b = on_times(_timefn_build(out["closeout_frac"]), ts)
    bad = np.flatnonzero((a > b) | (b > 1.0))
    if bad.size:
        j = bad[0]
        if a[j] > b[j]:
            raise ConfigError(
                "market.collateral_frac",
                f"must stay <= market.closeout_frac, got ({a[j]}, {b[j]}) at t={ts[j]}",
            )
        raise ConfigError("market.closeout_frac", f"must stay <= 1, got {b[j]} at t={ts[j]}")
    out["lgd_investor"] = _num(obj.get("lgd_investor", 0.0), "market.lgd_investor", 0.0, 1.0)
    out["lgd_counterparty"] = _num(
        obj.get("lgd_counterparty", 0.0), "market.lgd_counterparty", 0.0, 1.0
    )
    out["own_default_funding"] = _bool(
        obj.get("own_default_funding", True), "market.own_default_funding"
    )

    div = _obj(obj.get("dividend", {"kind": "zero"}), "market.dividend")
    kind = div.get("kind")
    if kind == "zero":
        _reject_unknown(div, "market.dividend", {"kind"})
        out["dividend"] = {"kind": "zero"}
    elif kind == "constant":
        _reject_unknown(div, "market.dividend", {"kind", "value"})
        out["dividend"] = {
            "kind": "constant",
            "value": _num(div.get("value", None), "market.dividend.value"),
        }
    elif kind == "piecewise_constant":
        out["dividend"] = _timefn_cfg(div, "market.dividend")
    else:
        raise ConfigError(
            "market.dividend.kind",
            "expected 'zero', 'constant' or 'piecewise_constant'",
        )

    hedge = _obj(obj.get("hedge", {"kind": "zero"}), "market.hedge")
    kind = hedge.get("kind")
    if kind == "zero":
        _reject_unknown(hedge, "market.hedge", {"kind"})
        out["hedge"] = {"kind": "zero"}
    elif kind == "delta_proportional":
        _reject_unknown(hedge, "market.hedge", {"kind", "delta"})
        out["hedge"] = {
            "kind": "delta_proportional",
            "delta": _num(hedge.get("delta", None), "market.hedge.delta"),
        }
    else:
        raise ConfigError("market.hedge.kind", "expected 'zero' or 'delta_proportional'")

    if "payoff" not in obj:
        raise ConfigError("market.payoff", "required")
    pay = _obj(obj["payoff"], "market.payoff")
    kind = pay.get("kind")
    if kind == "constant":
        _reject_unknown(pay, "market.payoff", {"kind", "value"})
        out["payoff"] = {
            "kind": "constant",
            "value": _num(pay.get("value", None), "market.payoff.value"),
        }
    elif kind == "capped_call":
        _reject_unknown(pay, "market.payoff", {"kind", "strike", "cap"})
        out["payoff"] = {
            "kind": "capped_call",
            "strike": _num(pay.get("strike", None), "market.payoff.strike", 0.0, lo_strict=True),
            "cap": _num(pay.get("cap", None), "market.payoff.cap", 0.0, lo_strict=True),
        }
    else:
        raise ConfigError("market.payoff.kind", "expected 'constant' or 'capped_call'")
    return out


def _norm_party(raw, path: str) -> Optional[dict]:
    if raw is None:
        return None
    obj = _obj(raw, path)
    _reject_unknown(obj, path, {"intensity", "threshold"})
    if "intensity" not in obj:
        raise ConfigError(f"{path}.intensity", "required")
    thr = _obj(obj.get("threshold", None), f"{path}.threshold")
    _reject_unknown(thr, f"{path}.threshold", {"shape", "rate"})
    return {
        "intensity": _timefn_cfg(obj["intensity"], f"{path}.intensity", lo=0.0),
        "threshold": {
            "shape": _num(thr.get("shape", None), f"{path}.threshold.shape", 0.0, lo_strict=True),
            "rate": _num(thr.get("rate", None), f"{path}.threshold.rate", 0.0, lo_strict=True),
        },
    }


def _norm_defaults(raw) -> Optional[dict]:
    if raw is None:
        return None
    obj = _obj(raw, "defaults")
    _reject_unknown(obj, "defaults", {"investor", "counterparty"})
    inv = _norm_party(obj.get("investor"), "defaults.investor")
    cpy = _norm_party(obj.get("counterparty"), "defaults.counterparty")
    if inv is None and cpy is None:
        return None
    return {"investor": inv, "counterparty": cpy}


def _default_nt(n_steps: int) -> int:
    best = 1
    for d in range(1, min(8, n_steps) + 1):
        if n_steps % d == 0:
            best = d
    return best + 1


def _norm_range(val, path: str, positive: bool):
    if val == "auto":
        return "auto"
    if not isinstance(val, list) or len(val) != 2:
        raise ConfigError(path, "expected 'auto' or [lo, hi]")
    lo = _num(val[0], f"{path}[0]")
    hi = _num(val[1], f"{path}[1]")
    if positive and lo <= 0.0:
        raise ConfigError(f"{path}[0]", "lower bound must be positive")
    if hi <= lo:
        raise ConfigError(path, f"need lo < hi, got [{lo}, {hi}]")
    return [lo, hi]


def _norm_grid(raw) -> dict:
    obj = _obj(raw, "grid")
    _reject_unknown(
        obj, "grid", {"t0", "T", "n_steps", "nt", "nx", "nv", "x_range", "v_range"}
    )
    t0 = _num(obj.get("t0", 0.0), "grid.t0")
    if "T" not in obj:
        raise ConfigError("grid.T", "required")
    t_end = _num(obj["T"], "grid.T")
    if t_end <= t0:
        raise ConfigError("grid.T", f"must exceed grid.t0 = {t0}, got {t_end}")
    n_steps = _int(obj.get("n_steps", 64), "grid.n_steps", lo=1)
    nt = obj.get("nt")
    nt = _default_nt(n_steps) if nt is None else _int(nt, "grid.nt", lo=2)
    if n_steps % (nt - 1) != 0:
        raise ConfigError(
            "grid.nt", f"nt - 1 = {nt - 1} must divide grid.n_steps = {n_steps}"
        )
    return {
        "t0": t0,
        "T": t_end,
        "n_steps": n_steps,
        "nt": nt,
        "nx": _int(obj.get("nx", 21), "grid.nx", lo=2),
        "nv": _int(obj.get("nv", 9), "grid.nv", lo=2),
        "x_range": _norm_range(obj.get("x_range", "auto"), "grid.x_range", False),
        "v_range": _norm_range(obj.get("v_range", "auto"), "grid.v_range", True),
    }


def _norm_mc(raw) -> dict:
    obj = _obj(raw if raw is not None else {}, "mc")
    _reject_unknown(obj, "mc", {"n_paths", "master_seed"})
    return {
        "n_paths": _int(obj.get("n_paths", 20000), "mc.n_paths", lo=2),
        "master_seed": _int(obj.get("master_seed", 0), "mc.master_seed", lo=0),
    }


def _norm_solver(raw) -> dict:
    obj = _obj(raw if raw is not None else {}, "solver")
    _reject_unknown(obj, "solver", {"max_iter", "tol", "gamma"})
    tol = _num(obj.get("tol", 1e-3), "solver.tol", lo=0.0, lo_strict=True)
    return {
        "max_iter": _int(obj.get("max_iter", 25), "solver.max_iter", lo=1),
        "tol": tol,
        "gamma": _timefn_cfg(obj.get("gamma", 0.0), "solver.gamma"),
    }


_TOP_KEYS = {"model", "market", "defaults", "grid", "mc", "solver"}


def normalise_config(raw: dict) -> dict:
    """Validate a raw config dict and return its canonical form.

    Raises ConfigError with a field path on the first violation.  The
    result always carries every section and every field, with optional
    parts filled in, so two configs are equivalent iff their canonical
    forms are equal.
    """
    obj = _obj(raw, "config")
    _reject_unknown(obj, "", _TOP_KEYS)
    for key in ("model", "market", "grid"):
        if key not in obj:
            raise ConfigError(key, "required section")
    grid = _norm_grid(obj["grid"])
    return {
        "model": _norm_model(obj["model"]),
        "market": _norm_market(obj["market"], grid["t0"], grid["T"]),
        "defaults": _norm_defaults(obj.get("defaults")),
        "grid": grid,
        "mc": _norm_mc(obj.get("mc")),
        "solver": _norm_solver(obj.get("solver")),
    }


def load_config(path) -> dict:
    """Read a JSON config file; syntax errors become ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"not valid JSON: {exc}") from exc
    return raw


def emit_config(cfg: dict) -> str:
    """Canonical JSON text of a config: sorted keys, two-space indent."""
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


# -- assembly ---------------------------------------------------------------------


def _build_params(model: dict) -> PowerParams:
    drift = _timefn_build(model["drift_b"])
    preset = model["preset"]
    if preset == "black_scholes":
        return black_scholes_params(drift_b=drift)
    if preset in ("heston", "garch"):
        maker = heston_params if preset == "heston" else garch_params
        return maker(
            k=_timefn_build(model["k"]),
            l0=_timefn_build(model["l0"]),
            lam=_timefn_build(model["lam"]),
            rho=model["rho"],
            drift_b=drift,
        )
    p = model["params"]
    return PowerParams(
        k=_timefn_build(p["k"]),
        l0=_timefn_build(p["l0"]),
        l=tuple(_timefn_build(v) for v in p["l"]),
        alpha=tuple(p["alpha"]),
        lam=tuple(_timefn_build(v) for v in p["lam"]),
        beta=tuple(p["beta"]),
        theta0=_timefn_build(p["theta0"]),
        theta1=_timefn_build(p["theta1"]),
        rho=_timefn_build(p["rho"]),
        drift_b=drift,
    )


def _build_dividend(norm) -> Callable:
    if isinstance(norm, dict) and norm.get("kind") == "zero":
        return zero_dividend
    if isinstance(norm, dict) and norm.get("kind") == "constant":
        return constant_dividend(norm["value"])
    fn = _timefn_build(norm)

    def pi(t, s, v):
        return np.full_like(np.asarray(s, dtype=float), float(fn(t)))

    return pi


def _build_payoff(norm) -> Callable:
    if norm["kind"] == "constant":
        return constant_payoff(norm["value"])
    return capped_call(norm["strike"], norm["cap"])


def _build_defaults(norm) -> Optional[DefaultSpec]:
    if norm is None:
        return None

    def party(p):
        if p is None:
            return no_default_party()
        thr = p["threshold"]
        return PartyDefault(
            intensity=_timefn_build(p["intensity"]),
            threshold=GammaParams(thr["shape"], thr["rate"]),
        )

    return DefaultSpec(investor=party(norm["investor"]), counterparty=party(norm["counterparty"]))


@dataclass
class RunSetup:
    """Everything a command needs, assembled from one canonical config."""

    cfg: dict
    params: PowerParams
    model_p: VolModel
    model_q: VolModel
    spec: MarketSpec
    s0: float
    v0: float
    t0: float
    t_end: float
    n_steps: int
    nt: int
    nx: int
    nv: int
    x_range: object
    v_range: object
    n_paths: int
    master_seed: int
    max_iter: int
    tol: float


def build_run(cfg: dict) -> RunSetup:
    """Assemble models and the market spec from a canonical config.

    Semantic invariants that need the constructed objects (power-family
    parameter ranges, measure-change regularity, fraction ordering) are
    checked here; violations surface as ConfigError so callers can treat
    load and build failures uniformly.
    """
    model, market, grid = cfg["model"], cfg["market"], cfg["grid"]
    t0, t_end = grid["t0"], grid["T"]
    params = _build_params(model)
    try:
        model_p = build_power_model(params, horizon=t_end)
    except InvariantError as exc:
        raise ConfigError("model", str(exc)) from exc
    try:
        model_q = measure_change(
            model_p,
            _timefn_build(market["rate"]),
            _timefn_build(cfg["solver"]["gamma"]),
            horizon=t_end,
        )
    except InvariantError as exc:
        raise ConfigError("solver.gamma", str(exc)) from exc

    hedge = market["hedge"]
    if hedge["kind"] == "zero":
        hedge_fn, hedge_lip = zero_hedge, 0.0
    else:
        hedge_fn, hedge_lip = proportional_hedge(hedge["delta"]), abs(hedge["delta"])

    spec = MarketSpec(
        rate=_timefn_build(market["rate"]),
        collateral_rate_pos=_timefn_build(market["collateral_rate_pos"]),
        collateral_rate_neg=_timefn_build(market["collateral_rate_neg"]),
        funding_rate_pos=_timefn_build(market["funding_rate_pos"]),
        funding_rate_neg=_timefn_build(market["funding_rate_neg"]),
        hedge_rate_pos=_timefn_build(market["hedge_rate_pos"]),
        hedge_rate_neg=_timefn_build(market["hedge_rate_neg"]),
        collateral_frac=_timefn_build(market["collateral_frac"]),
        closeout_frac=_timefn_build(market["closeout_frac"]),
        lgd_investor=market["lgd_investor"],
        lgd_counterparty=market["lgd_counterparty"],
        own_default_funding=market["own_default_funding"],
        dividend=_build_dividend(market["dividend"]),
        hedge=hedge_fn,
        hedge_lipschitz=hedge_lip,
        payoff=_build_payoff(market["payoff"]),
        defaults=_build_defaults(cfg["defaults"]),
        t0=t0,
    )
    try:
        spec.validate(horizon=t_end - t0)
    except InvariantError as exc:
        raise ConfigError("market", str(exc)) from exc

    return RunSetup(
        cfg=cfg,
        params=params,
        model_p=model_p,
        model_q=model_q,
        spec=spec,
        s0=model["s0"],
        v0=model["v0"],
        t0=t0,
        t_end=t_end,
        n_steps=grid["n_steps"],
        nt=grid["nt"],
        nx=grid["nx"],
        nv=grid["nv"],
        x_range=grid["x_range"],
        v_range=grid["v_range"],
        n_paths=cfg["mc"]["n_paths"],
        master_seed=cfg["mc"]["master_seed"],
        max_iter=cfg["solver"]["max_iter"],
        tol=cfg["solver"]["tol"],
    )


def resolve_axes(setup: RunSetup):
    """Concrete (t, x, v) grid nodes, running the pilot hull when 'auto'.

    The pilot simulation is seeded from the run's master seed, so the
    resolved axes are part of the reproducible surface of a run.
    """
    from .mildsolver import auto_hull
    from .simulate import TimeGrid

    t_nodes = np.linspace(setup.t0, setup.t_end, setup.nt)
    need = setup.x_range == "auto" or setup.v_range == "auto"
    hull = None
    if need:
        pilot = TimeGrid(setup.t0, setup.t_end, min(setup.n_steps, 64))
        hull = auto_hull(
            setup.model_q,
            (math.log(setup.s0), setup.v0),
            pilot,
            n_paths=4000,
            seed=setup.master_seed + 101,
        )
    if setup.x_range == "auto":
        x_lo, x_hi = hull[0], hull[1]
    else:
        x_lo, x_hi = setup.x_range
    if setup.v_range == "auto":
        # value grids require positive variance nodes; clamp the pilot floor
        v_lo = max(hull[2], 1e-8)
        v_hi = max(hull[3], v_lo * (1.0 + 1e-6) + 1e-8)
    else:
        v_lo, v_hi = setup.v_range
    return (
        t_nodes,
        np.linspace(x_lo, x_hi, setup.nx),
        np.linspace(v_lo, v_hi, setup.nv),
    )
