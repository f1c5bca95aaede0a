"""Run configuration: JSON schema, validation, and object assembly.

A run config is a plain JSON object with sections model / market /
defaults / grid / mc / solver.  Loading is strict: unknown keys are
rejected at every level and every violation is reported with the full
field path (``market.collateral_frac: ...``), so a typo fails fast
instead of silently running with a default.  ``normalise_config`` fills
optional fields and rewrites the config into a canonical form that is a
fixed point of itself: load -> normalise -> emit -> load -> normalise
reproduces the same dictionary byte for byte.

Each section, and each model preset, dividend, hedge and payoff kind, is
one table of (key, default, check) fields; a kind's entry also holds the
function that builds it.  ``normalise_config`` and ``build_run`` walk
those tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

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


def _timefn_cfg(val, path: str, check=_num):
    """Validate a constant-or-piecewise time function, return canonical form.

    ``check`` validates the constant, or each piecewise value."""
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        return check(val, path)
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
    vs = [check(v, f"{path}.values[{i}]") for i, v in enumerate(values)]
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


# -- the schema walker ------------------------------------------------------------

_REQUIRED = object()  # a field default: an absent key is a violation


def _fields(obj: dict, path: str, fields, required: str = "required") -> dict:
    """Check ``fields`` of obj in table order and return their canonical form.

    A field is (key, default, check): an absent key takes the default, then
    ``check(value, field_path)`` validates it.  A callable in the table is a
    cross-field rule; it runs where it stands, on the fields checked so far.
    """
    out = {}
    for field in fields:
        if callable(field):
            field(out, path)
            continue
        key, default, check = field
        val = obj.get(key, default)
        if val is _REQUIRED:
            raise ConfigError(f"{path}.{key}", required)
        out[key] = check(val, f"{path}.{key}")
    return out


def _keys(fields) -> list:
    return [field[0] for field in fields if not callable(field)]


def _section(raw, path: str, fields) -> dict:
    """An object holding the table's fields and nothing else."""
    obj = _obj(raw, path)
    _reject_unknown(obj, path, _keys(fields))
    return _fields(obj, path, fields)


class _Kind(NamedTuple):
    """One kind of a kind-switched object: its fields and how to build it."""

    fields: object  # a field table, or a normaliser of the whole object
    build: Callable  # canonical form -> the object a run uses
    band: Optional[Callable] = None  # payoffs: canonical form -> value band (lo, hi) or None


def _kinded(raw, path: str, table: dict, tag: str = "kind", common=(), expected=None) -> dict:
    """An object whose ``tag`` names a kind of ``table``; the ``common`` fields
    every kind shares are checked before unknown keys are rejected."""
    obj = _obj(raw, path)
    kind = obj.get(tag)
    if kind not in list(table):  # list membership: a JSON array or object is not hashable
        *rest, last = map(repr, table)
        raise ConfigError(f"{path}.{tag}", expected or f"expected {', '.join(rest)} or {last}")
    fields = table[kind].fields
    if callable(fields):
        return fields(obj, path)
    out = {tag: kind, **_fields(obj, path, common)}
    _reject_unknown(obj, path, {tag, *_keys(common), *_keys(fields)})
    out.update(_fields(obj, path, fields, required=f"required for {tag} {kind!r}"))
    return out


# -- checks and cross-field rules ---------------------------------------------------


def _optional(val, path: str, check):
    return None if val is None else check(val, path)


def _array_of(val, path: str, check) -> list:
    if not isinstance(val, list):
        raise ConfigError(path, "expected an array")
    return [check(v, f"{path}[{i}]") for i, v in enumerate(val)]


_POSITIVE = partial(_num, lo=0.0, lo_strict=True)
_OPTIONAL_POSITIVE = partial(_optional, check=_POSITIVE)
_NON_NEGATIVE = partial(_num, lo=0.0)
_FRACTION = partial(_num, lo=0.0, hi=1.0)
_TIMEFN_NON_NEGATIVE = partial(_timefn_cfg, check=_NON_NEGATIVE)


def _correlation(val, path: str) -> float:
    rho = _num(val, path, lo=-1.0, hi=1.0)
    if abs(rho) >= 1.0:
        raise ConfigError(path, "must lie strictly inside (-1, 1)")
    return rho


def _sigma_or_v0(out: dict, path: str) -> None:
    sigma, v0 = out["sigma"], out["v0"]
    if sigma is None and v0 is None:
        raise ConfigError(f"{path}.sigma", "black_scholes needs sigma or v0")
    if sigma is None:
        sigma = math.sqrt(v0)
    if v0 is None:
        v0 = sigma * sigma
        if not 0.0 < v0 < math.inf:  # v0 is emitted, and must pass its own check
            raise ConfigError(f"{path}.sigma", f"sigma^2 must be positive and finite, got {v0}")
    if abs(v0 - sigma * sigma) > 1e-12 * max(1.0, v0):
        raise ConfigError(f"{path}.v0", f"inconsistent with sigma^2 = {sigma * sigma}")
    out.update(sigma=sigma, v0=v0)


def _paired(terms: str, powers: str):
    def rule(out: dict, path: str) -> None:
        if len(out[terms]) != len(out[powers]):
            raise ConfigError(f"{path}.{powers}", f"must pair one exponent per {terms} term")

    return rule


def _fractions_ordered(out: dict, path: str, ts: np.ndarray) -> None:
    a = on_times(_timefn_build(out["collateral_frac"]), ts)
    b = on_times(_timefn_build(out["closeout_frac"]), ts)
    bad = np.flatnonzero((a > b) | (b > 1.0))
    if bad.size:
        j = bad[0]
        if a[j] > b[j]:
            raise ConfigError(
                f"{path}.collateral_frac",
                f"must stay <= {path}.closeout_frac, got ({a[j]}, {b[j]}) at t={ts[j]}",
            )
        raise ConfigError(f"{path}.closeout_frac", f"must stay <= 1, got {b[j]} at t={ts[j]}")


def _t_after_t0(out: dict, path: str) -> None:
    if out["T"] <= out["t0"]:
        raise ConfigError(f"{path}.T", f"must exceed {path}.t0 = {out['t0']}, got {out['T']}")


def _nt_divides_steps(out: dict, path: str) -> None:
    n_steps = out["n_steps"]
    if out["nt"] is None:
        out["nt"] = _largest_divisor(n_steps, 8) + 1
    if n_steps % (out["nt"] - 1) != 0:
        raise ConfigError(
            f"{path}.nt", f"nt - 1 = {out['nt'] - 1} must divide {path}.n_steps = {n_steps}"
        )


def _largest_divisor(n: int, cap: int) -> int:
    """Largest divisor of n that is at most cap."""
    return max(d for d in range(1, min(cap, n) + 1) if n % d == 0)


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


# -- the schema: one table per section and per kind ---------------------------------


def _vol_params(maker):
    return lambda m, drift: maker(
        **{key: _timefn_build(m[key]) for key in ("k", "l0", "lam")}, rho=m["rho"], drift_b=drift
    )


def _power_params(m: dict, drift) -> PowerParams:
    p = m["params"]
    return PowerParams(
        **{key: _timefn_build(p[key]) for key in ("k", "l0", "theta0", "theta1", "rho")},
        l=tuple(_timefn_build(v) for v in p["l"]),
        alpha=tuple(p["alpha"]),
        lam=tuple(_timefn_build(v) for v in p["lam"]),
        beta=tuple(p["beta"]),
        drift_b=drift,
    )


_MODEL_COMMON = (("s0", None, _POSITIVE), ("drift_b", 0.0, _timefn_cfg))

_VOL_FIELDS = (
    ("k", _REQUIRED, _TIMEFN_NON_NEGATIVE),
    ("l0", _REQUIRED, _TIMEFN_NON_NEGATIVE),
    ("lam", _REQUIRED, _timefn_cfg),
    ("rho", 0.0, _correlation),
    ("v0", None, _NON_NEGATIVE),
)

# the custom preset's theta1 defaults to 0, unlike PowerParams' 1
_POWER_FIELDS = (
    ("k", 0.0, _TIMEFN_NON_NEGATIVE),
    ("l0", 0.0, _TIMEFN_NON_NEGATIVE),
    ("theta0", 0.0, _timefn_cfg),
    ("theta1", 0.0, _timefn_cfg),
    ("rho", 0.0, partial(_timefn_cfg, check=_correlation)),
    ("l", [], partial(_array_of, check=partial(_timefn_cfg, check=partial(_num, hi=0.0)))),
    ("lam", [], partial(_array_of, check=_timefn_cfg)),
    ("alpha", [], partial(_array_of, check=partial(_num, lo=1.0))),
    ("beta", [], partial(_array_of, check=partial(_num, lo=0.5))),
    _paired("l", "alpha"),
    _paired("lam", "beta"),
)

# build(model, drift_b) takes the canonical model and its drift_b time function
_PRESETS = {
    "black_scholes": _Kind(
        (("sigma", None, _OPTIONAL_POSITIVE), ("v0", None, _OPTIONAL_POSITIVE), _sigma_or_v0),
        lambda m, drift: black_scholes_params(drift_b=drift),
    ),
    "heston": _Kind(_VOL_FIELDS, _vol_params(heston_params)),
    "garch": _Kind(_VOL_FIELDS, _vol_params(garch_params)),
    "custom": _Kind(
        (("v0", None, _NON_NEGATIVE), ("params", None, partial(_section, fields=_POWER_FIELDS))),
        _power_params,
    ),
}


def _piecewise_dividend(norm: dict) -> Callable:
    fn = _timefn_build(norm)

    def pi(t, s, v):
        return float(fn(t))

    return pi


_DIVIDENDS = {
    "zero": _Kind((), lambda d: zero_dividend),
    "constant": _Kind((("value", None, _num),), lambda d: constant_dividend(d["value"])),
    "piecewise_constant": _Kind(_timefn_cfg, _piecewise_dividend),  # a time function
}

# build returns the hedge and its Lipschitz constant in the value
_HEDGES = {
    "zero": _Kind((), lambda h: (zero_hedge, 0.0)),
    "delta_proportional": _Kind(
        (("delta", None, _num),),
        lambda h: (proportional_hedge(h["delta"]), abs(h["delta"])),
    ),
}

_PAYOFFS = {
    "constant": _Kind(
        (("value", None, _num),),
        lambda p: constant_payoff(p["value"]),
        band=lambda p: (0.0, p["value"]) if p["value"] >= 0.0 else None,
    ),
    "capped_call": _Kind(
        (("strike", None, _POSITIVE), ("cap", None, _POSITIVE)),
        lambda p: capped_call(p["strike"], p["cap"]),
        band=lambda p: (0.0, p["cap"]),
    ),
}

_RATE_KEYS = (
    "collateral_rate_pos",
    "collateral_rate_neg",
    "funding_rate_pos",
    "funding_rate_neg",
    "hedge_rate_pos",
    "hedge_rate_neg",
)

_TIME_KEYS = ("rate", *_RATE_KEYS, "collateral_frac", "closeout_frac")  # MarketSpec time functions

_MARKET_TERMS = (
    ("lgd_investor", 0.0, _FRACTION),
    ("lgd_counterparty", 0.0, _FRACTION),
    ("own_default_funding", True, _bool),
    ("dividend", {"kind": "zero"}, partial(_kinded, table=_DIVIDENDS)),
    ("hedge", {"kind": "zero"}, partial(_kinded, table=_HEDGES)),
    ("payoff", _REQUIRED, partial(_kinded, table=_PAYOFFS)),
)

_THRESHOLD = (("shape", None, _POSITIVE), ("rate", None, _POSITIVE))

_GRID = (
    ("t0", 0.0, _num),
    ("T", _REQUIRED, _num),
    _t_after_t0,
    ("n_steps", 64, partial(_int, lo=1)),
    ("nt", None, partial(_optional, check=partial(_int, lo=2))),  # None: see _nt_divides_steps
    _nt_divides_steps,
    ("nx", 21, partial(_int, lo=2)),
    ("nv", 9, partial(_int, lo=2)),
    ("x_range", "auto", partial(_norm_range, positive=False)),
    ("v_range", "auto", partial(_norm_range, positive=True)),
)

_MC = (("n_paths", 20000, partial(_int, lo=2)), ("master_seed", 0, partial(_int, lo=0)))

_SOLVER = (
    ("tol", 1e-3, _POSITIVE),
    ("max_iter", 25, partial(_int, lo=1)),
    ("gamma", 0.0, _timefn_cfg),
)


# -- section normalisers ----------------------------------------------------------


def _norm_party(raw, path: str) -> Optional[dict]:
    if raw is None:
        return None
    obj = _obj(raw, path)
    _reject_unknown(obj, path, {"intensity", "threshold"})
    if "intensity" not in obj:
        raise ConfigError(f"{path}.intensity", "required")
    thr = _obj(obj.get("threshold", None), f"{path}.threshold")
    _reject_unknown(thr, f"{path}.threshold", _keys(_THRESHOLD))
    return {
        "intensity": _TIMEFN_NON_NEGATIVE(obj["intensity"], f"{path}.intensity"),
        "threshold": _fields(thr, f"{path}.threshold", _THRESHOLD),
    }


_PARTIES = (("investor", None, _norm_party), ("counterparty", None, _norm_party))


def _norm_defaults(raw) -> Optional[dict]:
    parties = None if raw is None else _section(raw, "defaults", _PARTIES)
    return parties if parties and any(parties.values()) else None  # no clock: no section


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
    grid = _section(obj["grid"], "grid", _GRID)
    model = _kinded(obj["model"], "model", _PRESETS, "preset", _MODEL_COMMON,
                    expected=f"expected one of {list(_PRESETS)}")
    market = _obj(obj["market"], "market")
    market_fields = (
        ("rate", _REQUIRED, _timefn_cfg),
        # absent spread rates default to the risk-free rate, not to zero
        *((key, market.get("rate"), _timefn_cfg) for key in _RATE_KEYS),
        ("collateral_frac", 0.0, _TIMEFN_NON_NEGATIVE),
        ("closeout_frac", 1.0, _TIMEFN_NON_NEGATIVE),
        partial(_fractions_ordered, ts=np.linspace(grid["t0"], grid["T"], 257)),
        *_MARKET_TERMS,
    )
    return {
        "model": model,
        "market": _section(market, "market", market_fields),
        "defaults": _norm_defaults(obj.get("defaults")),
        "grid": grid,
        "mc": _section({} if obj.get("mc") is None else obj["mc"], "mc", _MC),
        "solver": _section({} if obj.get("solver") is None else obj["solver"], "solver", _SOLVER),
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


def _build_defaults(norm) -> Optional[DefaultSpec]:
    if norm is None:
        return None

    def party(p):
        if p is None:
            return no_default_party()
        return PartyDefault(
            intensity=_timefn_build(p["intensity"]), threshold=GammaParams(**p["threshold"])
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
    payoff_band: Optional[tuple]  # the payoff's value band (lo, hi), or None
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
    params = _PRESETS[model["preset"]].build(model, _timefn_build(model["drift_b"]))
    try:
        model_p = build_power_model(params, horizon=t_end)
    except InvariantError as exc:
        raise ConfigError("model", str(exc)) from exc
    times = {key: _timefn_build(market[key]) for key in _TIME_KEYS}
    try:
        model_q = measure_change(
            model_p, times["rate"], _timefn_build(cfg["solver"]["gamma"]), horizon=t_end
        )
    except InvariantError as exc:
        raise ConfigError("solver.gamma", str(exc)) from exc

    payoff = market["payoff"]
    hedge, hedge_lipschitz = _HEDGES[market["hedge"]["kind"]].build(market["hedge"])
    spec = MarketSpec(
        **times,
        lgd_investor=market["lgd_investor"],
        lgd_counterparty=market["lgd_counterparty"],
        own_default_funding=market["own_default_funding"],
        dividend=_DIVIDENDS[market["dividend"]["kind"]].build(market["dividend"]),
        hedge=hedge,
        hedge_lipschitz=hedge_lipschitz,
        payoff=_PAYOFFS[payoff["kind"]].build(payoff),
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
        payoff_band=_PAYOFFS[payoff["kind"]].band(payoff),
        s0=model["s0"],
        v0=model["v0"],
        t0=t0,
        t_end=t_end,
        **{key: grid[key] for key in ("n_steps", "nt", "nx", "nv", "x_range", "v_range")},
        **{key: cfg["mc"][key] for key in ("n_paths", "master_seed")},
        **{key: cfg["solver"][key] for key in ("max_iter", "tol")},
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
