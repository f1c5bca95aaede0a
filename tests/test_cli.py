"""Config loading, CLI subcommands, exit codes, and run manifests."""

import ast
import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from xvamild import cli, config, verify
from xvamild.cli import main
from xvamild.config import (
    ConfigError,
    build_run,
    emit_config,
    normalise_config,
    resolve_axes,
)
from xvamild.defaultclock import (
    default_density,
    empirical_survival,
    sample_default_times,
    survival_curve,
)
from xvamild.gridfn import CoverageError
from xvamild.mildsolver import PicardReport, linear_oracle
from xvamild.simulate import TimeGrid
from xvamild.valuation import constant_dividend
from xvamild.volmodel import as_time_fn


def full_xva_config():
    return {
        "model": {
            "preset": "heston", "s0": 100.0, "v0": 0.04,
            "k": 0.05, "l0": 1.0, "lam": 0.3, "rho": -0.5, "drift_b": 0.02,
        },
        "market": {
            "rate": 0.03,
            "collateral_rate_pos": 0.035, "collateral_rate_neg": 0.025,
            "funding_rate_pos": 0.05, "funding_rate_neg": 0.02,
            "collateral_frac": 0.5, "closeout_frac": 1.0,
            "lgd_investor": 0.6, "lgd_counterparty": 0.4,
            "payoff": {"kind": "capped_call", "strike": 100.0, "cap": 30.0},
        },
        "defaults": {
            "investor": {"intensity": 0.10, "threshold": {"shape": 1.0, "rate": 1.0}},
            "counterparty": {
                "intensity": {
                    "kind": "piecewise_constant", "times": [0.25], "values": [0.15, 0.2],
                },
                "threshold": {"shape": 1.5, "rate": 1.0},
            },
        },
        "grid": {"t0": 0.0, "T": 0.5, "n_steps": 32, "nt": 5, "nx": 9, "nv": 5},
        "mc": {"n_paths": 3000, "master_seed": 7},
        "solver": {"max_iter": 12, "tol": 0.001},
    }


def bs_call_config():
    return {
        "model": {"preset": "black_scholes", "s0": 100.0, "sigma": 0.2},
        "market": {"rate": 0.05, "payoff": {"kind": "capped_call", "strike": 100.0, "cap": 1000.0}},
        "grid": {"t0": 0.0, "T": 1.0, "n_steps": 8, "nt": 3, "nx": 7, "nv": 2},
        "mc": {"n_paths": 1500, "master_seed": 5},
        "solver": {"max_iter": 8, "tol": 0.001},
    }


def write_cfg(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def manifest_outputs(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)["outputs"]


# -- config schema ------------------------------------------------------------------


def test_normalise_round_trip_is_fixed_point():
    n1 = normalise_config(full_xva_config())
    n2 = normalise_config(json.loads(emit_config(n1)))
    assert n1 == n2
    assert emit_config(n1) == emit_config(n2)


def test_defaults_filled_and_spreads_inherit_rate():
    cfg = normalise_config(bs_call_config())
    assert cfg["market"]["funding_rate_pos"] == 0.05
    assert cfg["market"]["collateral_frac"] == 0.0
    assert cfg["market"]["closeout_frac"] == 1.0
    assert cfg["defaults"] is None
    assert cfg["grid"]["x_range"] == "auto"


def test_black_scholes_sigma_v0_equivalence():
    by_sigma = normalise_config(bs_call_config())
    cfg = bs_call_config()
    del cfg["model"]["sigma"]
    cfg["model"]["v0"] = 0.04000000000000001
    by_v0 = normalise_config(cfg)
    assert by_sigma["model"]["v0"] == pytest.approx(by_v0["model"]["v0"])
    cfg["model"]["sigma"] = 0.5  # inconsistent with v0
    with pytest.raises(ConfigError, match="model.v0"):
        normalise_config(cfg)


def test_default_nt_divides_n_steps():
    cfg = bs_call_config()
    del cfg["grid"]["nt"]
    cfg["grid"]["n_steps"] = 48
    assert normalise_config(cfg)["grid"]["nt"] == 9  # 8 divides 48
    cfg["grid"]["n_steps"] = 50
    assert normalise_config(cfg)["grid"]["nt"] == 6  # 5 is the largest divisor <= 8
    cfg["grid"]["nt"] = 7  # 6 does not divide 50
    with pytest.raises(ConfigError, match="grid.nt"):
        normalise_config(cfg)


@pytest.mark.parametrize(
    "mutate, path_part",
    [
        (lambda c: c["market"].update(colateral_frac=0.5), "market.colateral_frac"),
        (lambda c: c["market"].update(collateral_frac=0.9, closeout_frac=0.4),
         "market.collateral_frac"),
        (lambda c: c["market"].pop("payoff"), "market.payoff"),
        (lambda c: c["market"].update(rate=float("inf")), "market.rate"),
        (lambda c: c["model"].update(preset="hestonn"), "model.preset"),
        (lambda c: c["model"].update(rho=1.5), "model.rho"),
        (lambda c: c["grid"].update(T=-1.0), "grid.T"),
        (lambda c: c["grid"].update(v_range=[-0.1, 0.3]), "grid.v_range"),
        (lambda c: c["mc"].update(n_paths=1), "mc.n_paths"),
        (lambda c: c["solver"].update(tol=0.0), "solver.tol"),
        (lambda c: c["solver"].update(time_slabs=2), "solver.time_slabs"),
        (lambda c: c["defaults"]["investor"]["threshold"].update(shape=0.0),
         "defaults.investor.threshold.shape"),
        (lambda c: c["defaults"]["investor"].update(intensity=-0.1),
         "defaults.investor.intensity"),
    ],
)
def test_violations_report_field_paths(mutate, path_part):
    cfg = full_xva_config()
    mutate(cfg)
    with pytest.raises(ConfigError) as err:
        normalise_config(cfg)
    assert path_part in str(err.value)


def test_piecewise_time_function_validation():
    cfg = full_xva_config()
    cfg["market"]["rate"] = {"kind": "piecewise_constant", "times": [0.2, 0.1], "values": [1, 2, 3]}
    with pytest.raises(ConfigError, match="market.rate.times"):
        normalise_config(cfg)
    cfg["market"]["rate"] = {"kind": "piecewise_constant", "times": [0.1, 0.2], "values": [1, 2]}
    with pytest.raises(ConfigError, match="market.rate.values"):
        normalise_config(cfg)


# -- golden config ------------------------------------------------------------------

# One base per model preset; together they hold every dividend, hedge and
# payoff kind.  A case applies {dotted path: value} edits to a base (DROP
# deletes the key) and pins either the exact ConfigError text or, when the
# config is accepted, its canonical JSON (compact here, compared as
# emit_config's two-space-indented text).
DROP = object()


def _pw(times, values, **extra):
    return {"kind": "piecewise_constant", "times": times, "values": values, **extra}


GOLDEN_BASES = {
    "heston": {
        "model": {"preset": "heston", "s0": 100.0, "v0": 0.04, "k": 0.05, "l0": 1.0,
                  "lam": 0.3, "rho": -0.5, "drift_b": 0.02},
        "market": {
            "rate": 0.03, "collateral_rate_pos": 0.035, "funding_rate_neg": 0.02,
            "collateral_frac": 0.5, "lgd_investor": 0.6, "lgd_counterparty": 0.4,
            "own_default_funding": False,
            "dividend": {"kind": "constant", "value": 0.01},
            "hedge": {"kind": "delta_proportional", "delta": -0.5},
            "payoff": {"kind": "capped_call", "strike": 100.0, "cap": 30.0},
        },
        "defaults": {
            "investor": {"intensity": 0.1, "threshold": {"shape": 1.0, "rate": 1.0}},
            "counterparty": {
                "intensity": _pw([0.25], [0.15, 0.2]),
                "threshold": {"shape": 1.5, "rate": 2.0},
            },
        },
        "grid": {"t0": 0.0, "T": 0.5, "n_steps": 32, "nt": 5, "nx": 9, "nv": 5},
        "mc": {"n_paths": 3000, "master_seed": 7},
        "solver": {"max_iter": 12, "tol": 0.001, "gamma": 0.1},
    },
    "black_scholes": {
        "model": {"preset": "black_scholes", "s0": 100.0, "sigma": 0.2},
        "market": {
            "rate": _pw([0.5], [0.05, 0.04]),
            "dividend": _pw([0.25], [0.0, 0.01]),
            "payoff": {"kind": "constant", "value": 1.0},
        },
        "grid": {"T": 1.0, "n_steps": 8, "nx": 7, "nv": 2,
                 "x_range": [4.0, 5.0], "v_range": [0.01, 0.09]},
    },
    "garch": {
        "model": {"preset": "garch", "s0": 50.0, "v0": 0.1, "l0": 0.5, "lam": 0.2,
                  "k": _pw([1.0], [0.1, 0.2])},
        "market": {"rate": 0.0, "closeout_frac": 0.8,
                   "payoff": {"kind": "capped_call", "strike": 50.0, "cap": 10.0}},
        "defaults": {"counterparty": {"intensity": 0.05,
                                      "threshold": {"shape": 2.0, "rate": 1.0}}},
        "grid": {"t0": 0.5, "T": 1.5, "n_steps": 12},
        "mc": None,
        "solver": None,
    },
    "custom": {
        "model": {
            "preset": "custom", "s0": 1.0, "v0": 0.2,
            "params": {"k": 0.1, "l0": 0.5, "l": [-0.1], "alpha": [1.5], "lam": [0.2, 0.1],
                       "beta": [0.5, 1.0], "theta0": 0.2, "rho": -0.3},
        },
        "market": {"rate": 0.01, "dividend": {"kind": "zero"}, "hedge": {"kind": "zero"},
                   "payoff": {"kind": "constant", "value": -1.0}},
        "grid": {"T": 1.0},
        "mc": {},
        "solver": {"gamma": 0.0},
    },
}


def _edited(base: str, edits: dict):
    cfg = copy.deepcopy(GOLDEN_BASES[base])
    for path, value in edits.items():
        if not path:
            return value
        *parents, key = path.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        if value is DROP:
            del node[key]
        else:
            node[key] = value
    return cfg


GOLDEN_CASES = [
    ("heston", {},
     '{"defaults":{"counterparty":{"intensity":{"kind":"piecewise_constant","times":[0.25]'
     ',"values":[0.15,0.2]},"threshold":{"rate":2.0,"shape":1.5}},"investor":{"intensity":'
     '0.1,"threshold":{"rate":1.0,"shape":1.0}}},"grid":{"T":0.5,"n_steps":32,"nt":5,"nv":'
     '5,"nx":9,"t0":0.0,"v_range":"auto","x_range":"auto"},"market":{"closeout_frac":1.0,"'
     'collateral_frac":0.5,"collateral_rate_neg":0.03,"collateral_rate_pos":0.035,"dividen'
     'd":{"kind":"constant","value":0.01},"funding_rate_neg":0.02,"funding_rate_pos":0.03,'
     '"hedge":{"delta":-0.5,"kind":"delta_proportional"},"hedge_rate_neg":0.03,"hedge_rate'
     '_pos":0.03,"lgd_counterparty":0.4,"lgd_investor":0.6,"own_default_funding":false,"pa'
     'yoff":{"cap":30.0,"kind":"capped_call","strike":100.0},"rate":0.03},"mc":{"master_se'
     'ed":7,"n_paths":3000},"model":{"drift_b":0.02,"k":0.05,"l0":1.0,"lam":0.3,"preset":"'
     'heston","rho":-0.5,"s0":100.0,"v0":0.04},"solver":{"gamma":0.1,"max_iter":12,"tol":0'
     '.001}}'),
    ("black_scholes", {},
     '{"defaults":null,"grid":{"T":1.0,"n_steps":8,"nt":9,"nv":2,"nx":7,"t0":0.0,"v_range"'
     ':[0.01,0.09],"x_range":[4.0,5.0]},"market":{"closeout_frac":1.0,"collateral_frac":0.'
     '0,"collateral_rate_neg":{"kind":"piecewise_constant","times":[0.5],"values":[0.05,0.'
     '04]},"collateral_rate_pos":{"kind":"piecewise_constant","times":[0.5],"values":[0.05'
     ',0.04]},"dividend":{"kind":"piecewise_constant","times":[0.25],"values":[0.0,0.01]},'
     '"funding_rate_neg":{"kind":"piecewise_constant","times":[0.5],"values":[0.05,0.04]},'
     '"funding_rate_pos":{"kind":"piecewise_constant","times":[0.5],"values":[0.05,0.04]},'
     '"hedge":{"kind":"zero"},"hedge_rate_neg":{"kind":"piecewise_constant","times":[0.5],'
     '"values":[0.05,0.04]},"hedge_rate_pos":{"kind":"piecewise_constant","times":[0.5],"v'
     'alues":[0.05,0.04]},"lgd_counterparty":0.0,"lgd_investor":0.0,"own_default_funding":'
     'true,"payoff":{"kind":"constant","value":1.0},"rate":{"kind":"piecewise_constant","t'
     'imes":[0.5],"values":[0.05,0.04]}},"mc":{"master_seed":0,"n_paths":20000},"model":{"'
     'drift_b":0.0,"preset":"black_scholes","s0":100.0,"sigma":0.2,"v0":0.0400000000000000'
     '1},"solver":{"gamma":0.0,"max_iter":25,"tol":0.001}}'),
    ("garch", {},
     '{"defaults":{"counterparty":{"intensity":0.05,"threshold":{"rate":1.0,"shape":2.0}},'
     '"investor":null},"grid":{"T":1.5,"n_steps":12,"nt":7,"nv":9,"nx":21,"t0":0.5,"v_rang'
     'e":"auto","x_range":"auto"},"market":{"closeout_frac":0.8,"collateral_frac":0.0,"col'
     'lateral_rate_neg":0.0,"collateral_rate_pos":0.0,"dividend":{"kind":"zero"},"funding_'
     'rate_neg":0.0,"funding_rate_pos":0.0,"hedge":{"kind":"zero"},"hedge_rate_neg":0.0,"h'
     'edge_rate_pos":0.0,"lgd_counterparty":0.0,"lgd_investor":0.0,"own_default_funding":t'
     'rue,"payoff":{"cap":10.0,"kind":"capped_call","strike":50.0},"rate":0.0},"mc":{"mast'
     'er_seed":0,"n_paths":20000},"model":{"drift_b":0.0,"k":{"kind":"piecewise_constant",'
     '"times":[1.0],"values":[0.1,0.2]},"l0":0.5,"lam":0.2,"preset":"garch","rho":0.0,"s0"'
     ':50.0,"v0":0.1},"solver":{"gamma":0.0,"max_iter":25,"tol":0.001}}'),
    ("custom", {},
     '{"defaults":null,"grid":{"T":1.0,"n_steps":64,"nt":9,"nv":9,"nx":21,"t0":0.0,"v_rang'
     'e":"auto","x_range":"auto"},"market":{"closeout_frac":1.0,"collateral_frac":0.0,"col'
     'lateral_rate_neg":0.01,"collateral_rate_pos":0.01,"dividend":{"kind":"zero"},"fundin'
     'g_rate_neg":0.01,"funding_rate_pos":0.01,"hedge":{"kind":"zero"},"hedge_rate_neg":0.'
     '01,"hedge_rate_pos":0.01,"lgd_counterparty":0.0,"lgd_investor":0.0,"own_default_fund'
     'ing":true,"payoff":{"kind":"constant","value":-1.0},"rate":0.01},"mc":{"master_seed"'
     ':0,"n_paths":20000},"model":{"drift_b":0.0,"params":{"alpha":[1.5],"beta":[0.5,1.0],'
     '"k":0.1,"l":[-0.1],"l0":0.5,"lam":[0.2,0.1],"rho":-0.3,"theta0":0.2,"theta1":0.0},"p'
     'reset":"custom","s0":1.0,"v0":0.2},"solver":{"gamma":0.0,"max_iter":25,"tol":0.001}}'),
    ("heston", {"": []}, 'config: expected an object, got list'),
    ("heston", {"model": DROP}, 'model: required section'),
    ("heston", {"market": DROP}, 'market: required section'),
    ("heston", {"grid": DROP}, 'grid: required section'),
    ("heston", {"extra": 1}, 'extra: unknown key'),
    ("heston", {"model": 3}, 'model: expected an object, got int'),
    ("heston", {"model.preset": "hestonn"},
     "model.preset: expected one of ['black_scholes', 'heston', 'garch', 'custom']"),
    ("heston", {"model.preset": {}},
     "model.preset: expected one of ['black_scholes', 'heston', 'garch', 'custom']"),
    ("heston", {"model.preset": DROP},
     "model.preset: expected one of ['black_scholes', 'heston', 'garch', 'custom']"),
    ("heston", {"model.s0": 0.0}, 'model.s0: must be > 0.0, got 0.0'),
    ("heston", {"model.s0": DROP}, 'model.s0: expected a number, got NoneType'),
    ("heston", {"model.drift_b": "x"}, 'model.drift_b: expected an object, got str'),
    ("heston", {"model.extra": 1}, 'model.extra: unknown key'),
    ("heston", {"model.sigma": 0.2}, 'model.sigma: unknown key'),
    ("heston", {"model.k": DROP}, "model.k: required for preset 'heston'"),
    ("heston", {"model.k": -0.1}, 'model.k: must be >= 0.0, got -0.1'),
    ("heston", {"model.l0": DROP}, "model.l0: required for preset 'heston'"),
    ("heston", {"model.l0": -1}, 'model.l0: must be >= 0.0, got -1.0'),
    ("heston", {"model.lam": DROP}, "model.lam: required for preset 'heston'"),
    ("heston", {"model.lam": True}, 'model.lam: expected an object, got bool'),
    ("heston", {"model.rho": 1.0}, 'model.rho: must lie strictly inside (-1, 1)'),
    ("heston", {"model.rho": 1.5}, 'model.rho: must be <= 1.0, got 1.5'),
    ("heston", {"model.rho": "x"}, 'model.rho: expected a number, got str'),
    ("heston", {"model.v0": -0.01}, 'model.v0: must be >= 0.0, got -0.01'),
    ("heston", {"model.v0": DROP}, 'model.v0: expected a number, got NoneType'),
    ("heston", {"model.s0": -1, "model.extra": 1}, 'model.s0: must be > 0.0, got -1.0'),
    ("heston", {"model.extra": 1, "model.k": DROP}, 'model.extra: unknown key'),
    ("heston", {"model.rho": 1.0, "model.v0": DROP}, 'model.rho: must lie strictly inside (-1, 1)'),
    ("garch", {"model.k": DROP}, "model.k: required for preset 'garch'"),
    ("garch", {"model.l0": _pw([0.1], [1])},
     'model.l0.values: need len(times) + 1 = 2 entries, got 1'),
    ("garch", {"model.lam": [0.2]}, 'model.lam: expected an object, got list'),
    ("garch", {"model.rho": -1.0}, 'model.rho: must lie strictly inside (-1, 1)'),
    ("garch", {"model.params": {}}, 'model.params: unknown key'),
    ("black_scholes", {"model.sigma": DROP}, 'model.sigma: black_scholes needs sigma or v0'),
    ("black_scholes", {"model.sigma": None}, 'model.sigma: black_scholes needs sigma or v0'),
    ("black_scholes", {"model.sigma": -0.2}, 'model.sigma: must be > 0.0, got -0.2'),
    ("black_scholes", {"model.v0": 0.09},
     'model.v0: inconsistent with sigma^2 = 0.04000000000000001'),
    ("black_scholes", {"model.v0": "x"}, 'model.v0: expected a number, got str'),
    ("black_scholes", {"model.v0": 0.0, "model.sigma": DROP}, 'model.v0: must be > 0.0, got 0.0'),
    ("black_scholes", {"model.k": 0.1}, 'model.k: unknown key'),
    ("black_scholes", {"model.drift_b": _pw([], [1])},
     'model.drift_b.times: expected a non-empty array of numbers'),
    ("custom", {"model.params": DROP}, 'model.params: expected an object, got NoneType'),
    ("custom", {"model.params": []}, 'model.params: expected an object, got list'),
    ("custom", {"model.params.extra": 1}, 'model.params.extra: unknown key'),
    ("custom", {"model.params.k": -1}, 'model.params.k: must be >= 0.0, got -1.0'),
    ("custom", {"model.params.l0": -1}, 'model.params.l0: must be >= 0.0, got -1.0'),
    ("custom", {"model.params.theta0": "x"}, 'model.params.theta0: expected an object, got str'),
    ("custom", {"model.params.theta1": None},
     'model.params.theta1: expected an object, got NoneType'),
    ("custom", {"model.params.rho": []}, 'model.params.rho: expected an object, got list'),
    ("custom", {"model.params.l": 1.0}, 'model.params.l: expected an array'),
    ("custom", {"model.params.l": [-0.1, "x"]}, 'model.params.l[1]: expected an object, got str'),
    ("custom", {"model.params.alpha": {}}, 'model.params.alpha: expected an array'),
    ("custom", {"model.params.alpha": [1.0, 2.0]},
     'model.params.alpha: must pair one exponent per l term'),
    ("custom", {"model.params.alpha": ["x"]}, 'model.params.alpha[0]: expected a number, got str'),
    ("custom", {"model.params.lam": [None]},
     'model.params.lam[0]: expected an object, got NoneType'),
    ("custom", {"model.params.lam": "x"}, 'model.params.lam: expected an array'),
    ("custom", {"model.params.beta": [0.5, "x"]},
     'model.params.beta[1]: expected a number, got str'),
    ("custom", {"model.params.beta": [0.5]},
     'model.params.beta: must pair one exponent per lam term'),
    ("custom", {"model.params.beta": None}, 'model.params.beta: expected an array'),
    ("custom", {"model.params.alpha": [0.5]}, 'model.params.alpha[0]: must be >= 1.0, got 0.5'),
    ("custom", {"model.params.l": [0.1]}, 'model.params.l[0]: must be <= 0.0, got 0.1'),
    ("custom", {"model.params.rho": _pw([0.5], [0.5, 1.5])},
     'model.params.rho.values[1]: must be <= 1.0, got 1.5'),
    ("custom", {"solver.gamma": 0.2},
     'solver.gamma: nonzero vol-of-vol premium requires theta_vanishes_at_zero to be asserted'),
    ("custom", {"model.v0": DROP}, 'model.v0: expected a number, got NoneType'),
    ("custom", {"model.sigma": 0.1}, 'model.sigma: unknown key'),
    ("custom", {"model.params.beta": [], "model.params.alpha": [1.0, 2.0]},
     'model.params.alpha: must pair one exponent per l term'),
    ("heston", {"market": "x"}, 'market: expected an object, got str'),
    ("heston", {"market.extra": 1}, 'market.extra: unknown key'),
    ("heston", {"market.extra": 1, "market.rate": "x"}, 'market.extra: unknown key'),
    ("heston", {"market.rate": DROP}, 'market.rate: required'),
    ("heston", {"market.rate": math.inf}, 'market.rate: must be finite'),
    ("heston", {"market.rate": {"kind": "linear"}},
     "market.rate.kind: expected a number or kind 'piecewise_constant'"),
    ("heston", {"market.rate": {"kind": [], "times": [1.0], "values": [1, 2]}},
     "market.rate.kind: expected a number or kind 'piecewise_constant'"),
    ("heston", {"market.rate": _pw([], [1])},
     'market.rate.times: expected a non-empty array of numbers'),
    ("heston", {"market.rate": _pw([0.2, 0.1], [1, 2, 3])},
     'market.rate.times: must be strictly increasing'),
    ("heston", {"market.rate": _pw([0.1], "x")},
     'market.rate.values: expected an array of numbers'),
    ("heston", {"market.rate": _pw([0.1, "a"], [1, 2, 3])},
     'market.rate.times[1]: expected a number, got str'),
    ("heston", {"market.rate": _pw([0.1], [1, 2, "a"])},
     'market.rate.values[2]: expected a number, got str'),
    ("heston", {"market.rate": _pw([0.1], [1])},
     'market.rate.values: need len(times) + 1 = 2 entries, got 1'),
    ("heston", {"market.rate": _pw([0.1], [1, 2], extra=1)}, 'market.rate.extra: unknown key'),
    ("heston", {"market.collateral_rate_pos": "x"},
     'market.collateral_rate_pos: expected an object, got str'),
    ("heston", {"market.collateral_rate_neg": True},
     'market.collateral_rate_neg: expected an object, got bool'),
    ("heston", {"market.funding_rate_pos": None},
     'market.funding_rate_pos: expected an object, got NoneType'),
    ("heston", {"market.funding_rate_neg": []},
     'market.funding_rate_neg: expected an object, got list'),
    ("heston", {"market.hedge_rate_pos": {}},
     "market.hedge_rate_pos.kind: expected a number or kind 'piecewise_constant'"),
    ("heston", {"market.hedge_rate_neg": -math.inf}, 'market.hedge_rate_neg: must be finite'),
    ("heston", {"market.rate": "x", "market.funding_rate_pos": "y"},
     'market.rate: expected an object, got str'),
    ("heston", {"market.collateral_frac": -0.1},
     'market.collateral_frac: must be >= 0.0, got -0.1'),
    ("heston", {"market.closeout_frac": 0.4},
     'market.collateral_frac: must stay <= market.closeout_frac, got (0.5, 0.4) at t=0.0'),
    ("heston", {"market.closeout_frac": -1}, 'market.closeout_frac: must be >= 0.0, got -1.0'),
    ("heston", {"market.closeout_frac": _pw([0.3], [1.0, 1.5])},
     'market.closeout_frac: must stay <= 1, got 1.5 at t=0.30078125'),
    ("heston", {"market.collateral_frac": _pw([0.3], [0.5, -0.5])},
     'market.collateral_frac.values[1]: must be >= 0.0, got -0.5'),
    ("heston", {"market.closeout_frac": 0.4, "market.lgd_investor": 2},
     'market.collateral_frac: must stay <= market.closeout_frac, got (0.5, 0.4) at t=0.0'),
    ("heston", {"market.lgd_investor": 1.5}, 'market.lgd_investor: must be <= 1.0, got 1.5'),
    ("heston", {"market.lgd_counterparty": -0.1},
     'market.lgd_counterparty: must be >= 0.0, got -0.1'),
    ("heston", {"market.own_default_funding": 1},
     'market.own_default_funding: expected a boolean, got int'),
    ("heston", {"market.dividend": 5}, 'market.dividend: expected an object, got int'),
    ("heston", {"market.dividend.kind": "linear"},
     "market.dividend.kind: expected 'zero', 'constant' or 'piecewise_constant'"),
    ("heston", {"market.dividend.kind": []},
     "market.dividend.kind: expected 'zero', 'constant' or 'piecewise_constant'"),
    ("heston", {"market.dividend.kind": DROP},
     "market.dividend.kind: expected 'zero', 'constant' or 'piecewise_constant'"),
    ("heston", {"market.dividend.value": DROP},
     'market.dividend.value: expected a number, got NoneType'),
    ("heston", {"market.dividend.value": "x"}, 'market.dividend.value: expected a number, got str'),
    ("heston", {"market.dividend.extra": 1}, 'market.dividend.extra: unknown key'),
    ("black_scholes", {"market.dividend.times": [0.3, 0.2]},
     'market.dividend.times: must be strictly increasing'),
    ("black_scholes", {"market.dividend.values": [1]},
     'market.dividend.values: need len(times) + 1 = 2 entries, got 1'),
    ("black_scholes", {"market.dividend.values": ["a"], "market.dividend.times": "x"},
     'market.dividend.times: expected a non-empty array of numbers'),
    ("black_scholes", {"market.dividend.extra": 1}, 'market.dividend.extra: unknown key'),
    ("black_scholes", {"market.dividend.value": 1}, 'market.dividend.value: unknown key'),
    ("garch", {"market.dividend": {"kind": "zero", "value": 1}},
     'market.dividend.value: unknown key'),
    ("heston", {"market.hedge": []}, 'market.hedge: expected an object, got list'),
    ("heston", {"market.hedge.kind": "gamma"},
     "market.hedge.kind: expected 'zero' or 'delta_proportional'"),
    ("heston", {"market.hedge.kind": []},
     "market.hedge.kind: expected 'zero' or 'delta_proportional'"),
    ("heston", {"market.hedge.kind": {}},
     "market.hedge.kind: expected 'zero' or 'delta_proportional'"),
    ("heston", {"market.hedge.delta": DROP}, 'market.hedge.delta: expected a number, got NoneType'),
    ("heston", {"market.hedge.delta": True}, 'market.hedge.delta: expected a number, got bool'),
    ("heston", {"market.hedge.extra": 1}, 'market.hedge.extra: unknown key'),
    ("custom", {"market.hedge.delta": 0.5}, 'market.hedge.delta: unknown key'),
    ("heston", {"market.payoff": DROP}, 'market.payoff: required'),
    ("heston", {"market.payoff": 1}, 'market.payoff: expected an object, got int'),
    ("heston", {"market.payoff.kind": "put"},
     "market.payoff.kind: expected 'constant' or 'capped_call'"),
    ("heston", {"market.payoff.kind": []},
     "market.payoff.kind: expected 'constant' or 'capped_call'"),
    ("heston", {"market.payoff.kind": DROP},
     "market.payoff.kind: expected 'constant' or 'capped_call'"),
    ("heston", {"market.payoff.strike": 0.0}, 'market.payoff.strike: must be > 0.0, got 0.0'),
    ("heston", {"market.payoff.strike": DROP},
     'market.payoff.strike: expected a number, got NoneType'),
    ("heston", {"market.payoff.cap": -1}, 'market.payoff.cap: must be > 0.0, got -1.0'),
    ("heston", {"market.payoff.extra": 1}, 'market.payoff.extra: unknown key'),
    ("black_scholes", {"market.payoff.value": DROP},
     'market.payoff.value: expected a number, got NoneType'),
    ("black_scholes", {"market.payoff.value": "x"},
     'market.payoff.value: expected a number, got str'),
    ("black_scholes", {"market.payoff.strike": 100}, 'market.payoff.strike: unknown key'),
    ("heston", {"defaults": 1}, 'defaults: expected an object, got int'),
    ("heston", {"defaults.extra": 1}, 'defaults.extra: unknown key'),
    ("heston", {"defaults.investor": 1}, 'defaults.investor: expected an object, got int'),
    ("heston", {"defaults.investor.extra": 1}, 'defaults.investor.extra: unknown key'),
    ("heston", {"defaults.investor.intensity": DROP}, 'defaults.investor.intensity: required'),
    ("heston", {"defaults.investor.intensity": -0.1},
     'defaults.investor.intensity: must be >= 0.0, got -0.1'),
    ("heston", {"defaults.counterparty.intensity": _pw([0.25], [0.1, -0.2])},
     'defaults.counterparty.intensity.values[1]: must be >= 0.0, got -0.2'),
    ("heston", {"defaults.investor.threshold": DROP},
     'defaults.investor.threshold: expected an object, got NoneType'),
    ("heston", {"defaults.investor.threshold.extra": 1},
     'defaults.investor.threshold.extra: unknown key'),
    ("heston", {"defaults.investor.threshold.shape": 0},
     'defaults.investor.threshold.shape: must be > 0.0, got 0.0'),
    ("heston", {"defaults.investor.threshold.rate": DROP},
     'defaults.investor.threshold.rate: expected a number, got NoneType'),
    ("heston", {"defaults.investor.intensity": -1, "defaults.investor.threshold": DROP},
     'defaults.investor.threshold: expected an object, got NoneType'),
    ("heston", {"defaults.investor.intensity": -1, "defaults.investor.threshold.shape": 0},
     'defaults.investor.intensity: must be >= 0.0, got -1.0'),
    ("heston", {"grid": None}, 'grid: expected an object, got NoneType'),
    ("heston", {"grid.extra": 1}, 'grid.extra: unknown key'),
    ("heston", {"grid.t0": "x"}, 'grid.t0: expected a number, got str'),
    ("heston", {"grid.T": DROP}, 'grid.T: required'),
    ("heston", {"grid.T": 0.0}, 'grid.T: must exceed grid.t0 = 0.0, got 0.0'),
    ("heston", {"grid.n_steps": 0}, 'grid.n_steps: must be >= 1, got 0'),
    ("heston", {"grid.n_steps": 1.5}, 'grid.n_steps: expected an integer, got float'),
    ("heston", {"grid.nt": 1}, 'grid.nt: must be >= 2, got 1'),
    ("heston", {"grid.nt": 6}, 'grid.nt: nt - 1 = 5 must divide grid.n_steps = 32'),
    ("heston", {"grid.nx": 1}, 'grid.nx: must be >= 2, got 1'),
    ("heston", {"grid.nv": "x"}, 'grid.nv: expected an integer, got str'),
    ("heston", {"grid.x_range": "full"}, "grid.x_range: expected 'auto' or [lo, hi]"),
    ("heston", {"grid.x_range": [1.0, 1.0]}, 'grid.x_range: need lo < hi, got [1.0, 1.0]'),
    ("heston", {"grid.x_range": [0, "a"]}, 'grid.x_range[1]: expected a number, got str'),
    ("heston", {"grid.v_range": [0.0, 0.1]}, 'grid.v_range[0]: lower bound must be positive'),
    ("heston", {"grid.v_range": [0.1]}, "grid.v_range: expected 'auto' or [lo, hi]"),
    ("heston", {"grid.T": 0.0, "grid.n_steps": 0}, 'grid.T: must exceed grid.t0 = 0.0, got 0.0'),
    ("heston", {"grid.nt": 6, "grid.nx": 1}, 'grid.nt: nt - 1 = 5 must divide grid.n_steps = 32'),
    ("heston", {"mc": []}, 'mc: expected an object, got list'),
    ("heston", {"mc.extra": 1}, 'mc.extra: unknown key'),
    ("heston", {"mc.n_paths": 1}, 'mc.n_paths: must be >= 2, got 1'),
    ("heston", {"mc.master_seed": -1}, 'mc.master_seed: must be >= 0, got -1'),
    ("heston", {"mc.master_seed": 1.0}, 'mc.master_seed: expected an integer, got float'),
    ("heston", {"solver": "x"}, 'solver: expected an object, got str'),
    ("heston", {"solver.time_slabs": 2}, 'solver.time_slabs: unknown key'),
    ("heston", {"solver.max_iter": 0}, 'solver.max_iter: must be >= 1, got 0'),
    ("heston", {"solver.tol": 0.0}, 'solver.tol: must be > 0.0, got 0.0'),
    ("heston", {"solver.gamma": "x"}, 'solver.gamma: expected an object, got str'),
    ("heston", {"solver.tol": 0, "solver.max_iter": 0}, 'solver.tol: must be > 0.0, got 0.0'),
    # the power family's ranges, checked where the field is read
    ("custom", {"model.params.beta": [0.3]}, 'model.params.beta[0]: must be >= 0.5, got 0.3'),
    ("custom", {"model.params.rho": -1.0}, 'model.params.rho: must lie strictly inside (-1, 1)'),
    ("custom", {"model.params.l": [-0.1, _pw([0.5], [-0.2, 0.1])]},
     'model.params.l[1].values[1]: must be <= 0.0, got 0.1'),
    ("black_scholes", {"model.sigma": 1e-200},
     'model.sigma: sigma^2 must be positive and finite, got 0.0'),
    ("black_scholes", {"model.sigma": 1e200},
     'model.sigma: sigma^2 must be positive and finite, got inf'),
]


@pytest.mark.parametrize("base, edits, expected", GOLDEN_CASES)
def test_config_golden(base, edits, expected):
    cfg = _edited(base, edits)
    try:
        norm = normalise_config(cfg)
        build_run(norm)
    except ConfigError as exc:
        assert str(exc) == expected
        return
    assert expected.startswith("{"), f"accepted, but expected {expected!r}"
    assert emit_config(norm) == json.dumps(json.loads(expected), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payoff, band", [
    ({"kind": "capped_call", "strike": 100.0, "cap": 30.0}, (0.0, 30.0)),
    ({"kind": "constant", "value": 2.5}, (0.0, 2.5)),
    ({"kind": "constant", "value": 0.0}, (0.0, 0.0)),
    ({"kind": "constant", "value": -0.5}, None),
])
def test_payoff_band_comes_with_the_payoff_kind(payoff, band):
    cfg = full_xva_config()
    cfg["market"]["payoff"] = payoff
    assert build_run(normalise_config(cfg)).payoff_band == band


def test_build_run_assembles_models_and_spec():
    setup = build_run(normalise_config(full_xva_config()))
    assert setup.s0 == 100.0 and setup.v0 == 0.04
    # pricing measure drifts at the short rate, physical at drift_b
    assert float(setup.model_q.drift_b(0.1)) == pytest.approx(0.03)
    assert float(setup.model_p.drift_b(0.1)) == pytest.approx(0.02)
    assert setup.spec.defaults is not None
    # piecewise intensity steps at t = 0.25
    lam = as_time_fn(setup.spec.defaults.counterparty.intensity)
    assert float(lam(0.1)) == 0.15 and float(lam(0.4)) == 0.2


def test_resolve_axes_auto_hull_is_positive_and_seeded():
    setup = build_run(normalise_config(full_xva_config()))
    t_nodes, x_nodes, v_nodes = resolve_axes(setup)
    assert len(t_nodes) == 5 and len(x_nodes) == 9 and len(v_nodes) == 5
    assert v_nodes[0] > 0.0
    assert x_nodes[0] < math.log(100.0) < x_nodes[-1]
    again = resolve_axes(setup)
    assert np.array_equal(x_nodes, again[1]) and np.array_equal(v_nodes, again[2])


# -- CLI exit codes -----------------------------------------------------------------


def test_cli_invalid_fraction_order_exits_2(tmp_path, capsys):
    cfg = full_xva_config()
    cfg["market"]["collateral_frac"] = 0.9
    cfg["market"]["closeout_frac"] = 0.4
    code = main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "market.collateral_frac" in capsys.readouterr().err


def test_cli_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"model": ')
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_invalid_path_budget_exits_3(tmp_path, capsys):
    cfg = {
        "model": {"preset": "garch", "s0": 100.0, "v0": 1.0, "k": 0.0, "l0": 0.0, "lam": 2000.0},
        "market": {"rate": 0.0, "payoff": {"kind": "constant", "value": 1.0}},
        "grid": {"t0": 0.0, "T": 5.0, "n_steps": 256, "nt": 2, "nx": 5, "nv": 3},
        "mc": {"n_paths": 500, "master_seed": 1},
    }
    code = main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "budget" in capsys.readouterr().err


def test_cli_defaults_requires_clocks(tmp_path, capsys):
    code = main(["defaults", "--config", write_cfg(tmp_path, bs_call_config()),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "defaults" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["defaults", "solve"])
def test_cli_sub_unit_threshold_shape_exits_1(tmp_path, capsys, command):
    # A gamma shape below 1 passes validation, but the hazard factor diverges
    # at t0; the run must end with a message, not a traceback.
    cfg = full_xva_config()
    cfg["defaults"]["counterparty"]["threshold"]["shape"] = 0.5
    code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "run failed" in err and "shape=0.5" in err


def deep_tail_book():
    """Counterparty intensity 50 against a Gamma(6, 100) threshold: rate times
    the cumulative intensity passes 700 early in the book's half year, so
    most curve nodes sit where gammaincc underflows."""
    cfg = json.loads((REPO / "perfbench" / "book.json").read_text())
    cfg["defaults"]["counterparty"]["intensity"] = 50.0
    cfg["defaults"]["counterparty"]["threshold"] = {"shape": 6.0, "rate": 100.0}
    return cfg


def test_cli_deep_gamma_tail_runs(tmp_path):
    out = tmp_path / "o"
    code = main(["defaults", "--mc-check", "--config", write_cfg(tmp_path, deep_tail_book()),
                 "--out", str(out)])
    assert code == 0
    for name in ("survival.csv", "density.csv"):
        table = np.loadtxt(out / name, delimiter=",", skiprows=1)
        assert table.shape[0] == 33 and np.all(np.isfinite(table))


def test_verify_rejects_an_over_budget_config_as_solve_does(tmp_path, capsys):
    # The deep-tail book's hazard puts a Lipschitz budget above 100 on its
    # first time interval; verify refuses it before any check runs.
    cfg_path = write_cfg(tmp_path, deep_tail_book())
    errs = []
    for command in ("solve", "verify"):
        out = tmp_path / command
        assert main([command, "--config", cfg_path, "--out", str(out), "--threads", "2"]) == 2
        errs.append(capsys.readouterr().err)
        assert not out.exists()
    assert errs[0] == errs[1]
    assert errs[0] == (
        "config error: interval [0.0, 0.125] alone carries Lipschitz budget 119.105 > 0.5; "
        "refine the time nodes\n"
    )


def test_verify_rejects_an_over_budget_compare_config_up_front(tmp_path, capsys):
    # The same refusal when the deep-tail book is the --compare config: exit
    # 2 with solve's message before any check, not a FAILed comparison.
    out = tmp_path / "verify"
    code = main(["verify", "--config", str(REPO / "perfbench" / "book.json"),
                 "--compare", write_cfg(tmp_path, deep_tail_book()), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert "[PASS]" not in captured.out and "[FAIL]" not in captured.out
    assert captured.err == (
        "config error: interval [0.0, 0.125] alone carries Lipschitz budget 119.105 > 0.5; "
        "refine the time nodes\n"
    )


@st.composite
def piecewise_constant(draw, lo, hi):
    """A piecewise_constant time function with breakpoints in and around [0, 0.5]."""
    times = sorted(draw(st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=4, unique=True)))
    values = draw(st.lists(st.floats(lo, hi), min_size=len(times) + 1, max_size=len(times) + 1))
    return {"kind": "piecewise_constant", "times": times, "values": values}


@settings(max_examples=20, deadline=None)
@given(
    investor=piecewise_constant(0.0, 50.0),
    counterparty=piecewise_constant(0.0, 50.0),
    rate=piecewise_constant(-1.0, 1.0),
    # Once the threshold rate times the cumulative intensity passes about 700,
    # the counterparty's gamma tail underflows and takes the deep-tail branch.
    shape=st.floats(1.5, 6.0),
    threshold_rate=st.floats(0.1, 100.0),
)
def test_fuzzed_time_functions_run_or_exit_with_a_code(investor, counterparty, rate, shape,
                                                        threshold_rate):
    cfg = full_xva_config()
    cfg["defaults"]["investor"]["intensity"] = investor
    cfg["defaults"]["counterparty"]["intensity"] = counterparty
    cfg["defaults"]["counterparty"]["threshold"] = {"shape": shape, "rate": threshold_rate}
    cfg["market"]["rate"] = rate
    build_run(normalise_config(cfg))
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["defaults", "--config", write_cfg(Path(tmp), cfg),
                     "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2)


# Draws come from the schema's own tables: every kind a table names and every
# field it lists, each absent, of its type or junk, and values out of range.
NUMBER = st.one_of(
    st.floats(0.05, 0.95),
    st.floats(0.05, 0.95),
    st.floats(-1.0, 2.0),
    st.sampled_from([0.0, -0.0, 1e-9, 1.0, 100.0, 1e308, -1e308, math.inf, math.nan]),
)
INTEGER = st.one_of(st.sampled_from([2, 3, 5, 9, 17, 33, 64]), st.integers(-1, 40))
JUNK = st.sampled_from([None, True, "x", "auto", [], {}, {"kind": "zero"}, [1.0, "a"]])


def _typed(default, check):
    """A value of the type ``check`` takes, in range or not."""
    base, keywords = getattr(check, "func", check), getattr(check, "keywords", {})
    if base is config._kinded:
        return kinded(keywords["table"])
    if base is config._section:
        return fuzzed_section(keywords["fields"])
    if base is config._optional:
        return st.one_of(st.none(), _typed(default, keywords["check"]))
    if base is config._array_of:
        return st.lists(_typed(None, keywords["check"]), max_size=3)
    if base is config._timefn_cfg:
        return st.one_of(NUMBER, piecewise_constant(-1.0, 2.0))
    if base is config._int:
        return INTEGER
    if base is config._bool:
        return st.booleans()
    if base is config._norm_range:
        return st.one_of(st.just("auto"), st.lists(NUMBER, min_size=2, max_size=2))
    return NUMBER


# per field: junk, absent (the default, or a missing required field), or of its type
OPTIONAL_PICK = st.sampled_from(["typed"] * 6 + ["absent"] * 9 + ["junk"])
REQUIRED_PICK = st.sampled_from(["typed"] * 30 + ["absent", "junk"])


@st.composite
def fuzzed_section(draw, fields):
    out = {}
    for key, default, check in (f for f in fields if not callable(f)):
        pick = draw(REQUIRED_PICK if default in (None, config._REQUIRED) else OPTIONAL_PICK)
        if pick != "absent":
            out[key] = draw(JUNK if pick == "junk" else _typed(default, check))
    if draw(st.sampled_from(range(20))) == 19:
        out["unknown"] = 1
    return out


@st.composite
def kinded(draw, table, tag="kind", common=()):
    kind = draw(st.sampled_from([*table] * 5 + [[]]))  # a list kind must not crash the lookup
    fields = table[kind].fields if kind in list(table) else ()
    if callable(fields):  # a piecewise_constant dividend is a time function
        return draw(piecewise_constant(-1.0, 1.0))
    return {tag: kind, **draw(fuzzed_section((*common, *fields)))}


@st.composite
def fuzzed_config(draw):
    """Each section fuzzed, or a valid one from a golden base so later sections get checked."""
    times = ((key, config._REQUIRED if key == "rate" else 0.0, None) for key in config._TIME_KEYS)
    fuzzed = {
        "model": kinded(config._PRESETS, "preset", config._MODEL_COMMON),
        "market": fuzzed_section((*times, *config._MARKET_TERMS)),
        "grid": fuzzed_section(config._GRID),
        "mc": fuzzed_section(config._MC),
        "solver": fuzzed_section(config._SOLVER),
    }
    return {
        key: draw(st.one_of(drawn, st.sampled_from([b.get(key) for b in GOLDEN_BASES.values()])))
        for key, drawn in fuzzed.items()
    }


@st.composite
def mostly_golden_config(draw):
    """A fuzzed_config draw with each section swapped for a golden base's seven
    times in eight, so that most draws build."""
    cfg = draw(fuzzed_config())
    for key in cfg:
        if draw(st.sampled_from([True] * 7 + [False])):
            cfg[key] = draw(st.sampled_from([b.get(key) for b in GOLDEN_BASES.values()]))
    return cfg


@settings(max_examples=300, deadline=None)
@given(cfg=fuzzed_config())
def test_fuzzed_configs_reach_a_fixed_point_and_build_or_raise_config_error(cfg):
    try:
        norm = normalise_config(cfg)
    except ConfigError:
        return
    again = normalise_config(json.loads(emit_config(norm)))
    assert emit_config(again) == emit_config(norm)
    try:
        build_run(again)
    except ConfigError:
        pass


@settings(max_examples=100, deadline=None)
@given(cfg=mostly_golden_config())
def test_fuzzed_configs_that_build_solve_at_tiny_sizes_or_exit_with_a_code(cfg):
    try:
        norm = normalise_config(cfg)
        build_run(norm)
    except ConfigError:
        return
    grid = norm["grid"]
    grid.update(n_steps=4, nt=3, nx=min(grid["nx"], 5), nv=min(grid["nv"], 4))
    norm["mc"]["n_paths"] = min(norm["mc"]["n_paths"], 64)
    norm["solver"]["max_iter"] = min(norm["solver"]["max_iter"], 3)
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["solve", "--config", write_cfg(Path(tmp), norm), "--threads", "1",
                     "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2, 3)


# -- simulate -----------------------------------------------------------------------


def test_simulate_reruns_reproduce_digests(tmp_path):
    cfg_path = write_cfg(tmp_path, full_xva_config())
    for out in ("a", "b"):
        assert main(["simulate", "--config", cfg_path, "--threads", "2",
                     "--out", str(tmp_path / out)]) == 0
    assert main(["simulate", "--config", cfg_path, "--threads", "5",
                 "--out", str(tmp_path / "c")]) == 0
    da = manifest_outputs(tmp_path / "a")
    assert da == manifest_outputs(tmp_path / "b")
    # thread count is a performance knob, not part of the random surface
    assert da == manifest_outputs(tmp_path / "c")
    assert set(da) == {"terminal.csv", "summary.csv", "positivity.json",
                       "config.normalised.json"}


def test_simulate_seed_override_changes_outputs(tmp_path):
    cfg_path = write_cfg(tmp_path, full_xva_config())
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", cfg_path, "--seed", "123",
                 "--out", str(tmp_path / "b")]) == 0
    a, b = manifest_outputs(tmp_path / "a"), manifest_outputs(tmp_path / "b")
    assert a["terminal.csv"] != b["terminal.csv"]
    with open(tmp_path / "b" / "manifest.json") as fh:
        assert json.load(fh)["master_seed"] == 123


def test_simulate_positivity_report_structure(tmp_path):
    cfg_path = write_cfg(tmp_path, full_xva_config())
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    with open(out / "positivity.json") as fh:
        rep = json.load(fh)
    assert rep["condition"]["holds"] is True  # lam^2/2 = 0.045 <= inf k = 0.05
    assert rep["paths"]["min_v"] > 0.0 or rep["paths"]["frac_nonpositive"] < 0.05
    assert rep["paths"]["n_steps"] == 32


# -- defaults -----------------------------------------------------------------------


def test_defaults_curves_and_mc_check(tmp_path):
    cfg_path = write_cfg(tmp_path, full_xva_config())
    out = tmp_path / "o"
    assert main(["defaults", "--config", cfg_path, "--out", str(out), "--mc-check"]) == 0
    with open(out / "survival.csv") as fh:
        header = fh.readline().strip().split(",")
        first = fh.readline().strip().split(",")
    assert header == ["t", "investor", "counterparty", "joint", "empirical_joint", "abs_gap"]
    assert [float(v) for v in first[:4]] == [0.0, 1.0, 1.0, 1.0]
    with open(out / "defaults_summary.json") as fh:
        summary = json.load(fh)
    assert max(abs(g) for g in summary["identity_gaps_dense"].values()) <= 1e-6
    assert summary["empirical_sup_gap"] <= 0.01
    assert 0.9 < summary["atoms"]["joint"] < 1.0


def _fmt(x):
    return f"{float(x):.17g}"


@pytest.mark.parametrize("mc_check", [False, True])
def test_defaults_tables_match_the_per_row_fstrings(tmp_path, mc_check):
    # the rows the command wrote with one f-string per row before the table writer
    cfg = full_xva_config()
    out = tmp_path / "o"
    assert main(["defaults", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
                + ["--mc-check"] * mc_check) == 0
    setup = build_run(normalise_config(cfg))
    grid = TimeGrid(setup.t0, setup.t_end, setup.n_steps)
    curve = survival_curve(setup.spec.defaults, grid)
    emp = None
    if mc_check:
        times = sample_default_times(setup.spec.defaults, grid, 100000, setup.master_seed)
        emp = empirical_survival(times.joint, grid.nodes)
    header = "t,investor,counterparty,joint" + (",empirical_joint,abs_gap" if mc_check else "")
    rows = [header]
    for k, t in enumerate(grid.nodes):
        row = f"{_fmt(t)},{_fmt(curve.investor[k])},{_fmt(curve.counterparty[k])},{_fmt(curve.joint[k])}"
        if emp is not None:
            row += f",{_fmt(emp[k])},{_fmt(abs(emp[k] - curve.joint[k]))}"
        rows.append(row)
    assert (out / "survival.csv").read_text() == "".join(r + "\n" for r in rows)
    dens = [default_density(setup.spec.defaults, grid, p).values for p in ("investor", "counterparty", None)]
    rows = ["t,investor,counterparty,joint"] + [
        ",".join(_fmt(c) for c in (t, dens[0][k], dens[1][k], dens[2][k])) for k, t in enumerate(grid.nodes)
    ]
    assert (out / "density.csv").read_text() == "".join(r + "\n" for r in rows)


# -- solve / price ------------------------------------------------------------------


def test_solve_and_price_outputs(tmp_path):
    cfg_path = write_cfg(tmp_path, bs_call_config())
    out = tmp_path / "o"
    assert main(["price", "--config", cfg_path, "--out", str(out), "--threads", "2"]) == 0
    with open(out / "price.json") as fh:
        price = json.load(fh)
    assert price["stderr"] > 0.0
    assert abs(price["value"] - price["grid_value"]) <= 6.0 * price["stderr"] + 0.5
    with open(out / "value_grid.csv") as fh:
        assert fh.readline().strip() == "t,x,v,u"
        t, x, v, u = fh.readline().strip().split(",")
    # deep out-of-the-money corner: zero up to MC noise, never above the cap
    assert -0.5 <= float(u) <= 1000.0
    with open(out / "report.json") as fh:
        rep = json.load(fh)
    assert rep["converged"] is True
    assert rep["coverage_fraction"] <= 0.5


def test_report_json_is_every_picard_report_field_but_u_plus_the_grid(tmp_path):
    cfg = bs_call_config()
    out = tmp_path / "o"
    assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    with open(out / "report.json") as fh:
        rep = json.load(fh)
    assert set(rep) == {f.name for f in dataclasses.fields(PicardReport)} - {"u"} | {"grid"}
    t_nodes, x_nodes, v_nodes = resolve_axes(build_run(normalise_config(cfg)))
    assert rep["grid"] == {
        "t": t_nodes.tolist(), "x_range": [x_nodes[0], x_nodes[-1]],
        "v_range": [v_nodes[0], v_nodes[-1]], "nx": len(x_nodes), "nv": len(v_nodes),
    }


def test_solve_rerun_reproduces_value_digest(tmp_path):
    cfg_path = write_cfg(tmp_path, bs_call_config())
    for out in ("a", "b"):
        assert main(["solve", "--config", cfg_path, "--threads", "2",
                     "--out", str(tmp_path / out)]) == 0
    assert (manifest_outputs(tmp_path / "a")["value_grid.csv"]
            == manifest_outputs(tmp_path / "b")["value_grid.csv"])


REPO = Path(__file__).resolve().parents[1]


def tiny_book():
    cfg = json.loads((REPO / "perfbench" / "book.json").read_text())
    cfg["grid"].update(n_steps=8, nt=3, nx=5, nv=3)
    cfg["mc"]["n_paths"] = 400
    return cfg


# -- fresh-seed check ---------------------------------------------------------------


@pytest.mark.parametrize("command", ["solve", "price"])
def test_a_failed_fresh_seed_check_exits_1(tmp_path, monkeypatch, capsys, command):
    reps = []
    solve = cli.picard_solve

    def failing_fresh_check(*args, **kwargs):
        rep = solve(*args, **kwargs)
        rep.fresh_ok = False
        reps.append(rep)
        return rep

    monkeypatch.setattr(cli, "picard_solve", failing_fresh_check)
    code = main([command, "--config", write_cfg(tmp_path, tiny_book()), "--out",
                 str(tmp_path / "o"), "--threads", "1", "--fresh-check"])
    assert reps[0].converged  # so the exit code is the fresh check's
    assert code == 1
    assert "fresh-seed validation gap" in capsys.readouterr().err


# -- verify -------------------------------------------------------------------------


def benchmark_verify_checks():
    """VERIFY_CHECKS of perfbench/run.py, which fails a verify run whose check
    names differ; the file is only read here, never imported."""
    tree = ast.parse((REPO / "perfbench" / "run.py").read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(n.value) for n in tree.body
        if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "VERIFY_CHECKS"
    )


def verify_results(out):
    return json.loads((out / "verify.json").read_text())


def test_verify_runs_the_benchmarks_checks_in_order_then_the_comparison(tmp_path):
    richer = tiny_book()
    richer["market"]["dividend"] = {"kind": "constant", "value": 0.01}
    out = tmp_path / "o"
    main(["verify", "--config", write_cfg(tmp_path, tiny_book()),
          "--compare", write_cfg(tmp_path, richer, "hi.json"), "--out", str(out), "--threads", "1"])
    names = [r["name"] for r in verify_results(out)]
    assert names == [*benchmark_verify_checks(), "comparison_domination"]


def test_verify_resolves_the_configured_axes_once_a_run(tmp_path, monkeypatch):
    # the martingale and comparison checks both read the configured axes; the
    # pilot hull behind them is simulated once
    calls = []
    real = verify.resolve_axes

    def counted(setup):
        calls.append(setup)
        return real(setup)

    monkeypatch.setattr(verify, "resolve_axes", counted)
    richer = tiny_book()
    richer["market"]["dividend"] = {"kind": "constant", "value": 0.01}
    out = tmp_path / "o"
    main(["verify", "--config", write_cfg(tmp_path, tiny_book()),
          "--compare", write_cfg(tmp_path, richer, "hi.json"), "--out", str(out), "--threads", "1"])
    results = {r["name"]: r for r in verify_results(out)}
    # both checks ran on the axes to their verdicts
    assert results["martingale_residual"]["detail"].startswith("max |z| ")
    assert results["comparison_domination"]["detail"].startswith("min value gap ")
    assert len(calls) == 1


def test_verify_turns_a_crashed_check_into_a_fail(tmp_path, monkeypatch, capsys):
    # variance_positivity loses state coverage, and the martingale check
    # crashes before its solve, so the bound check has no field to read
    def lost_coverage(*args, **kwargs):
        raise CoverageError("no nodes near v = 0")

    def no_axes(setup):
        raise RuntimeError("axes unavailable")

    monkeypatch.setattr(verify, "check_positivity", lost_coverage)
    monkeypatch.setattr(verify, "resolve_axes", no_axes)
    out = tmp_path / "o"
    code = main(["verify", "--config", write_cfg(tmp_path, tiny_book()), "--out", str(out),
                 "--threads", "1"])
    assert code == 1
    results = verify_results(out)
    assert [r["name"] for r in results] == list(benchmark_verify_checks())
    failed = {r["name"]: r["detail"] for r in results if not r["ok"]}
    assert failed == {
        "variance_positivity": "state coverage failed: no nodes near v = 0",
        "martingale_residual": "RuntimeError: axes unavailable",
        "value_bounds": "no solved field available (martingale check crashed)",
    }
    assert "[FAIL] value_bounds" in capsys.readouterr().out


def test_verify_bounds_the_martingale_solve_when_its_residual_crashes(tmp_path, monkeypatch):
    def crashed(*args, **kwargs):
        raise ValueError("residual unavailable")

    monkeypatch.setattr(verify, "martingale_residual", crashed)
    out = tmp_path / "o"
    main(["verify", "--config", write_cfg(tmp_path, tiny_book()), "--out", str(out),
          "--threads", "1"])
    results = {r["name"]: r for r in verify_results(out)}
    assert results["martingale_residual"]["detail"] == "ValueError: residual unavailable"
    assert results["value_bounds"]["ok"]
    assert results["value_bounds"]["detail"].startswith("u range [")


# -- start-up -----------------------------------------------------------------------


def fresh_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("command", [["simulate"], ["defaults", "--mc-check"], ["solve"],
                                     ["price"], ["verify"]], ids=lambda c: c[0])
def test_manifest_lists_every_file_written(tmp_path, command):
    out = tmp_path / "o"
    code = main([*command, "--config", write_cfg(tmp_path, tiny_book()), "--out", str(out),
                 "--threads", "2"])
    assert code in (0, 1)  # at 400 paths verify's martingale check FAILs; the run still returns
    files = set(os.listdir(out)) - {"manifest.json"}
    assert "config.normalised.json" in files
    assert files == set(manifest_outputs(out))


def test_defaults_identity_refusal_writes_no_curves_and_no_manifest(tmp_path, capsys):
    # a hazard of 300 over ten years is a spike at t0 that the dense
    # trapezoid cannot resolve: its worst identity gap is 1.87e-3
    cfg = json.loads((REPO / "perfbench" / "book.json").read_text())
    cfg["defaults"]["investor"]["intensity"] = 300.0
    cfg["grid"]["T"] = 10.0
    out = tmp_path / "o"
    assert main(["defaults", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    assert "density identity gap 1.874e-03 exceeds 1e-6" in capsys.readouterr().err
    for name in ("manifest.json", "survival.csv", "density.csv"):
        assert not (out / name).exists()


@pytest.mark.parametrize("module", ["xvamild.cli", "xvamild.mildsolver"])
def test_import_leaves_quadrature_unloaded(module):
    assert fresh_python(f"import sys, {module}; print('scipy.integrate' in sys.modules)") == "False"


@pytest.mark.parametrize("command", ["price", "verify"])
def test_price_of_a_constant_rate_leaves_quadrature_unloaded(tmp_path, command):
    cfg_path = write_cfg(tmp_path, tiny_book())
    out = tmp_path / "o"
    code = (
        "import sys; from xvamild.cli import main; "
        f"rc = main([{command!r}, '--config', {cfg_path!r}, '--out', {str(out)!r}, "
        "'--threads', '1']); print(rc, 'scipy.integrate' in sys.modules)"
    )
    rc, loaded = fresh_python(code).split()
    # verify exits 1 when a check FAILs on the tiny book; either way it ran
    assert rc == "0" or (command == "verify" and rc == "1")
    assert loaded == "False"
    if command == "price":
        price = json.loads((out / "price.json").read_text())
        assert price["discount_to_horizon"] == math.exp(-0.03 * 0.5)


def test_price_of_a_piecewise_rate_discounts_by_quadrature(tmp_path):
    cfg = tiny_book()
    cfg["market"]["rate"] = {"kind": "piecewise_constant", "times": [0.25], "values": [0.03, 0.04]}
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["price", "--config", cfg_path, "--out", str(out), "--threads", "1"]) == 0
    price = json.loads((out / "price.json").read_text())
    rate = build_run(normalise_config(cfg)).spec.rate
    val, _ = integrate.quad(rate, 0.0, 0.5, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert price["discount_to_horizon"] == math.exp(-val)
    assert price["discount_to_horizon"] == pytest.approx(math.exp(-0.0175), rel=1e-12)


def test_verify_passes_on_sound_config(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, full_xva_config())
    out = tmp_path / "o"
    code = main(["verify", "--config", cfg_path, "--out", str(out), "--threads", "2"])
    text = capsys.readouterr().out
    assert code == 0, text
    with open(out / "verify.json") as fh:
        results = json.load(fh)
    assert all(r["ok"] for r in results)
    assert {r["name"] for r in results} >= {
        "gamma_tail_quadrature", "default_clock_identity", "variance_positivity",
        "discount_bond", "affine_oracle", "martingale_residual", "value_bounds",
    }


def test_verify_flags_positivity_violation(tmp_path, capsys):
    cfg = full_xva_config()
    cfg["model"].update(k=0.01, lam=0.8)  # lam^2/2 = 0.32 > inf k
    code = main(["verify", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "o"), "--threads", "2"])
    assert code == 1
    assert "[FAIL] variance_positivity" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [[], ["--seed", "5"]], ids=["config-seed", "seed-override"])
def test_verify_comparison_between_configs(tmp_path, capsys, seed):
    # --seed overrides the master seed of both configs, so they still differ
    # only in market and defaults
    base = full_xva_config()
    richer = copy.deepcopy(base)
    richer["market"]["dividend"] = {"kind": "constant", "value": 0.01}
    code = main([
        "verify", "--config", write_cfg(tmp_path, base, "lo.json"),
        "--compare", write_cfg(tmp_path, richer, "hi.json"),
        "--out", str(tmp_path / "o"), "--threads", "2", *seed,
    ])
    text = capsys.readouterr().out
    assert code == 0, text
    assert "[PASS] comparison_domination" in text


# -- threads resolution --------------------------------------------------------------


def custom_book(gamma):
    """The README book with a two-term custom variance factor."""
    cfg = json.loads((REPO / "perfbench" / "book.json").read_text())
    m = cfg["model"]
    cfg["model"] = {
        "preset": "custom", "s0": m["s0"], "v0": m["v0"], "drift_b": m["drift_b"],
        "params": {"k": m["k"], "l0": m["l0"], "l": [-0.3, -0.1], "alpha": [1, 1.5],
                   "lam": [0.3, 0.1], "beta": [0.5, 0.75], "theta1": 1, "rho": -0.5},
    }
    cfg["solver"]["gamma"] = gamma
    return cfg


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_affine_fixed_point_matches_the_oracle_on_nodes_of_a_custom_book(gamma):
    # check_affine_oracle's solve and slack, probed on the solve's own nodes, so
    # the bilinear interpolant adds no bias between x or v nodes
    setup = build_run(normalise_config(custom_book(gamma)))
    rate_fn = setup.spec.fn("rate")
    aff = verify._flat_rate_spec(setup, dividend=constant_dividend(0.01), payoff=setup.spec.payoff)
    rep = verify._oracle_solve(setup, aff, 0.6, 9, 6000, threads=2)
    for i, (ix, iv) in enumerate(((4, 1), (2, 0), (6, 2))):
        point = (setup.t0, rep.u.x_nodes[ix], rep.u.v_nodes[iv])
        ref, se = linear_oracle(
            setup.model_q, aff.payoff, aff.dividend, lambda t: -rate_fn(t),
            point, setup.t_end, n_steps=64, n_paths=20000, seed=setup.master_seed + 900 + i,
        )
        slack = max(1e-3, 3.0 * (se + rep.stderr_floor))
        assert abs(rep.u.values[0, ix, iv] - ref) <= slack, (point, ref, slack)


def test_threads_env_fallback(monkeypatch, tmp_path):
    from xvamild.cli import _resolve_threads

    class Args:
        threads = None

    monkeypatch.setenv("XVA_MILD_THREADS", "3")
    assert _resolve_threads(Args()) == 3
    Args.threads = 2  # explicit flag wins over the environment
    assert _resolve_threads(Args()) == 2
    monkeypatch.setenv("XVA_MILD_THREADS", "zebra")
    Args.threads = None
    with pytest.raises(ConfigError, match="XVA_MILD_THREADS"):
        _resolve_threads(Args())


def test_threads_default_is_the_cores_available_to_the_process(monkeypatch):
    from xvamild.cli import _resolve_threads

    class Args:
        threads = None

    monkeypatch.delenv("XVA_MILD_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    assert _resolve_threads(Args()) == 3  # a taskset or cpuset of 3 cores on a 64-core machine
    monkeypatch.delattr(os, "sched_getaffinity")  # platforms without affinity use the core count
    assert _resolve_threads(Args()) == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _resolve_threads(Args()) == 1
