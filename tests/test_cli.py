"""Config loading, CLI subcommands, exit codes, and run manifests."""

import copy
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
from xvamild.simulate import TimeGrid


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


def test_build_run_assembles_models_and_spec():
    setup = build_run(normalise_config(full_xva_config()))
    assert setup.s0 == 100.0 and setup.v0 == 0.04
    # pricing measure drifts at the short rate, physical at drift_b
    assert float(setup.model_q.drift_b(0.1)) == pytest.approx(0.03)
    assert float(setup.model_p.drift_b(0.1)) == pytest.approx(0.02)
    assert setup.spec.defaults is not None
    # piecewise intensity steps at t = 0.25
    lam = setup.spec.defaults.counterparty.intensity_fn()
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
)
def test_fuzzed_time_functions_run_or_exit_with_a_code(investor, counterparty, rate):
    cfg = full_xva_config()
    cfg["defaults"]["investor"]["intensity"] = investor
    cfg["defaults"]["counterparty"]["intensity"] = counterparty
    cfg["market"]["rate"] = rate
    build_run(normalise_config(cfg))
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["defaults", "--config", write_cfg(Path(tmp), cfg),
                     "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2)


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


def test_simulate_manifest_covers_every_file(tmp_path):
    cfg_path = write_cfg(tmp_path, full_xva_config())
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    files = {f for f in os.listdir(out) if f != "manifest.json"}
    assert files == set(manifest_outputs(out))


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
    files = {f for f in os.listdir(out) if f != "manifest.json"}
    assert files == set(manifest_outputs(out))


def test_solve_rerun_reproduces_value_digest(tmp_path):
    cfg_path = write_cfg(tmp_path, bs_call_config())
    for out in ("a", "b"):
        assert main(["solve", "--config", cfg_path, "--threads", "2",
                     "--out", str(tmp_path / out)]) == 0
    assert (manifest_outputs(tmp_path / "a")["value_grid.csv"]
            == manifest_outputs(tmp_path / "b")["value_grid.csv"])


# -- verify -------------------------------------------------------------------------


# -- start-up -----------------------------------------------------------------------


REPO = Path(__file__).resolve().parents[1]


def tiny_book():
    cfg = json.loads((REPO / "perfbench" / "book.json").read_text())
    cfg["grid"].update(n_steps=8, nt=3, nx=5, nv=3)
    cfg["mc"]["n_paths"] = 400
    return cfg


def fresh_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("module", ["xvamild.cli", "xvamild.mildsolver"])
def test_import_leaves_quadrature_unloaded(module):
    assert fresh_python(f"import sys, {module}; print('scipy.integrate' in sys.modules)") == "False"


def test_price_of_a_constant_rate_leaves_quadrature_unloaded(tmp_path):
    cfg_path = write_cfg(tmp_path, tiny_book())
    out = tmp_path / "o"
    code = (
        "import sys; from xvamild.cli import main; "
        f"rc = main(['price', '--config', {cfg_path!r}, '--out', {str(out)!r}, "
        "'--threads', '1']); print(rc, 'scipy.integrate' in sys.modules)"
    )
    assert fresh_python(code) == "0 False"
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


def test_verify_comparison_between_configs(tmp_path, capsys):
    base = full_xva_config()
    richer = copy.deepcopy(base)
    richer["market"]["dividend"] = {"kind": "constant", "value": 0.01}
    code = main([
        "verify", "--config", write_cfg(tmp_path, base, "lo.json"),
        "--compare", write_cfg(tmp_path, richer, "hi.json"),
        "--out", str(tmp_path / "o"), "--threads", "2",
    ])
    text = capsys.readouterr().out
    assert code == 0, text
    assert "[PASS] comparison_domination" in text


# -- threads resolution --------------------------------------------------------------


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
