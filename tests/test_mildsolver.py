import io
import math
from dataclasses import replace

import numpy as np
import pytest

from xvamild.mildsolver import (
    GridFunction,
    McConfig,
    apply_mild_map,
    auto_hull,
    comparison_check,
    linear_oracle,
    lipschitz_budget,
    load_grid,
    pde_residual,
    picard_solve,
    refine_point,
    save_grid,
    sup_diff,
    write_grid_csv,
)
from xvamild.simulate import TimeGrid, simulate_paths
from xvamild.valuation import (
    MarketSpec,
    capped_call,
    constant_dividend,
    constant_payoff,
)
from xvamild.volmodel import InvariantError, black_scholes_params, build_power_model

X0 = math.log(100.0)


def riskfree_spec(r, payoff):
    return MarketSpec(
        rate=r,
        collateral_rate_pos=r,
        collateral_rate_neg=r,
        funding_rate_pos=r,
        funding_rate_neg=r,
        hedge_rate_pos=r,
        hedge_rate_neg=r,
        payoff=payoff,
    )


def slope_spec(m, payoff, dividend=None):
    # fully collateralised with equal remuneration c = -m gives driver m*y
    kw = dict(
        collateral_rate_pos=-m,
        collateral_rate_neg=-m,
        collateral_frac=1.0,
        closeout_frac=1.0,
        payoff=payoff,
    )
    if dividend is not None:
        kw["dividend"] = dividend
    return MarketSpec(**kw)


# -- grid container -------------------------------------------------------------


def affine_grid():
    t = np.array([0.0, 0.5, 1.0])
    x = np.linspace(-1.0, 1.0, 5)
    v = np.linspace(0.0, 0.4, 3)
    vals = 2.0 * t[:, None, None] + 3.0 * x[None, :, None] - v[None, None, :]
    return GridFunction(t, x, v, vals)


def test_gridfunction_reproduces_affine_fields():
    g = affine_grid()
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = rng.uniform(0.0, 1.0)
        x = rng.uniform(-1.0, 1.0)
        v = rng.uniform(0.0, 0.4)
        got = g.evaluate_at_time(t, x, v)
        assert got == pytest.approx(2.0 * t + 3.0 * x - v, abs=1e-12)


def test_gridfunction_flat_extrapolation_and_outside():
    g = affine_grid()
    inside = g.evaluate_at_time(0.5, 1.0, 0.2)
    assert g.evaluate_at_time(0.5, 7.0, 0.2) == pytest.approx(inside, abs=1e-12)
    mask = g.outside(np.array([0.0, 7.0, -3.0]), np.array([0.2, 0.2, 0.2]))
    assert mask.tolist() == [False, True, True]


def test_gridfunction_clamps_time():
    g = affine_grid()
    assert g.evaluate_at_time(-5.0, 0.0, 0.0) == g.evaluate_at_time(0.0, 0.0, 0.0)
    assert g.evaluate_at_time(5.0, 0.0, 0.0) == g.evaluate_at_time(1.0, 0.0, 0.0)


def test_grid_cache_roundtrip_deterministic(tmp_path):
    g = affine_grid()
    p1 = tmp_path / "a.zip"
    p2 = tmp_path / "b.zip"
    save_grid(g, p1)
    save_grid(g, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = load_grid(p1)
    assert np.array_equal(back.values, g.values)
    assert np.array_equal(back.t_nodes, g.t_nodes)


def test_write_grid_csv_full_precision():
    g = affine_grid()
    buf = io.StringIO()
    write_grid_csv(g, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x,v,u"
    assert len(lines) == 1 + 3 * 5 * 3
    t, x, v, u = (float(tok) for tok in lines[1].split(","))
    assert u == 2.0 * t + 3.0 * x - v


# -- map plumbing ----------------------------------------------------------------


def test_mc_config_validation():
    with pytest.raises(InvariantError, match="n_paths"):
        McConfig(n_paths=1)
    with pytest.raises(InvariantError, match="n_steps"):
        McConfig(n_steps=0)
    with pytest.raises(InvariantError, match="master_seed"):
        McConfig(master_seed=-3)


def test_time_nodes_must_hit_master_grid():
    spec = riskfree_spec(0.0, constant_payoff(1.0))
    model = build_power_model(black_scholes_params())
    with pytest.raises(InvariantError, match="master"):
        picard_solve(
            spec, model, [0.0, 0.3, 1.0], [4.0, 5.0], [0.02, 0.06],
            McConfig(n_paths=8, n_steps=7),
        )


def test_terminal_slice_is_exact_payoff():
    spec = riskfree_spec(0.05, capped_call(100.0, 30.0))
    model = build_power_model(black_scholes_params(drift_b=0.05))
    x_nodes = np.array([X0 - 0.5, X0, X0 + 0.5])
    v_nodes = np.array([0.03, 0.05])
    u0, err, cov = apply_mild_map(
        spec, model, None, [0.0, 0.5], x_nodes, v_nodes,
        McConfig(n_paths=200, n_steps=10, master_seed=3),
    )
    want = np.minimum(np.maximum(np.exp(x_nodes) - 100.0, 0.0), 30.0)
    assert np.allclose(u0.values[-1], want[:, None], atol=0.0)
    assert np.all(err[-1] == 0.0)
    assert cov == 0.0


def test_mild_map_agrees_with_direct_simulation():
    # the driver-off sweep at a node is a plain terminal expectation; an
    # independently seeded direct simulation must agree statistically
    payoff = capped_call(100.0, 30.0)
    spec = riskfree_spec(0.0, payoff)
    model = build_power_model(black_scholes_params(drift_b=0.03))
    grid = TimeGrid(0.0, 0.25, 16)
    u0, err, _ = apply_mild_map(
        spec, model, None, [0.0, 0.25], [X0 - 0.5, X0, X0 + 0.5], [0.03, 0.05],
        McConfig(n_paths=20000, n_steps=16, master_seed=11),
    )
    fk_val = u0.values[0, 1, 0]
    fk_err = err[0, 1, 0]

    paths = simulate_paths(model, (X0, 0.03), grid, 20000, 999)
    phi = payoff(np.exp(paths.valid_x()[:, -1]), paths.valid_v()[:, -1])
    mc_val = float(phi.mean())
    mc_err = float(phi.std(ddof=1) / math.sqrt(len(phi)))
    assert abs(fk_val - mc_val) <= 3.0 * math.hypot(fk_err, mc_err)


@pytest.mark.parametrize(
    "m_start, m_end, n_c", [(0, 32, 2645), (5, 32, 2645), (70, 100, 128), (31, 32, 7)]
)
def test_block_draw_matches_burn_then_draw(m_start, m_end, n_c):
    # a slice reads master step k from row k of one block per chunk; that
    # aligns with the stream only because the generator fills in order,
    # exactly as burning the earlier steps and drawing one step at a time
    seq = np.random.SeedSequence([3, 0, 1])
    block = np.random.default_rng(seq).standard_normal((m_end, n_c, 2))[m_start:]
    rng = np.random.default_rng(seq)
    burn = m_start
    while burn > 0:
        step = min(burn, 64)
        rng.standard_normal((step, n_c, 2))
        burn -= step
    for row in block:
        assert np.array_equal(row, rng.standard_normal((n_c, 2)))


def test_unit_correlation_rejected_by_every_path_engine():
    model = replace(build_power_model(black_scholes_params()), correlation=lambda t: 1.0)
    spec = riskfree_spec(0.0, constant_payoff(1.0))
    mc = McConfig(n_paths=8, n_steps=4)
    x_nodes, v_nodes = [4.0, 5.0], [0.02, 0.06]
    with pytest.raises(InvariantError, match="correlation"):
        simulate_paths(model, (X0, 0.04), TimeGrid(0.0, 1.0, 4), 8, 0)
    with pytest.raises(InvariantError, match="correlation"):
        apply_mild_map(spec, model, None, [0.0, 1.0], x_nodes, v_nodes, mc)
    u = GridFunction([0.0, 1.0], x_nodes, v_nodes, np.ones((2, 2, 2)))
    with pytest.raises(InvariantError, match="correlation"):
        refine_point(spec, model, u, (0.0, 4.5, 0.04), mc)


# -- fixed point ------------------------------------------------------------------


def test_bond_solve_matches_discount_curve():
    r = 0.05
    spec = riskfree_spec(r, constant_payoff(1.0))
    model = build_power_model(black_scholes_params(drift_b=r))
    t_nodes = np.linspace(0.0, 1.0, 5)
    rep = picard_solve(
        spec, model, t_nodes, [4.0, 4.6, 5.2], [0.02, 0.06],
        McConfig(n_paths=64, n_steps=40, master_seed=5), tol=1e-7, max_sweeps=12,
    )
    assert rep.converged
    assert rep.slab_bounds == [0.0, 1.0]
    exact = np.exp(-r * (1.0 - t_nodes))[:, None, None]
    assert np.max(np.abs(rep.u.values - exact)) <= 1e-5
    assert rep.stderr_floor <= 1e-6  # constant payoff: only float noise


def test_solver_is_deterministic():
    spec = riskfree_spec(0.03, capped_call(100.0, 30.0))
    model = build_power_model(black_scholes_params(drift_b=0.03))
    args = (spec, model, [0.0, 0.25, 0.5], np.linspace(X0 - 1.0, X0 + 1.0, 9),
            [0.03, 0.05])
    rep1 = picard_solve(*args, McConfig(n_paths=2000, n_steps=20, master_seed=7))
    rep2 = picard_solve(*args, McConfig(n_paths=2000, n_steps=20, master_seed=7))
    rep3 = picard_solve(*args, McConfig(n_paths=2000, n_steps=20, master_seed=8))
    assert np.array_equal(rep1.u.values, rep2.u.values)
    assert not np.array_equal(rep1.u.values, rep3.u.values)


def test_zero_driver_stops_after_one_sweep():
    spec = MarketSpec(payoff=capped_call(100.0, 30.0))
    model = build_power_model(black_scholes_params(drift_b=0.0))
    rep = picard_solve(
        spec, model, [0.0, 0.5], np.linspace(X0 - 1.0, X0 + 1.0, 7), [0.03, 0.05],
        McConfig(n_paths=500, n_steps=10, master_seed=2),
    )
    # common random numbers make the first corrected sweep coincide exactly
    assert rep.sweeps_per_slab == [1]
    assert rep.sup_diffs == [0.0]
    assert rep.converged


def test_slab_split_reproduces_exponential_decay():
    spec = slope_spec(-2.5, constant_payoff(1.0))
    model = build_power_model(black_scholes_params())
    rep = picard_solve(
        spec, model, np.linspace(0.0, 1.0, 21), [4.0, 4.6, 5.2], [0.02, 0.06],
        McConfig(n_paths=64, n_steps=200, master_seed=5), tol=1e-8, max_sweeps=60,
    )
    assert rep.lipschitz_budget == pytest.approx(2.5, rel=1e-12)
    assert len(rep.slab_bounds) == 6  # five slabs of budget 1/2
    assert rep.converged
    got = rep.u.values[0, 0, 0]
    assert got == pytest.approx(math.exp(-2.5), abs=5e-4)


def test_single_interval_budget_overflow_rejected():
    spec = slope_spec(-2.5, constant_payoff(1.0))
    model = build_power_model(black_scholes_params())
    with pytest.raises(InvariantError, match="budget"):
        picard_solve(
            spec, model, [0.0, 0.5, 1.0], [4.0, 5.2], [0.02, 0.06],
            McConfig(n_paths=8, n_steps=10),
        )


def test_lipschitz_budget_integrates_slopes():
    spec = slope_spec(-2.5, constant_payoff(1.0))
    assert lipschitz_budget(spec, 0.0, 2.0) == pytest.approx(5.0, rel=1e-12)


# -- affine cross-checks -----------------------------------------------------------


def test_linear_oracle_exact_degenerate_cases():
    model = build_power_model(black_scholes_params())
    est, err = linear_oracle(
        model, constant_payoff(1.0), lambda t, s, v: np.zeros_like(s), -0.05,
        (0.0, X0, 0.04), 1.0, 50, 16, seed=4,
    )
    assert est == pytest.approx(math.exp(-0.05), rel=1e-12)
    assert err <= 1e-12

    est, err = linear_oracle(
        model, constant_payoff(1.0), lambda t, s, v: np.full_like(s, 0.07), 0.0,
        (0.0, X0, 0.04), 0.5, 50, 16, seed=4,
    )
    assert est == pytest.approx(1.0 + 0.07 * 0.5, rel=1e-12)


def test_linear_oracle_growth_case():
    # a(t,s,v) = q*s, m = 0, drift b: u(0) = q*s0*(e^{bT}-1)/b
    b, q, T = 0.04, 0.05, 0.5
    model = build_power_model(black_scholes_params(drift_b=b))
    est, err = linear_oracle(
        model, constant_payoff(0.0), lambda t, s, v: q * s, 0.0,
        (0.0, X0, 0.04), T, 64, 40000, seed=21,
    )
    exact = q * 100.0 * (math.exp(b * T) - 1.0) / b
    assert abs(est - exact) <= 3.0 * err + 1e-4
    assert err > 0.0


def test_picard_matches_closed_form_and_oracle():
    # driver a + m y with a = q*s, m = -0.3: closed form
    # u(t,x) = q e^x (e^{(m+b)(T-t)} - 1)/(m+b)
    m, q, b, T = -0.3, 0.05, 0.02, 0.5
    model = build_power_model(black_scholes_params(drift_b=b))
    spec = slope_spec(m, constant_payoff(0.0), dividend=lambda t, s, v: q * s)
    x_nodes = np.linspace(X0 - 0.8, X0 + 0.8, 13)
    t_nodes = np.linspace(0.0, T, 5)
    rep = picard_solve(
        spec, model, t_nodes, x_nodes, [0.03, 0.05],
        McConfig(n_paths=6000, n_steps=32, master_seed=17), tol=1e-3,
    )
    assert rep.converged

    def closed(t, x):
        return q * math.exp(x) * (math.exp((m + b) * (T - t)) - 1.0) / (m + b)

    for i, j in [(0, 6), (1, 6), (2, 4), (2, 8), (3, 6)]:
        want = closed(t_nodes[i], x_nodes[j])
        got = rep.u.values[i, j, 0]
        assert got == pytest.approx(want, abs=max(0.03, 5.0 * rep.stderr_floor))

    est, err = linear_oracle(
        model, constant_payoff(0.0), lambda t, s, v: q * s, m,
        (float(t_nodes[1]), float(x_nodes[6]), 0.04), T, 32, 20000, seed=31,
    )
    assert abs(est - closed(t_nodes[1], x_nodes[6])) <= 3.0 * err + 5e-3
    assert abs(rep.u.values[1, 6, 0] - est) <= 3.0 * (err + rep.stderr_floor) + 0.03


def test_comparison_check_orders_dividend_bump():
    payoff = capped_call(100.0, 30.0)
    lo = riskfree_spec(0.03, payoff)
    hi = riskfree_spec(0.03, payoff)
    hi.dividend = constant_dividend(0.01)
    model = build_power_model(black_scholes_params(drift_b=0.03))
    out = comparison_check(
        lo, hi, model, [0.0, 0.25, 0.5], np.linspace(X0 - 1.0, X0 + 1.0, 9),
        [0.03, 0.05], McConfig(n_paths=3000, n_steps=8, master_seed=13),
    )
    assert out["ok"]
    # t = 0 plane gains roughly the integrated bump
    gain = out["hi"].u.values[0] - out["lo"].u.values[0]
    assert np.all(gain > 0.003)
    assert np.max(gain) < 0.01


# -- residual probe ----------------------------------------------------------------


def test_pde_residual_on_exact_discount_field():
    r = 0.05
    spec = riskfree_spec(r, constant_payoff(1.0))
    model = build_power_model(black_scholes_params(drift_b=r))
    t = np.linspace(0.0, 1.0, 1001)
    x = np.array([4.0, 4.6, 5.2])
    v = np.array([0.02, 0.04, 0.06])
    vals = np.exp(-r * (1.0 - t))[:, None, None] * np.ones((1, 3, 3))
    u = GridFunction(t, x, v, vals)
    res = pde_residual(spec, model, u)
    assert res.shape == (999, 1, 1)
    assert np.max(np.abs(res)) <= 1e-8


def test_pde_residual_on_solver_output():
    r = 0.05
    spec = riskfree_spec(r, constant_payoff(1.0))
    model = build_power_model(black_scholes_params(drift_b=r))
    rep = picard_solve(
        spec, model, np.linspace(0.0, 1.0, 41), [4.0, 4.6, 5.2],
        [0.02, 0.04, 0.06],
        McConfig(n_paths=64, n_steps=200, master_seed=5), tol=1e-8, max_sweeps=20,
    )
    res = pde_residual(spec, model, rep.u)
    assert np.max(np.abs(res)) <= 1e-5


def test_pde_residual_requires_uniform_axes():
    spec = riskfree_spec(0.0, constant_payoff(1.0))
    model = build_power_model(black_scholes_params())
    t = np.array([0.0, 0.1, 0.5])
    grid = GridFunction(t, np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.1, 0.2]),
                        np.zeros((3, 3, 3)))
    with pytest.raises(InvariantError, match="uniform"):
        pde_residual(spec, model, grid)
    small = GridFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]),
                         np.array([0.0, 0.1, 0.2]), np.zeros((2, 3, 3)))
    with pytest.raises(InvariantError, match="at least 3"):
        pde_residual(spec, model, small)


# -- misc -------------------------------------------------------------------------


def test_auto_hull_contains_start_and_bulk():
    model = build_power_model(black_scholes_params(drift_b=0.03))
    grid = TimeGrid(0.0, 0.5, 25)
    x_lo, x_hi, v_lo, v_hi = auto_hull(model, (X0, 0.04), grid, n_paths=2000, seed=6)
    assert x_lo < X0 < x_hi
    assert v_lo < 0.04 < v_hi
    paths = simulate_paths(model, (X0, 0.04), grid, 2000, 6)
    frac_out = np.mean((paths.valid_x() < x_lo) | (paths.valid_x() > x_hi))
    assert frac_out < 0.005


def test_fresh_seed_validation_on_bond():
    r = 0.05
    spec = riskfree_spec(r, constant_payoff(1.0))
    model = build_power_model(black_scholes_params(drift_b=r))
    rep = picard_solve(
        spec, model, np.linspace(0.0, 1.0, 5), [4.0, 4.6, 5.2], [0.02, 0.06],
        McConfig(n_paths=64, n_steps=40, master_seed=5), tol=1e-6,
        validate_fresh=True,
    )
    assert rep.fresh_ok
    assert rep.fresh_gap <= 1e-5
    rep2 = picard_solve(
        spec, model, np.linspace(0.0, 1.0, 5), [4.0, 4.6, 5.2], [0.02, 0.06],
        McConfig(n_paths=64, n_steps=40, master_seed=5), tol=1e-6,
    )
    assert rep2.fresh_gap is None and rep2.fresh_ok is None
