import io
import json
import math
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from xvamild.defaultclock import DefaultSpec, PartyDefault, _trapezoid_cumsum
from xvamild import mildsolver
from xvamild.gridfn import GridFunction, _cells, save_grid, write_grid_csv, write_table
from xvamild.mildsolver import (
    _STATE_BUDGET,
    _node_blocks,
    _sweep_slices,
    McConfig,
    apply_mild_map,
    auto_hull,
    comparison_check,
    linear_oracle,
    lipschitz_budget,
    picard_solve,
    refine_point,
    sup_diff,
)
from xvamild.simulate import _CHUNK, InvalidPathBudgetError, TimeGrid, _path_chunks, simulate_paths
from xvamild.special import GammaParams
from xvamild.valuation import (
    MarketSpec,
    capped_call,
    constant_dividend,
    constant_payoff,
)
from xvamild.volmodel import (
    InvariantError,
    VolModel,
    black_scholes_params,
    build_power_model,
    heston_params,
    on_times,
)
from paper_refs import pde_residual

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


def searchsorted_bilinear(xn, vn, plane, x, v):
    """The binary-search bilinear gather the arithmetic cell lookup replaced."""
    xc = np.clip(x, xn[0], xn[-1])
    vc = np.clip(v, vn[0], vn[-1])
    ix = np.clip(np.searchsorted(xn, xc, side="right") - 1, 0, len(xn) - 2)
    iv = np.clip(np.searchsorted(vn, vc, side="right") - 1, 0, len(vn) - 2)
    wx = (xc - xn[ix]) / (xn[ix + 1] - xn[ix])
    wv = (vc - vn[iv]) / (vn[iv + 1] - vn[iv])
    return (
        plane[ix, iv] * (1.0 - wx) * (1.0 - wv)
        + plane[ix + 1, iv] * wx * (1.0 - wv)
        + plane[ix, iv + 1] * (1.0 - wx) * wv
        + plane[ix + 1, iv + 1] * wx * wv
    )


UNIFORM_AXES = {
    "linspace": np.linspace(4.0220, 5.0441, 21),  # the acceptance fixture's x axis
    "fixture_v": np.linspace(1e-4, 0.2065, 9),
    "oracle_v": np.linspace(0.5 * 0.04, 1.5 * 0.04 + 1e-8, 3),  # verify's affine-oracle v axis
    "three": np.array([X0 - 0.5, X0, X0 + 0.5]),
    "two": np.array([-1.0, 2.5]),
}
NON_UNIFORM_AXES = {
    "geomspace": np.geomspace(1e-4, 3.0, 17),
    "skewed": np.array([0.0, 1e-3, 1.0]),
    "random": np.cumsum(np.random.default_rng(8).uniform(1e-6, 1.0, 13)) - 3.0,
}


def gather_queries(nodes):
    """On every node, one ulp either side of it, outside the hull, +-inf and NaN."""
    return np.concatenate([
        nodes,
        np.nextafter(nodes, np.inf),
        np.nextafter(nodes, -np.inf),
        [nodes[0] - 1.0, nodes[-1] + 1.0, np.inf, -np.inf, np.nan],
        np.random.default_rng(len(nodes)).uniform(nodes[0] - 0.1, nodes[-1] + 0.1, 40),
    ])


def gather_bound(xn, vn, plane):
    """Rounding allowance against the binary search: a weight from the scaled
    coordinate is off by a few ulps of (largest |node| / spacing + nodes) on
    each axis, and a weight moves the value by at most twice max|plane|."""
    ulps = sum(np.max(np.abs(n)) / (n[1] - n[0]) + len(n) for n in (xn, vn))
    return 2.0 * ulps * np.finfo(float).eps * np.max(np.abs(plane))


@pytest.mark.parametrize("x_axis", sorted(UNIFORM_AXES))
def test_cell_lookup_matches_binary_search_within_ulps(x_axis):
    xn = UNIFORM_AXES[x_axis]
    q = gather_queries(xn)
    i, w = _cells(xn, q)
    assert np.all((i >= 0) & (i <= len(xn) - 2))
    assert np.all((w[~np.isnan(q)] >= 0.0) & (w[~np.isnan(q)] <= 1.0))
    assert np.array_equal(np.isnan(w), np.isnan(q))
    for vn in UNIFORM_AXES.values():
        plane = np.random.default_rng(1).normal(size=(len(xn), len(vn)))
        g = GridFunction(np.array([0.0, 1.0]), xn, vn, np.stack([plane, plane]))
        bound = gather_bound(xn, vn, plane)
        xq, vq = (a.ravel() for a in np.meshgrid(gather_queries(xn), gather_queries(vn)))
        got = g.evaluate_at_time(0.0, xq, vq)
        want = searchsorted_bilinear(xn, vn, plane, xq, vq)
        finite = ~np.isnan(got)
        assert np.array_equal(finite, ~np.isnan(want))
        assert finite.any() and np.isnan(vq[~finite] + xq[~finite]).all()
        assert np.max(np.abs(got[finite] - want[finite])) <= bound
        # scalars stay scalars, broadcasting still works
        one = g.evaluate_at_time(0.0, xq[7], vq[7])
        assert np.shape(one) == () and np.array_equal(one, got[7])
        grid = g.evaluate_at_time(0.0, xq[:5, None], vq[None, :6])
        want = searchsorted_bilinear(xn, vn, plane, xq[:5, None], vq[None, :6])
        assert grid.shape == (5, 6)
        assert np.array_equal(np.isnan(grid), np.isnan(want))
        assert np.nanmax(np.abs(grid - want)) <= bound


@pytest.mark.parametrize("axis", sorted(NON_UNIFORM_AXES))
def test_gridfunction_rejects_non_uniform_x_and_v_axes(axis):
    bad, good = NON_UNIFORM_AXES[axis], UNIFORM_AXES["linspace"]
    values = np.zeros((2, len(bad), len(good)))
    with pytest.raises(InvariantError, match="x nodes must be uniformly spaced"):
        GridFunction(np.array([0.0, 1.0]), bad, good, values)
    with pytest.raises(InvariantError, match="v nodes must be uniformly spaced"):
        GridFunction(np.array([0.0, 1.0]), good, bad, values.transpose(0, 2, 1))


@pytest.mark.parametrize("x_axis", ["linspace", "three", "two"])
def test_row_shift_gather_matches_plain_gather(x_axis):
    # rows on nodes ride one shift: each row reads its node plus the shift, flat
    # past either hull edge, NaN where the shift is NaN
    xn, vn = UNIFORM_AXES[x_axis], UNIFORM_AXES["fixture_v"]
    rng = np.random.default_rng(len(xn))
    plane = rng.normal(size=(len(xn), len(vn)))
    g = GridFunction(np.array([0.0, 1.0]), xn, vn, np.stack([plane, 2.0 * plane]))
    span, cells = xn[-1] - xn[0], len(xn) - 1
    shifts = np.concatenate([
        rng.uniform(-1.2 * span, 1.2 * span, 60),
        np.arange(-cells, cells + 1) * (span / cells),  # every row onto every node and edge
        [span, -span, span + 1.0, -span - 1.0, np.inf, -np.inf, np.nan],
    ])
    d, vq = np.meshgrid(shifts, gather_queries(vn)[::4])  # a (v node, path)-like plane
    everything = list(range(len(xn)))
    for rows in (everything, [0], [cells], everything[1:3], [cells, 0]):
        got = g.evaluate_at_time(0.25, d, vq, rows=rows)
        want = g.evaluate_at_time(0.25, xn[rows][:, None, None] + d, vq)
        # into a caller's buffer, row-shift and plain queries keep their bits
        for query, rows_arg, ref in ((d, rows, got), (xn[rows][:, None, None] + d, None, want)):
            buf = np.full(ref.shape, np.nan)
            assert g.evaluate_at_time(0.25, query, vq, rows=rows_arg, out=buf) is buf
            assert buf.tobytes() == ref.tobytes()
        assert got.shape == (len(rows),) + d.shape
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(np.isnan(got), np.broadcast_to(np.isnan(d) | np.isnan(vq), got.shape))
        finite = ~np.isnan(got)
        assert np.max(np.abs(got[finite] - want[finite])) <= 2.0 * gather_bound(xn, vn, 1.5 * plane)
        # a row's value reads its node and the shift alone, not the other rows
        assert got.tobytes() == g.evaluate_at_time(0.25, d, vq, rows=everything)[rows].tobytes()


def test_non_uniform_time_axis_blends_planes_exactly():
    t = np.array([0.0, 0.1, 0.5])
    x = np.linspace(-1.0, 1.0, 5)
    v = np.linspace(0.0, 0.4, 3)
    g = GridFunction(t, x, v, 2.0 * t[:, None, None] + 3.0 * x[None, :, None] - v[None, None, :])
    xg, vg = (a.ravel() for a in np.meshgrid(x, v, indexing="ij"))
    for k, tk in enumerate(t):
        assert np.array_equal(g.evaluate_at_time(tk, xg, vg), g.values[k].ravel())
    for tq in (0.025, 0.05, 0.1 + 1e-12, 0.3, 0.499):
        got = g.evaluate_at_time(tq, xg, vg)
        assert np.max(np.abs(got - (2.0 * tq + 3.0 * xg - vg))) <= 1e-15


def test_grid_cache_roundtrip_deterministic(tmp_path):
    g = affine_grid()
    p1 = tmp_path / "a.zip"
    p2 = tmp_path / "b.zip"
    save_grid(g, p1)
    save_grid(g, p2)
    assert p1.read_bytes() == p2.read_bytes()
    with np.load(p1) as back:
        assert json.loads(back["header.json"]) == {"kind": "gridfunction"}
        assert np.array_equal(back["values"], g.values)
        assert np.array_equal(back["t_nodes"], g.t_nodes)


def test_write_grid_csv_full_precision():
    g = affine_grid()
    buf = io.StringIO()
    write_grid_csv(g, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x,v,u"
    assert len(lines) == 1 + 3 * 5 * 3
    t, x, v, u = (float(tok) for tok in lines[1].split(","))
    assert u == 2.0 * t + 3.0 * x - v


@pytest.mark.parametrize("column, old_cell", [
    ([0, 7, 123456], lambda c: f"{c}"),  # terminal.csv's path ids
    (np.array([0, 7, 123456]), lambda c: f"{c}"),
    (np.array([True, False]), lambda c: f"{int(c)}"),  # terminal.csv's invalid flags
    (np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300]), lambda c: f"{float(c):.17g}"),
    (np.array([0.1, 1.0 / 3.0, -2.5e-17]), lambda c: f"{c:.17g}"),  # write_grid_csv's cells
])
def test_write_table_matches_the_per_row_fstrings(column, old_cell):
    buf = io.StringIO()
    write_table(buf, ("a", "b"), (column, column[::-1]))
    rows = [f"{old_cell(a)},{old_cell(b)}" for a, b in zip(column, column[::-1])]
    assert buf.getvalue() == "a,b\n" + "".join(row + "\n" for row in rows)


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


@pytest.mark.parametrize("max_sweeps", [0, -1])
def test_solve_needs_one_driver_sweep_at_least(max_sweeps, monkeypatch):
    # before any sweep: with none the solve would return the driver-free E[phi]
    monkeypatch.setattr(mildsolver, "apply_mild_map", None)
    spec = riskfree_spec(0.0, constant_payoff(1.0))
    model = build_power_model(black_scholes_params())
    with pytest.raises(InvariantError, match="max_sweeps must be >= 1"):
        picard_solve(spec, model, [0.0, 1.0], [4.0, 5.0], [0.02, 0.06],
                     McConfig(n_paths=8, n_steps=4), max_sweeps=max_sweeps)


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


def test_linear_oracle_matches_the_full_table_formula_bit_for_bit():
    # 2 * _CHUNK + 3 paths: the last chunk holds three rows.  V is a
    # Brownian motion and theta turns infinite above the fourth-highest
    # step-start level of V, so exactly three rows of X go non-finite and
    # the oracle must drop the same rows the full tables mark invalid.
    n_paths, seed = 2 * _CHUNK + 3, 11
    grid = TimeGrid(0.0, 0.5, 16)
    start = (X0, 0.04)
    walk = VolModel(
        drift_b=lambda t: 0.02,
        coefficients=lambda t, v, work=None: (0.2, 0.0, 0.3),
        correlation=lambda t: -0.5,
    )
    level = np.sort(simulate_paths(walk, start, grid, n_paths, seed).v[:, :-1].max(axis=1))[-4]
    model = replace(walk, coefficients=lambda t, v, work=None: (
        np.where(v > level, np.inf, 0.2), 0.0, 0.3))
    paths = simulate_paths(model, start, grid, n_paths, seed)
    assert paths.n_invalid == 3

    chunks = list(_path_chunks(model, start, grid, n_paths, seed))
    assert [(lo, len(x)) for lo, x, _ in chunks] == [(0, _CHUNK), (_CHUNK, _CHUNK), (2 * _CHUNK, 3)]
    assert np.array_equal(np.concatenate([x for _, x, _ in chunks]), paths.x, equal_nan=True)
    assert np.array_equal(np.concatenate([v for _, _, v in chunks]), paths.v)

    payoff = capped_call(100.0, 30.0)

    def source(t, s, v):
        return 0.01 * s + v

    def slope(t):
        return -0.03 - 0.1 * t

    x, v, nodes = paths.valid_x(), paths.valid_v(), grid.nodes
    w = np.exp(_trapezoid_cumsum(on_times(slope, nodes), nodes))
    a_vals = np.empty_like(x)
    for k, t in enumerate(nodes):
        a_vals[:, k] = w[k] * np.asarray(source(t, np.exp(x[:, k]), v[:, k]), dtype=float)
    est = (w[-1] * np.asarray(payoff(np.exp(x[:, -1]), v[:, -1]), dtype=float)
           + np.trapezoid(a_vals, nodes, axis=1))
    want = (float(est.mean()), float(est.std(ddof=1) / math.sqrt(len(est))))
    got = linear_oracle(model, payoff, source, slope, (0.0, *start), 0.5, 16, n_paths, seed)
    assert got == want


def test_linear_oracle_holds_no_full_path_tables():
    # Two full (20 000, 65) float tables take 20.8 MB; the oracle keeps one
    # chunk's tables and their trapezoid temporaries at a time.
    model = build_power_model(heston_params(k=0.05, l0=1.0, lam=0.3, rho=-0.5, drift_b=0.02))
    tracemalloc.start()
    try:
        linear_oracle(
            model, capped_call(100.0, 30.0), constant_dividend(0.01), -0.03,
            (0.0, X0, 0.04), 0.5, n_steps=64, n_paths=20000, seed=907,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 20000 * 65 * 8


def test_linear_oracle_enforces_the_invalid_path_budget():
    model = VolModel(
        drift_b=lambda t: 0.0,
        coefficients=lambda t, v, work=None: (1e200, 0.0, 0.0),
        correlation=lambda t: 0.0,
    )
    grid = TimeGrid(0.0, 1.0, 5)
    with pytest.raises(InvalidPathBudgetError) as sim:
        simulate_paths(model, (0.0, 1.0), grid, 100, master_seed=2)
    with pytest.raises(InvalidPathBudgetError) as oracle:
        linear_oracle(
            model, constant_payoff(1.0), lambda t, s, v: np.zeros_like(s), 0.0,
            (0.0, 0.0, 1.0), 1.0, 5, 100, seed=2,
        )
    assert (oracle.value.n_invalid, oracle.value.n_paths) == (sim.value.n_invalid, 100)

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


# -- thread-count determinism ------------------------------------------------------


def multi_chunk_problem():
    spec = MarketSpec(
        rate=0.03, funding_rate_pos=0.05, funding_rate_neg=0.02,
        collateral_frac=0.5, lgd_investor=0.6, lgd_counterparty=0.4,
        payoff=capped_call(100.0, 30.0),
        defaults=DefaultSpec(
            investor=PartyDefault(0.10, GammaParams(1.0, 1.0)),
            counterparty=PartyDefault(lambda t: 0.15 + 0.1 * t, GammaParams(1.5, 1.0)),
        ),
    )
    model = build_power_model(heston_params(k=0.05, l0=1.0, lam=0.3, rho=-0.5, drift_b=0.03))
    t = np.linspace(0.0, 0.5, 4)
    x = np.linspace(X0 - 1.0, X0 + 1.0, 21)
    v = np.linspace(-0.1, 0.3, 5)  # Euler variance dips below zero; the hull keeps it
    payoff = np.minimum(np.maximum(np.exp(x) - 100.0, 0.0), 30.0)
    u = GridFunction(t, x, v, np.broadcast_to(payoff[None, :, None], (4, 21, 5)).copy())
    return spec, model, u


@pytest.fixture
def block_counts(monkeypatch):
    """The number of blocks each sweep hands ``_run_blocks``, in call order."""
    counts = []
    real = mildsolver._run_blocks

    def run_blocks(fn, blocks):
        counts.append(len(blocks))
        return real(fn, blocks)

    monkeypatch.setattr(mildsolver, "_run_blocks", run_blocks)
    return counts


@pytest.mark.parametrize("nx, nv, n_paths, threads, blocks", [
    (9, 5, 3000, 2, 1),  # the book: 67 500 node·paths a block at two threads
    (21, 7, 8000, 2, 2),  # the martingale check, first chunk 3401: 249 973 a block at two threads
    (21, 7, 8000, 1, 1),
    (21, 7, 8000, 8, 4),  # 499 947 node·paths carry at most four blocks
])
def test_sweep_takes_a_thread_only_for_a_block_big_enough_to_pay(block_counts, nx, nv, n_paths,
                                                                 threads, blocks):
    # a driver sweep; the terminal sweep after it steps only the planes, so it
    # is one block at any thread count
    spec, model, u = multi_chunk_problem()
    x, v = np.linspace(X0 - 0.5, X0 + 0.5, nx), np.linspace(0.02, 0.2, nv)
    mc = McConfig(n_paths=n_paths, n_steps=2, master_seed=4, threads=threads)
    apply_mild_map(spec, model, u, [0.0, 0.5], x, v, mc)
    apply_mild_map(spec, model, None, [0.0, 0.5], x, v, mc)
    assert block_counts == [blocks, 1]


def test_multi_chunk_sweeps_are_bit_identical_across_thread_counts():
    spec, model, u = multi_chunk_problem()
    n_nodes = len(u.x_nodes) * len(u.v_nodes)
    mc = McConfig(n_paths=9600, n_steps=6, master_seed=4)
    assert math.ceil(mc.n_paths / min(_CHUNK, _STATE_BUDGET // n_nodes)) >= 3
    assert math.ceil(8500 / _CHUNK) >= 3
    runs = []
    for threads in (1, 2, 3):
        mc_t = replace(mc, threads=threads)
        sweep, err, cov = apply_mild_map(spec, model, u, u.t_nodes, u.x_nodes, u.v_nodes, mc_t)
        runs.append((sweep.values, err, cov, refine_point(spec, model, u, (0.0, X0, 0.04),
                                                           replace(mc_t, n_paths=8500))))
    for values, err, cov, refined in runs[1:]:
        assert np.array_equal(values, runs[0][0])
        assert np.array_equal(err, runs[0][1])
        assert cov == runs[0][2]
        assert refined == runs[0][3]


@pytest.mark.parametrize("n_nodes", [1, 2, 7, 35, 45, 189])
@pytest.mark.parametrize("threads", [1, 2, 3, 4, 16, 10**6])
def test_node_blocks_cover_the_nodes_in_near_equal_order(n_nodes, threads):
    blocks = _node_blocks(n_nodes, threads)
    assert blocks[0][0] == 0 and blocks[-1][1] == n_nodes
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    sizes = [hi - lo for lo, hi in blocks]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert len(blocks) == min(n_nodes, threads)
    if threads == 1:
        assert blocks == [(0, n_nodes)]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_each_chunk_is_drawn_once_per_sweep(monkeypatch, threads):
    # each block of x rows draws every chunk's normals once, in chunk order
    spec, model, u = multi_chunk_problem()
    sweeps = []  # per _sweep_slices call: the chunks each block drew, in order
    local = threading.local()
    real_run, real_seed = mildsolver._run_blocks, np.random.SeedSequence

    def run_blocks(fn, blocks):
        drawn = {block: [] for block in blocks}
        sweeps.append(drawn)

        def run(block):
            local.drawn = drawn[block]
            return fn(block)

        return real_run(run, blocks)

    def seeded(entropy):
        local.drawn.append(entropy[2])
        return real_seed(entropy)

    monkeypatch.setattr(mildsolver, "_run_blocks", run_blocks)
    monkeypatch.setattr(np.random, "SeedSequence", seeded)
    mc = McConfig(n_paths=9600, n_steps=6, master_seed=4, threads=threads)
    n_nodes = len(u.x_nodes) * len(u.v_nodes)
    apply_mild_map(spec, model, u, u.t_nodes, u.x_nodes, u.v_nodes, mc)
    refine_point(spec, model, u, (0.0, X0, 0.04), replace(mc, n_paths=8500))
    assert len(u.t_nodes) - 1 >= 3  # several slices share each draw
    grid_chunks = list(range(math.ceil(9600 / min(_CHUNK, _STATE_BUDGET // n_nodes))))
    assert sweeps == [
        {block: grid_chunks for block in _node_blocks(len(u.x_nodes), threads)},
        {(0, 1): list(range(math.ceil(8500 / _CHUNK)))},
    ]
    assert len(sweeps[0]) == threads


@pytest.mark.parametrize("n_blocks", [1, 2, 3, 5])
def test_run_blocks_gives_each_block_its_own_thread_and_keeps_block_order(n_blocks):
    blocks = [(i, i + 1) for i in range(n_blocks)]
    # every block waits for all the others: two blocks sharing a thread would
    # break the barrier at its timeout instead of passing it
    barrier = threading.Barrier(n_blocks, timeout=30)
    ran_on = {}

    def fn(block):
        ran_on[block] = threading.get_ident()
        barrier.wait()
        time.sleep(0.01 * (n_blocks - block[0]))  # later blocks finish first
        return block[0] * 10

    assert mildsolver._run_blocks(fn, blocks) == [10 * i for i in range(n_blocks)]
    assert ran_on[blocks[0]] == threading.get_ident()
    assert len(set(ran_on.values())) == n_blocks


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_run_blocks_raises_an_exception_from_any_block(failing):
    def fn(block):
        if block[0] == failing:
            raise ValueError(f"block {block[0]}")
        return block[0]

    with pytest.raises(ValueError, match=f"block {failing}"):
        mildsolver._run_blocks(fn, [(0, 1), (1, 2), (2, 3)])


def test_single_chunk_sweeps_are_bit_identical_across_thread_counts(monkeypatch, block_counts):
    monkeypatch.setattr(mildsolver, "_MIN_BLOCK", 1)  # split these small sweeps as far as threads go
    spec, model, u = multi_chunk_problem()
    x = np.linspace(X0 - 0.3, X0 + 0.3, 7)
    v = np.linspace(0.02, 0.2, 5)
    mc = McConfig(n_paths=1500, n_steps=6, master_seed=4)
    assert mc.n_paths <= min(_CHUNK, _STATE_BUDGET // (len(x) * len(v)))  # one chunk
    runs = []
    for threads in (1, 2, 3, 8):  # 8 threads: more than the 7 x rows, so one block per row
        mc_t = replace(mc, threads=threads)
        block_counts.clear()
        swept, err, cov = apply_mild_map(spec, model, u, u.t_nodes, x, v, mc_t)
        terminal, err0, _ = apply_mild_map(spec, model, None, u.t_nodes, x, v, mc_t)
        solved = picard_solve(spec, model, u.t_nodes, x, v, mc_t, tol=1e-9, max_sweeps=3)
        # driver sweeps split as far as threads go; terminal sweeps, each slab's
        # first, are one block
        n = min(threads, len(x))
        slabs = [[1] + [n] * k for k in reversed(solved.sweeps_per_slab)]
        assert block_counts == [n, 1] + sum(slabs, [])
        refined = refine_point(spec, model, u, (0.0, X0, 0.04), replace(mc_t, n_paths=4000))
        runs.append((swept.values, err, cov, terminal.values, err0, solved.u.values,
                     solved.sup_diffs, refined))
    # no two nodes share a value, so node blocks put back in another order could not match
    for field in (runs[0][0][0], runs[0][3][0], runs[0][5][0]):
        assert len(np.unique(field)) == field.size
    for run in runs[1:]:
        assert np.array_equal(run[0], runs[0][0])
        assert np.array_equal(run[1], runs[0][1])
        assert run[2] == runs[0][2]
        assert np.array_equal(run[3], runs[0][3])
        assert np.array_equal(run[4], runs[0][4])
        assert np.array_equal(run[5], runs[0][5])
        assert run[6] == runs[0][6]
        assert run[7] == runs[0][7]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_node_blocked_sweep_matches_single_node_sweeps(threads, monkeypatch, block_counts):
    # one node is one block at any thread count and gets the same chunk, so the
    # same stream: the single-node sweeps are a reference independent of blocking
    spec, model, u = multi_chunk_problem()
    x = np.linspace(X0 - 0.3, X0 + 0.3, 7)
    v = np.linspace(0.02, 0.2, 5)
    n_nodes = x.size * v.size
    mc = McConfig(n_paths=1500, n_steps=6, master_seed=4, threads=threads)
    assert mc.n_paths <= min(_CHUNK, _STATE_BUDGET // n_nodes)  # one chunk
    monkeypatch.setattr(mildsolver, "_MIN_BLOCK", 1)  # a block per thread: 3 at threads=3
    master = TimeGrid(0.0, 0.5, mc.n_steps)
    starts = [0, 2, 4, 6]
    for u_prev in (u, None):
        mean, err, cov = _sweep_slices(spec, model, u_prev, master, starts, 6, x, v,
                                       spec.payoff, mc, 0)
        assert block_counts[-1] == (1 if u_prev is None else threads)  # a terminal sweep is one block
        n_out = 0.0
        for j in range(n_nodes):
            i, k = divmod(j, v.size)
            mean_j, err_j, cov_j = _sweep_slices(spec, model, u_prev, master, starts, 6,
                                                 x[i : i + 1], v[k : k + 1], spec.payoff, mc, 0)
            assert mean[:, j].tobytes() == mean_j[:, 0].tobytes()
            assert err[:, j].tobytes() == err_j[:, 0].tobytes()
            n_out += cov_j
        assert cov == pytest.approx(n_out / n_nodes, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("threads", [1, 3])
def test_sweep_steps_the_variance_once_per_v_node(threads, monkeypatch, block_counts):
    # V is autonomous, so every x row of a v column rides the same V path: the
    # coefficients see (nv, paths) planes, never planes over the x rows
    spec, model, u = multi_chunk_problem()
    shapes = []
    coefficients = model.coefficients

    def recorded(t, v, work=None):
        shapes.append(np.shape(v))
        return coefficients(t, v, work)

    model = replace(model, coefficients=recorded)
    x = np.linspace(X0 - 0.3, X0 + 0.3, 7)
    v = np.linspace(0.02, 0.2, 5)
    mc = McConfig(n_paths=1500, n_steps=6, master_seed=4, threads=threads)
    monkeypatch.setattr(mildsolver, "_MIN_BLOCK", 1)  # a block per thread
    for u_prev in (u, None):
        shapes.clear()
        block_counts.clear()
        apply_mild_map(spec, model, u_prev, u.t_nodes, x, v, mc)
        assert block_counts == [1 if u_prev is None else threads]  # a terminal sweep is one block
        assert shapes
        assert all(len(shape) == 2 and shape[0] == v.size for shape in shapes), set(shapes)


@pytest.mark.parametrize("threads", [1, 3])
def test_sweep_gathers_x_rows_on_one_shift_plane(threads, monkeypatch, block_counts):
    # X - x does not depend on x, so rows on u_prev's x nodes hand the gather one
    # (nv, paths) shift plane and their node indices, never a plane over the rows
    spec, model, u = multi_chunk_problem()
    calls = []
    gather = GridFunction.evaluate_at_time

    def recorded(self, t, x, v, **rows):
        calls.append((np.shape(x), rows.get("rows")))
        return gather(self, t, x, v, **rows)

    x, v = u.x_nodes[7:14], np.linspace(0.02, 0.2, 5)
    mc = McConfig(n_paths=1500, n_steps=6, master_seed=4, threads=threads)
    monkeypatch.setattr(GridFunction, "evaluate_at_time", recorded)
    monkeypatch.setattr(mildsolver, "_MIN_BLOCK", 1)  # a block per thread
    apply_mild_map(spec, model, u, u.t_nodes, x, v, mc)
    assert block_counts == [threads]
    assert calls
    assert all(shape == (v.size, mc.n_paths) for shape, _ in calls), {s for s, _ in calls}
    blocks = {tuple(rows) for _, rows in calls}
    assert sorted(j for rows in blocks for j in rows) == list(range(7, 14))


def test_payoff_and_dividend_that_read_v_alone_broadcast_over_x():
    _, model, _ = multi_chunk_problem()
    spec = MarketSpec(rate=0.03, payoff=lambda s, v: v, dividend=lambda t, s, v: 0.01 * v)
    t = np.linspace(0.0, 0.5, 4)
    x = np.linspace(X0 - 0.3, X0 + 0.3, 7)
    v = np.linspace(0.02, 0.2, 5)
    mc = McConfig(n_paths=1500, n_steps=6, master_seed=4)
    master = TimeGrid(0.0, 0.5, mc.n_steps)
    terminal, err0, _ = apply_mild_map(spec, model, None, t, x, v, mc)
    swept, err, _ = apply_mild_map(spec, model, terminal, t, x, v, mc)
    for field in (terminal.values, swept.values):
        assert field.shape == (t.size, x.size, v.size)
    assert np.all(terminal.values[-1] == v)
    for u_prev, field, field_err in ((None, terminal, err0), (terminal, swept, err)):
        for i in range(x.size):  # a row alone is the nx = 1 sweep at that row's x
            mean_i, err_i, _ = _sweep_slices(spec, model, u_prev, master, [0, 2, 4, 6], 6,
                                             x[i : i + 1], v, spec.payoff, mc, 0)
            assert field.values[:, i, :].tobytes() == mean_i.tobytes()
            assert field_err[:, i, :].tobytes() == err_i.tobytes()
    # a payoff of v alone gives every x row of the terminal sweep the same values
    assert np.all(terminal.values == terminal.values[:, :1, :])


def test_payoff_that_returns_its_own_price_keeps_the_sweep_bits():
    # the slice end hands the payoff the price array the driver then writes
    # its rate over, so a payoff that returns its argument must not see it move
    spec, model, u = multi_chunk_problem()
    mc = McConfig(n_paths=1500, n_steps=6, master_seed=4)
    runs = []
    for payoff in (lambda s, v: s, lambda s, v: np.array(s)):
        sweep, err, cov = apply_mild_map(replace(spec, payoff=payoff), model, u, u.t_nodes,
                                         u.x_nodes, u.v_nodes, mc)
        runs.append((sweep.values.tobytes(), err.tobytes(), cov))
    assert runs[0] == runs[1]


def test_driver_sweep_holds_at_most_five_block_arrays():
    # One driver sweep on the martingale check's grid (9 x 21 x 7 nodes, 8000
    # paths, 32 steps, one thread): the block's three state arrays, the
    # payoff's estimate and the chunk's normals, with plane-sized temporaries,
    # stay within five (21, 7, chunk) float arrays.  numpy reports its buffers
    # to tracemalloc, so the peak repeats exactly.
    model = build_power_model(heston_params(k=0.05, l0=1.0, lam=0.3, rho=-0.5, drift_b=0.02))
    spec = MarketSpec(rate=0.03, collateral_rate_pos=0.05, funding_rate_neg=0.02,
                      payoff=capped_call(100.0, 30.0))
    t, x, v = np.linspace(0.0, 0.5, 9), np.linspace(X0 - 0.8, X0 + 0.8, 21), np.linspace(0.0, 0.12, 7)
    mc = McConfig(n_paths=8000, n_steps=32, master_seed=5)
    u, _, _ = apply_mild_map(spec, model, None, t, x, v, mc)
    chunk = min(_CHUNK, _STATE_BUDGET // (21 * 7))
    tracemalloc.start()
    try:
        apply_mild_map(spec, model, u, t, x, v, mc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 21 * 7 * chunk * 8, peak / (21 * 7 * chunk * 8)
