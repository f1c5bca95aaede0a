import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from xvamild.config import _DIVIDENDS, _HEDGES, build_run, normalise_config, resolve_axes
from xvamild.defaultclock import DefaultSpec, PartyDefault, survival_curve
from xvamild.gridfn import CoverageError, GridFunction
from xvamild.mildsolver import McConfig, _interval_budgets, apply_mild_map
from xvamild import mildsolver, valuation
from xvamild.simulate import _CHUNK, InvalidPathBudgetError, TimeGrid, simulate_paths
from xvamild.special import (
    DomainError,
    GammaParams,
    gamma_hazard_factor,
    gamma_survival,
)
from xvamild.valuation import (
    MarketSpec,
    _driver_at,
    _a_increment,
    _driver_rates,
    _driver_slopes,
    capped_call,
    constant_dividend,
    constant_payoff,
    discount,
    discount_nodes,
    driver,
    driver_boundary_check,
    driver_lipschitz,
    martingale_residual,
    proportional_hedge,
    zero_hedge,
)
from xvamild.volmodel import (
    InvariantError,
    PowerParams,
    VolModel,
    as_time_fn,
    black_scholes_params,
    build_power_model,
    measure_change,
    on_times,
)


# ---------------------------------------------------------------------------
# Independent route: build the adjustment rate from the account ledger
# (collateral / funding / hedge positions, each remunerated at the rate for
# its sign) plus the two close-out payments, instead of the collected form
# the library evaluates.  Both must describe the same cash flows.
# ---------------------------------------------------------------------------


def ledger_rate(spec, t, s, v, y, g_i, g_c):
    a = float(spec.fn("collateral_frac")(t))
    b = float(spec.fn("closeout_frac")(t))
    r = float(spec.fn("rate")(t))
    coll = a * y
    fund = (1.0 - a) * y
    close = b * y
    hedge = float(spec.hedge(t, np.array([s]), np.array([v]), np.array([y]))[0])

    def rate_for(amount, pos, neg):
        if amount > 0.0:
            return float(spec.fn(pos)(t))
        if amount < 0.0:
            return float(spec.fn(neg)(t))
        return 0.0

    c = rate_for(coll, "collateral_rate_pos", "collateral_rate_neg")
    f = rate_for(fund, "funding_rate_pos", "funding_rate_neg")
    h = rate_for(hedge, "hedge_rate_pos", "hedge_rate_neg")

    pi = float(np.broadcast_to(spec.dividend(t, np.array([s]), np.array([v])), (1,))[0])
    b_free = pi - (c - r) * coll - (f - r) * fund - (r - h) * hedge

    own = 1.0 if spec.own_default_funding else 0.0
    b_inv = close + spec.lgd_investor * (max(-(close - coll), 0.0) + max(fund, 0.0)) * own
    b_cpty = close - spec.lgd_counterparty * max(close - coll, 0.0)

    return b_free - r * y + g_i * (y - b_inv) + g_c * (y - b_cpty)


def random_spec(rng, with_defaults=True):
    beta = rng.uniform(0.0, 1.0)
    alpha = rng.uniform(0.0, 1.0) * beta
    delta = rng.uniform(-1.0, 1.0)
    defaults = None
    if with_defaults:
        defaults = DefaultSpec(
            investor=PartyDefault(
                intensity=lambda t, a=rng.uniform(0.05, 0.3), b=rng.uniform(0.0, 0.2): a + b * t,
                threshold=GammaParams(rng.uniform(0.6, 3.0), rng.uniform(0.5, 2.0)),
            ),
            counterparty=PartyDefault(
                intensity=lambda t, a=rng.uniform(0.05, 0.3), b=rng.uniform(0.0, 0.2): a + b * t,
                threshold=GammaParams(rng.uniform(0.6, 3.0), rng.uniform(0.5, 2.0)),
            ),
        )
    return MarketSpec(
        rate=rng.uniform(-0.05, 0.1),
        collateral_rate_pos=rng.uniform(-0.05, 0.1),
        collateral_rate_neg=rng.uniform(-0.05, 0.1),
        funding_rate_pos=rng.uniform(-0.05, 0.1),
        funding_rate_neg=rng.uniform(-0.05, 0.1),
        hedge_rate_pos=rng.uniform(-0.05, 0.1),
        hedge_rate_neg=rng.uniform(-0.05, 0.1),
        collateral_frac=alpha,
        closeout_frac=beta,
        lgd_investor=rng.uniform(0.0, 1.0),
        lgd_counterparty=rng.uniform(0.0, 1.0),
        own_default_funding=bool(rng.integers(0, 2)),
        dividend=constant_dividend(rng.uniform(-1.0, 1.0)),
        hedge=proportional_hedge(delta),
        hedge_lipschitz=abs(delta),
        payoff=constant_payoff(1.0),
        defaults=defaults,
    )


def test_driver_matches_ledger_composition():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        spec = random_spec(rng)
        t = rng.uniform(0.01, 2.0)
        s = math.exp(rng.uniform(-1.0, 6.0))
        v = rng.uniform(-0.5, 2.0)
        y = rng.uniform(-10.0, 10.0)
        g_i, g_c = spec.log_survival_slopes(t)
        lhs = driver(spec, t, s, v, y)
        rhs = ledger_rate(spec, t, s, v, y, g_i, g_c)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_driver_matches_ledger_at_zero_value():
    rng = np.random.default_rng(7)
    for _ in range(20):
        spec = random_spec(rng)
        t = 0.5
        g_i, g_c = spec.log_survival_slopes(t)
        lhs = driver(spec, t, 100.0, 0.2, 0.0)
        rhs = ledger_rate(spec, t, 100.0, 0.2, 0.0, g_i, g_c)
        assert abs(lhs - rhs) <= 1e-12


def test_a_increment_matches_quadrature_composition():
    # fully independent survival inputs: exact cumulative intensity via
    # quadrature, survival and hazard from the gamma primitives
    rng = np.random.default_rng(99)
    grid = TimeGrid(0.0, 2.0, 4000)
    for _ in range(25):
        spec = random_spec(rng)
        curve = survival_curve(spec.defaults, grid)
        t = rng.uniform(0.05, 1.95)
        s = math.exp(rng.uniform(0.0, 5.0))
        v = rng.uniform(0.0, 1.0)
        y = rng.uniform(-5.0, 5.0)

        surv = []
        slopes = []
        for name in ("investor", "counterparty"):
            party = spec.defaults.party(name)
            fn = as_time_fn(party.intensity)
            cum, _ = integrate.quad(fn, 0.0, t, epsabs=1e-13, epsrel=1e-13)
            g = gamma_survival(party.threshold, cum)
            surv.append(g)
            slopes.append(-float(fn(t)) * gamma_hazard_factor(party.threshold, cum))
        joint = surv[0] * surv[1]
        b_hat = ledger_rate(spec, t, s, v, y, slopes[0], slopes[1])
        r = float(spec.fn("rate")(t))
        expected = joint * (b_hat + (r - slopes[0] - slopes[1]) * y)
        # equivalently b0*G - bi*G_C*Gdot_I - bc*G_I*Gdot_C after expansion

        got = _a_increment(spec, float(np.interp(t, curve.nodes, curve.joint)), _driver_rates(spec, t), t, (s, v, y))
        assert got == pytest.approx(expected, rel=2e-6, abs=1e-9)


def test_riskfree_rates_collapse_driver():
    rng = np.random.default_rng(3)
    r = 0.04
    spec = MarketSpec(
        rate=r,
        collateral_rate_pos=r,
        collateral_rate_neg=r,
        funding_rate_pos=r,
        funding_rate_neg=r,
        hedge_rate_pos=r,
        hedge_rate_neg=r,
        collateral_frac=0.3,
        closeout_frac=0.8,
        hedge=proportional_hedge(0.7),
        hedge_lipschitz=0.7,
    )
    for _ in range(100):
        y = rng.uniform(-20.0, 20.0)
        got = driver(spec, rng.uniform(0.0, 1.0), 50.0, 0.1, y)
        assert got == pytest.approx(-r * y, abs=1e-14 * max(1.0, abs(y)))


def test_driver_rate_monotonicity():
    base = dict(
        rate=0.03,
        collateral_frac=0.4,
        closeout_frac=0.9,
        hedge=proportional_hedge(0.5),
        hedge_lipschitz=0.5,
    )
    y_pos, y_neg = 3.0, -3.0
    for field, bumped_sign_pos, bumped_sign_neg in [
        ("collateral_rate_pos", -1.0, 0.0),
        ("funding_rate_pos", -1.0, 0.0),
        ("collateral_rate_neg", 0.0, 1.0),
        ("funding_rate_neg", 0.0, 1.0),
        ("hedge_rate_pos", 1.0, 0.0),
        ("hedge_rate_neg", 0.0, -1.0),
    ]:
        lo = MarketSpec(**base)
        hi = MarketSpec(**{**base, field: 0.02})
        for y, sign in [(y_pos, bumped_sign_pos), (y_neg, bumped_sign_neg)]:
            d = driver(hi, 0.5, 100.0, 0.2, y) - driver(lo, 0.5, 100.0, 0.2, y)
            if sign > 0:
                assert d > 0.0
            elif sign < 0:
                assert d < 0.0
            else:
                assert d == pytest.approx(0.0, abs=1e-15)


def test_driver_lipschitz_bounds_value_differences():
    rng = np.random.default_rng(11)
    for _ in range(50):
        spec = random_spec(rng)
        t = rng.uniform(0.01, 1.5)
        lip = driver_lipschitz(spec, t)
        y1, y2 = rng.uniform(-8.0, 8.0, size=2)
        d = abs(driver(spec, t, 40.0, 0.3, y1) - driver(spec, t, 40.0, 0.3, y2))
        assert d <= lip * abs(y1 - y2) * (1.0 + 1e-9) + 1e-12


def test_driver_rejects_nonpositive_price():
    spec = MarketSpec()
    with pytest.raises(DomainError, match="price"):
        driver(spec, 0.1, 0.0, 0.2, 1.0)
    with pytest.raises(DomainError, match="price"):
        driver(spec, 0.1, np.array([1.0, -2.0]), 0.2, 1.0)
    with pytest.raises(DomainError, match="price"):
        driver(spec, 0.1, math.nan, 0.2, 1.0)


def test_spec_validation_rejects_bad_fractions():
    with pytest.raises(InvariantError, match="closeout_frac"):
        MarketSpec(collateral_frac=0.9, closeout_frac=0.5).validate()
    with pytest.raises(InvariantError, match="lgd_counterparty"):
        MarketSpec(lgd_counterparty=1.5).validate()
    with pytest.raises(InvariantError, match="hedge_lipschitz"):
        MarketSpec(hedge_lipschitz=-1.0).validate()
    with pytest.raises(InvariantError, match="hedge_lipschitz"):
        MarketSpec(
            rate=0.05, hedge_rate_pos=0.0, hedge_rate_neg=0.0, hedge=proportional_hedge(0.7)
        ).validate()
    MarketSpec(collateral_frac=0.5, closeout_frac=0.5).validate()


def test_boundary_check_capped_payoff():
    spec = MarketSpec(
        rate=0.03,
        collateral_rate_pos=0.02,
        collateral_rate_neg=0.02,
        funding_rate_pos=0.02,
        funding_rate_neg=0.02,
        hedge_rate_pos=0.03,
        hedge_rate_neg=0.03,
        collateral_frac=0.2,
        closeout_frac=1.0,
        lgd_counterparty=0.6,
        own_default_funding=False,
        payoff=capped_call(100.0, 30.0),
        defaults=DefaultSpec(
            investor=PartyDefault(0.1, GammaParams(1.0, 1.0)),
            counterparty=PartyDefault(0.2, GammaParams(1.0, 1.0)),
        ),
    )
    t_nodes = np.linspace(0.01, 1.0, 5)
    s_nodes = np.geomspace(50.0, 200.0, 7)
    v_nodes = np.array([0.01, 0.4])
    report = driver_boundary_check(spec, 0.0, 30.0, t_nodes, s_nodes, v_nodes)
    assert report["ok"]
    assert report["min_at_lower"] >= -1e-12
    assert report["max_at_upper"] <= 1e-12

    leaky = MarketSpec(
        rate=0.03,
        dividend=constant_dividend(-0.5),
        payoff=capped_call(100.0, 30.0),
    )
    bad = driver_boundary_check(leaky, 0.0, 30.0, t_nodes, s_nodes, v_nodes)
    assert not bad["ok"]
    assert bad["min_at_lower"] < 0.0


def test_discount_flow_property():
    rate = lambda t: 0.02 + 0.01 * t
    d1 = discount(rate, 0.2, 0.7)
    d2 = discount(rate, 0.7, 1.3)
    d3 = discount(rate, 0.2, 1.3)
    assert d1 * d2 == pytest.approx(d3, rel=1e-12)
    assert discount(rate, 1.0, 0.5) == 1.0
    assert discount(rate, 0.5, 0.5) == 1.0
    exact = math.exp(-(0.02 * 1.3 + 0.005 * 1.3**2))
    assert discount(rate, 0.0, 1.3) == pytest.approx(exact, rel=1e-12)


CONSTANT_RATES = (0.0, 0.01, 0.03, 0.05, -0.02, 0.25, 1, 0)
INTERVALS = ((0.0, 0.5), (0.0, 1.0), (0.2, 0.7), (0.25, 1.3), (1.0, 5.0), (0.0, 10.0))


@pytest.mark.parametrize("rate", CONSTANT_RATES)
def test_discount_of_a_constant_rate_is_the_closed_form(rate):
    for s, t in INTERVALS:
        got = discount(rate, s, t)
        assert got == math.exp(-rate * (t - s))
        val, _ = integrate.quad(as_time_fn(rate), s, t, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert abs(got - math.exp(-val)) <= 1e-15 * math.exp(-val)
        assert discount(rate, t, s) == 1.0
        assert discount(rate, s, s) == 1.0


def test_discount_nodes_matches_pointwise():
    rate = lambda t: 0.02 + 0.01 * t
    nodes = np.linspace(0.0, 2.0, 81)
    vals = discount_nodes(rate, nodes)
    # trapezoid is exact for a linear integrand
    for k in (0, 17, 80):
        assert vals[k] == pytest.approx(discount(rate, 0.0, nodes[k]), rel=1e-12)


def riskfree_spec(r):
    return MarketSpec(
        rate=r,
        collateral_rate_pos=r,
        collateral_rate_neg=r,
        funding_rate_pos=r,
        funding_rate_neg=r,
        hedge_rate_pos=r,
        hedge_rate_neg=r,
        hedge=zero_hedge,
    )


def stock_value_grid(x0, spread, value_fn):
    t_nodes = np.array([0.0, 0.25, 0.5])
    x_nodes = np.linspace(x0 - spread, x0 + spread, 161)
    v_nodes = np.array([0.0, 0.08])
    vals = np.empty((3, 161, 2))
    vals[:, :, :] = value_fn(x_nodes)[None, :, None]
    return GridFunction(t_nodes, x_nodes, v_nodes, vals)


def test_martingale_residual_discounted_stock():
    # u(t,x,v) = e^x and log-price drift r make D_t u a true martingale,
    # so every checkpoint increment must have mean zero
    r = 0.03
    model = measure_change(build_power_model(black_scholes_params()), r, 0.0)
    x0 = math.log(100.0)
    u = stock_value_grid(x0, 0.9, np.exp)
    grid = TimeGrid(0.0, 0.5, 50)
    (report,) = martingale_residual(
        riskfree_spec(r),
        model,
        [u],
        (x0, 0.04),
        checkpoints=[0.0, 0.1, 0.25, 0.5],
        n_paths=4000,
        seed=91,
        grid=grid,
    )
    assert report.n_paths == 4000
    assert report.coverage_fraction <= 1e-4
    assert len(report.means) == 3
    assert report.ok, f"max |z| = {report.max_abs_z}"


def test_martingale_residual_rejects_constant_candidate():
    # u == 1 is not the value of the stock payoff; the compensated process
    # drifts deterministically and must be flagged even with zero spread
    r = 0.03
    model = measure_change(build_power_model(black_scholes_params()), r, 0.0)
    x0 = math.log(100.0)
    u = stock_value_grid(x0, 0.9, lambda x: np.ones_like(x))
    (report,) = martingale_residual(
        riskfree_spec(r),
        model,
        [u],
        (x0, 0.04),
        checkpoints=[0.0, 0.25, 0.5],
        n_paths=500,
        seed=92,
        grid=TimeGrid(0.0, 0.5, 50),
    )
    assert not report.ok
    assert report.max_abs_z > 3.0


def test_martingale_residual_reports_each_field_as_its_own_call(monkeypatch):
    # one simulation serves every field, and each field's report is the one a
    # call with that field alone gives
    r = 0.03
    model = measure_change(build_power_model(black_scholes_params()), r, 0.0)
    x0 = math.log(100.0)
    fields = [stock_value_grid(x0, 0.9, np.exp), stock_value_grid(x0, 0.9, np.cos)]
    args = ((x0, 0.04), [0.0, 0.25, 0.5], 500, 94, TimeGrid(0.0, 0.5, 50))
    alone = [martingale_residual(riskfree_spec(r), model, [u], *args)[0] for u in fields]
    simulated = []
    simulate = valuation._path_chunks

    def counted(*a, **k):
        simulated.append(a)
        return simulate(*a, **k)

    monkeypatch.setattr(valuation, "_path_chunks", counted)
    together = martingale_residual(riskfree_spec(r), model, fields, *args)
    assert len(simulated) == 1 and len(together) == 2
    for got, want in zip(together, alone):
        for field in dataclasses.fields(want):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name))


def test_martingale_residual_matches_the_full_table_formula_bit_for_bit():
    # 2 * _CHUNK + 3 paths: the last chunk holds three rows.  V is a
    # Brownian motion and theta turns infinite above the fourth-highest
    # step-start level of V, so exactly three rows of X go non-finite and
    # the residual must drop the rows the full tables mark invalid.
    n_paths, seed = 2 * _CHUNK + 3, 13
    grid = TimeGrid(0.0, 0.5, 16)
    x0 = math.log(100.0)
    start = (x0, 0.04)
    walk = VolModel(
        drift_b=lambda t: 0.02,
        coefficients=lambda t, v, work=None: (0.2, 0.0, 0.3),
        correlation=lambda t: -0.5,
    )
    level = np.sort(simulate_paths(walk, start, grid, n_paths, seed).v[:, :-1].max(axis=1))[-4]
    model = dataclasses.replace(walk, coefficients=lambda t, v, work=None: (
        np.where(v > level, np.inf, 0.2), 0.0, 0.3))
    paths = simulate_paths(model, start, grid, n_paths, seed)
    assert paths.n_invalid == 3

    spec = MarketSpec(
        rate=0.03, funding_rate_pos=0.05, funding_rate_neg=0.02, collateral_frac=0.5,
        lgd_investor=0.6, lgd_counterparty=0.4,
        defaults=DefaultSpec(
            investor=PartyDefault(0.1, GammaParams(1.0, 1.0)),
            counterparty=PartyDefault(0.2, GammaParams(1.5, 1.0)),
        ),
    )
    t_nodes = np.array([0.0, 0.25, 0.5])
    x_nodes = np.linspace(x0 - 1.0, x0 + 1.0, 41)
    v_nodes = np.linspace(-0.5, 0.6, 9)  # a few of V's paths leave it
    tt, xx, vv = np.meshgrid(t_nodes, x_nodes, v_nodes, indexing="ij")
    fields = [GridFunction(t_nodes, x_nodes, v_nodes, np.cos(3.0 * xx) + vv * vv - tt),
              GridFunction(t_nodes, x_nodes, v_nodes, np.exp(xx - x0) * (1.0 + vv))]
    checkpoints = [0.125, 0.25, 0.5]
    got = martingale_residual(spec, model, fields, start, checkpoints, n_paths, seed, grid)

    x, v, nodes = paths.valid_x(), paths.valid_v(), grid.nodes
    n = x.shape[0]
    g_joint = survival_curve(spec.defaults, grid).joint
    disc = discount_nodes(spec.fn("rate"), nodes)
    rates = np.stack(_driver_rates(spec, nodes))
    idx = [4, 8, 16]
    for u, report in zip(fields, got, strict=True):
        m_at = np.empty((len(idx), n))
        integral = np.zeros(n)
        prev = None
        outside = 0
        for k, t in enumerate(nodes):
            u_k = np.asarray(u.evaluate_at_time(t, x[:, k], v[:, k]), dtype=float)
            outside += int(np.count_nonzero(u.outside(x[:, k], v[:, k])))
            state = (np.exp(x[:, k]), v[:, k], u_k)
            integrand = disc[k] * _a_increment(spec, g_joint[k], rates[:, k], t, state)
            if prev is not None:
                integral = integral + 0.5 * (prev + integrand) * grid.dt
            prev = integrand
            if k in idx:
                m_at[idx.index(k)] = disc[k] * u_k * g_joint[k] + integral
        dm = np.diff(m_at, axis=0)
        assert report.n_paths == n == n_paths - 3
        assert report.means.tobytes() == dm.mean(axis=1).tobytes()
        assert report.stderrs.tobytes() == (dm.std(axis=1, ddof=1) / math.sqrt(n)).tobytes()
        assert report.coverage_fraction == outside / (n * len(nodes))
    assert got[0].coverage_fraction > 0.0  # the hull is crossed, so the count is tested


def test_martingale_residual_holds_no_full_path_tables():
    # 3 * _CHUNK paths: two full (n_paths, 65) float tables would take
    # 12.8 MB; the residual keeps one chunk's tables (which hold its noise
    # too) and a few values per path at a time
    model = measure_change(build_power_model(black_scholes_params()), 0.03, 0.0)
    x0 = math.log(100.0)
    fields = [stock_value_grid(x0, 2.0, np.exp), stock_value_grid(x0, 2.0, np.cos)]
    n_paths = 3 * _CHUNK
    tracemalloc.start()
    try:
        martingale_residual(riskfree_spec(0.03), model, fields, (x0, 0.04),
                            [0.0, 0.125, 0.25, 0.5], n_paths, 95, TimeGrid(0.0, 0.5, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n_paths * 65 * 8, peak / (n_paths * 65 * 8)


def test_martingale_residual_of_verify_holds_less_than_its_full_tables():
    # verify's call on the book at seed 3: 8000 fresh paths, under two
    # chunks, of 65 nodes and two fields.  Two full (8000, 65) float tables
    # take 8.32 MB, so a chunk must hold its noise inside its own tables.
    # The peak comes from the path tables, so a cheap field on the pilot
    # hull's axes stands in for the solve: the paths stay inside that hull.
    cfg = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "book.json").read_text())
    cfg["mc"]["master_seed"] = 3
    setup = build_run(normalise_config(cfg))
    _, x_nodes, v_nodes = resolve_axes(setup)
    t_nodes = np.linspace(setup.t0, setup.t_end, 9)
    tt, xx, vv = np.meshgrid(t_nodes, x_nodes, v_nodes, indexing="ij")
    fields = [GridFunction(t_nodes, x_nodes, v_nodes, np.exp(xx) * (1.0 + vv) - tt),
              GridFunction(t_nodes, x_nodes, v_nodes, np.ones_like(xx))]
    n_paths = 8000
    tracemalloc.start()
    try:
        martingale_residual(setup.spec, setup.model_q, fields, (math.log(setup.s0), setup.v0),
                            t_nodes[1:], n_paths, setup.master_seed + 7919,
                            TimeGrid(setup.t0, setup.t_end, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n_paths * 65 * 8, peak / 1e6


def test_martingale_residual_enforces_the_invalid_path_budget():
    model = VolModel(
        drift_b=lambda t: 0.0,
        coefficients=lambda t, v, work=None: (1e200, 0.0, 0.0),
        correlation=lambda t: 0.0,
    )
    grid = TimeGrid(0.0, 1.0, 5)
    u = stock_value_grid(0.0, 0.9, np.exp)
    with pytest.raises(InvalidPathBudgetError) as sim:
        simulate_paths(model, (0.0, 0.04), grid, 100, master_seed=2)
    with pytest.raises(InvalidPathBudgetError) as mart:
        martingale_residual(riskfree_spec(0.0), model, [u], (0.0, 0.04), [0.0, 1.0], 100, 2, grid)
    assert (mart.value.n_invalid, mart.value.n_paths) == (sim.value.n_invalid, 100)


def test_martingale_residual_coverage_alarm():
    r = 0.03
    model = measure_change(build_power_model(black_scholes_params()), r, 0.0)
    x0 = math.log(100.0)
    u = stock_value_grid(x0, 0.001, np.exp)
    with pytest.raises(CoverageError, match="hull"):
        martingale_residual(
            riskfree_spec(r),
            model,
            [u],
            (x0, 0.04),
            checkpoints=[0.0, 0.5],
            n_paths=200,
            seed=93,
            grid=TimeGrid(0.0, 0.5, 25),
        )


def test_martingale_residual_checkpoint_must_hit_grid():
    r = 0.0
    model = measure_change(build_power_model(black_scholes_params()), r, 0.0)
    u = stock_value_grid(math.log(100.0), 0.9, np.exp)
    with pytest.raises(InvariantError, match="checkpoint"):
        martingale_residual(
            riskfree_spec(r),
            model,
            [u],
            (math.log(100.0), 0.04),
            checkpoints=[0.0, 0.333],
            n_paths=10,
            seed=1,
            grid=TimeGrid(0.0, 0.5, 50),
        )


@pytest.mark.parametrize("repeat", [0.25, 0.25 + 1e-10])
def test_martingale_residual_rejects_repeated_checkpoints(repeat):
    # a repeated checkpoint would leave its row of the checkpoint table, and
    # every row after it, unwritten
    r = 0.0
    model = measure_change(build_power_model(black_scholes_params()), r, 0.0)
    u = stock_value_grid(math.log(100.0), 0.9, np.exp)
    with pytest.raises(InvariantError, match=f"checkpoint {repeat} repeats grid node 0.25"):
        martingale_residual(
            riskfree_spec(r),
            model,
            [u],
            (math.log(100.0), 0.04),
            checkpoints=[0.125, 0.25, repeat, 0.5],
            n_paths=10,
            seed=1,
            grid=TimeGrid(0.0, 0.5, 40),
        )


def test_log_survival_slopes_match_curve():
    spec = MarketSpec(
        defaults=DefaultSpec(
            investor=PartyDefault(lambda t: 0.1 + 0.05 * t, GammaParams(2.0, 1.0)),
            counterparty=PartyDefault(0.2, GammaParams(1.0, 2.0)),
        )
    )
    grid = TimeGrid(0.0, 1.0, 2000)
    joint = survival_curve(spec.defaults, grid).joint
    dt = grid.dt
    for k in (500, 1000, 1500):
        t = grid.nodes[k]
        fd = (math.log(joint[k + 1]) - math.log(joint[k - 1])) / (2.0 * dt)
        g_i, g_c = spec.log_survival_slopes(t)
        assert g_i + g_c == pytest.approx(fd, rel=1e-3, abs=1e-5)
    g_i0, g_c0 = spec.log_survival_slopes(0.0)
    assert g_c0 == pytest.approx(-0.2 * 2.0, rel=1e-12)  # exponential clock rate


def test_slopes_are_nonpositive_and_repeatable():
    spec = MarketSpec(
        defaults=DefaultSpec(
            investor=PartyDefault(0.3, GammaParams(1.5, 1.0)),
            counterparty=PartyDefault(0.1, GammaParams(1.0, 1.0)),
        )
    )
    g = spec.log_survival_slopes(0.7)
    assert g[0] <= 0.0 and g[1] <= 0.0
    assert spec.log_survival_slopes(0.7) == spec.log_survival_slopes(0.7)


def test_slopes_follow_replaced_default_clocks():
    def clocks(lam_i, lam_c):
        return DefaultSpec(
            investor=PartyDefault(lam_i, GammaParams(1.0, 1.0)),
            counterparty=PartyDefault(lam_c, GammaParams(1.0, 1.0)),
        )

    spec = MarketSpec(defaults=clocks(0.1, 0.2))
    other = clocks(0.5, lambda t: 0.9 + 0.0 * t)
    assert spec.log_survival_slopes(0.5) == pytest.approx((-0.1, -0.2), rel=1e-12)
    want = MarketSpec(defaults=other).log_survival_slopes(0.5)
    assert want == pytest.approx((-0.5, -0.9), rel=1e-12)
    assert dataclasses.replace(spec, defaults=other).log_survival_slopes(0.5) == want
    spec.defaults = other
    assert spec.log_survival_slopes(0.5) == want


def test_a_increment_without_defaults_is_driver_plus_rate_term():
    spec = riskfree_spec(0.05)
    terms = _driver_rates(spec, 0.3)  # joint survival 1 below: no party defaults
    got = _a_increment(spec, 1.0, terms, 0.3, (80.0, 0.1, 2.0))
    want = driver(spec, 0.3, 80.0, 0.1, 2.0) + 0.05 * 2.0
    assert got == pytest.approx(want, abs=1e-14)
    arr = _a_increment(spec, 1.0, terms, 0.3, (np.full(4, 80.0), np.full(4, 0.1), np.arange(4.0)))
    assert arr.shape == (4,)


def time_table_spec(name):
    """Specs whose time terms the array route must reproduce bit for bit."""
    xva = MarketSpec(  # the acceptance fixture: linear counterparty intensity
        rate=0.03,
        collateral_rate_pos=0.035, collateral_rate_neg=0.025,
        funding_rate_pos=0.05, funding_rate_neg=0.02,
        hedge_rate_pos=0.03, hedge_rate_neg=0.03,
        collateral_frac=0.5, closeout_frac=1.0,
        lgd_investor=0.6, lgd_counterparty=0.4,
        defaults=DefaultSpec(
            investor=PartyDefault(0.10, GammaParams(1.0, 1.0)),
            counterparty=PartyDefault(lambda t: 0.15 + 0.1 * t, GammaParams(1.5, 1.0)),
        ),
    )
    if name == "xva_fixture":
        return xva
    if name == "config_book":  # piecewise counterparty intensity, break at 0.25
        cfg = {
            "model": {"preset": "heston", "s0": 100.0, "v0": 0.04, "k": 0.05,
                      "l0": 1.0, "lam": 0.3, "rho": -0.5, "drift_b": 0.02},
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
                    "intensity": {"kind": "piecewise_constant", "times": [0.25],
                                  "values": [0.15, 0.2]},
                    "threshold": {"shape": 1.5, "rate": 1.0},
                },
            },
            "grid": {"t0": 0.0, "T": 0.5, "n_steps": 32, "nt": 5, "nx": 9, "nv": 5},
            "mc": {"n_paths": 3000, "master_seed": 7},
            "solver": {"max_iter": 12, "tol": 0.001},
        }
        return build_run(normalise_config(cfg)).spec
    if name == "hedged":
        return dataclasses.replace(
            xva, rate=lambda t: 0.03 + 0.01 * t,
            hedge=proportional_hedge(0.5), hedge_lipschitz=0.5,
            hedge_rate_pos=0.04, hedge_rate_neg=0.02, own_default_funding=False,
            collateral_frac=0.3, closeout_frac=0.8,
        )
    return dataclasses.replace(xva, defaults=None)


@pytest.mark.parametrize("name", ["xva_fixture", "config_book", "hedged", "no_defaults"])
def test_time_terms_on_arrays_match_scalar_calls(name):
    spec = time_table_spec(name)
    # 33 master nodes of [0, 0.5] (0.25 is node 16), times before t0 and past T
    times = np.concatenate(([-0.1, 0.0], np.linspace(0.0, 0.5, 33), [0.7]))
    want = np.array([_driver_rates(spec, float(t)) for t in times]).T
    assert np.array(_driver_rates(spec, times)).tobytes() == want.tobytes()
    lips = np.array([driver_lipschitz(spec, float(t)) for t in times])
    assert driver_lipschitz(spec, times).tobytes() == lips.tobytes()
    slopes = np.array([spec.log_survival_slopes(float(t)) for t in times]).T
    assert np.array(spec.log_survival_slopes(times)).tobytes() == slopes.tobytes()
    g_i, g_c = spec.log_survival_slopes(times.reshape(4, 9))
    assert g_i.shape == (4, 9) and g_c.tobytes() == slopes[1].tobytes()
    assert type(driver_lipschitz(spec, 0.3)) is float
    assert all(type(g) is float for g in spec.log_survival_slopes(0.3))
    assert type(driver(spec, 0.3, 80.0, 0.1, 2.0)) is float
    # against the 1-D trapezoids the array routes replace: one per time for
    # the cumulative intensities, one per interval for the slab budgets
    if spec.defaults is not None:
        for party, got in zip((spec.defaults.investor, spec.defaults.counterparty),
                              spec.log_survival_slopes(times)):
            cum = np.zeros(times.shape)
            for j, t in enumerate(times):
                if t > spec.t0:
                    ts = np.linspace(spec.t0, t, 513)
                    cum[j] = np.trapezoid(on_times(party.intensity, ts), ts)
            want = -on_times(party.intensity, times) * gamma_hazard_factor(party.threshold, cum)
            assert got.tobytes() == want.tobytes()
    for t_nodes in (np.linspace(0.0, 0.5, 33), np.array([0.0, 0.1, 0.25, 0.3, 0.5])):
        budgets = []
        for lo, hi in zip(t_nodes[:-1], t_nodes[1:]):
            ts = np.linspace(lo, hi, 33)
            budgets.append(float(np.trapezoid(driver_lipschitz(spec, ts), ts)))
        assert _interval_budgets(spec, t_nodes) == budgets


def collected_driver(spec, terms, t, s, v, y):
    """The driver as one expression, the form the buffered route must match."""
    s_arr = np.asarray(s, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    yp = np.maximum(y_arr, 0.0)
    ym = np.maximum(-y_arr, 0.0)
    a, b, k_pos, k_neg, hedge_pos, hedge_neg, g_i, g_c, _ = terms
    own = 1.0 if spec.own_default_funding else 0.0
    hedge = np.asarray(spec.hedge(t, s_arr, v, y_arr), dtype=float)
    hp = np.maximum(hedge, 0.0)
    hm = np.maximum(-hedge, 0.0)
    out = (
        np.asarray(spec.dividend(t, s_arr, v), dtype=float)
        - k_pos * yp
        + k_neg * ym
        - hedge_pos * hp
        + hedge_neg * hm
        + g_i * ((1.0 - b) * y_arr - spec.lgd_investor * ((b - a) * ym + (1.0 - a) * yp) * own)
        + g_c * ((1.0 - b) * y_arr + spec.lgd_counterparty * (b - a) * yp)
    )
    return out if out.shape else float(out)


def driver_spec(name):
    xva = time_table_spec("xva_fixture")
    if name == "hedged":
        return dataclasses.replace(
            xva, hedge=proportional_hedge(-0.7), hedge_lipschitz=0.7,
            hedge_rate_pos=0.04, hedge_rate_neg=0.02, collateral_frac=0.3, closeout_frac=0.7,
        )
    if name == "no_own_funding":
        return dataclasses.replace(xva, own_default_funding=False, collateral_frac=0.35,
                                   closeout_frac=0.9)
    if name == "dividend":
        return dataclasses.replace(xva, dividend=constant_dividend(0.7))
    return xva


DRIVER_BOUND = 1e-15  # the two-slope sum against the collected formula; 4.4e-16 seen


@pytest.mark.parametrize("name", ["xva_fixture", "hedged", "no_own_funding", "dividend"])
def test_driver_matches_collected_formula_within_bound(name):
    spec = driver_spec(name)
    rng = np.random.default_rng(4)
    s = np.exp(rng.normal(4.6, 0.3, 64))
    v = rng.uniform(-0.01, 0.3, 64)
    y = np.concatenate([rng.normal(0.0, 5.0, 58), [0.0, -0.0, 1.0, -1.0, 1e-300, -30.0]])
    times = np.linspace(0.0, 0.5, 5)
    table = np.stack(_driver_rates(spec, times))  # the sweep reads rows of this
    for k, t in enumerate(times):
        for terms in (_driver_rates(spec, t), table[:, k]):
            want = collected_driver(spec, terms, t, s, v, y)
            got = _driver_at(spec, terms, t, s, v, y)
            assert got.shape == (64,) and np.max(np.abs(got - want)) <= DRIVER_BOUND
            want = collected_driver(spec, terms, t, s[:, None], v[:, None], y[None, :8])
            got = _driver_at(spec, terms, t, s[:, None], v[:, None], y[None, :8])
            assert got.shape == (64, 8) and np.max(np.abs(got - want)) <= DRIVER_BOUND
        terms = _driver_rates(spec, t)
        want = collected_driver(spec, terms, t, s, v, y)
        assert np.max(np.abs(driver(spec, t, s, v, y) - want)) <= DRIVER_BOUND
        for yi in (0.0, -0.0, 2.5, -2.5):
            got = driver(spec, t, 90.0, 0.04, yi)
            want = collected_driver(spec, terms, t, 90.0, 0.04, yi)
            assert type(got) is float and abs(got - want) <= DRIVER_BOUND


@pytest.mark.parametrize("name", ["xva_fixture", "hedged", "no_own_funding", "dividend",
                                  "state_shaped"])
def test_driver_into_buffers_is_bit_equal_to_the_allocating_call(name):
    # xva_fixture has a scalar base; state_shaped a state-shaped hedge and dividend
    spec = state_shaped(driver_spec("hedged")) if name == "state_shaped" else driver_spec(name)
    rng = np.random.default_rng(6)
    s = np.exp(rng.normal(4.6, 0.3, (5, 1, 64)))
    v = rng.uniform(-0.01, 0.3, (3, 64))
    y = rng.normal(0.0, 5.0, (5, 3, 64))
    y[0, 0, :4] = [0.0, -0.0, 1.0, -1.0]
    terms = _driver_rates(spec, 0.3)
    for args in ((s, v, y), (s, v, 2.5)):
        want = _driver_at(spec, terms, 0.3, *args)
        out, work = np.full(want.shape, np.nan), np.full(want.shape, np.nan)
        got = _driver_at(spec, terms, 0.3, *args, out=out, work=work)
        assert got is out and got.shape == want.shape and got.tobytes() == want.tobytes()
    # as the sweep calls it: the result over the price, the work over the value
    s_full = np.ascontiguousarray(np.broadcast_to(s, y.shape))
    want = _driver_at(spec, terms, 0.3, s_full, v, y)
    s_buf, y_buf = s_full.copy(), y.copy()
    got = _driver_at(spec, terms, 0.3, s_buf, v, y_buf, out=s_buf, work=y_buf)
    assert got is s_buf and got.tobytes() == want.tobytes()


def state_shaped(spec):
    """The spec with its dividend and hedge returning full arrays of the state's shape."""
    dividend, hedge = spec.dividend, spec.hedge
    return dataclasses.replace(
        spec,
        dividend=lambda t, s, v: np.full_like(np.asarray(s, dtype=float), dividend(t, s, v)),
        hedge=lambda t, s, v, y: np.full_like(np.asarray(y, dtype=float), hedge(t, s, v, y)),
    )


DIVIDEND_CFGS = {
    "zero": {"kind": "zero"},
    "constant": {"kind": "constant", "value": -0.25},
    "piecewise_constant": {"kind": "piecewise_constant", "times": [0.25], "values": [0.0, 0.01]},
}


@pytest.mark.parametrize("kind", sorted(DIVIDEND_CFGS))
def test_builtin_dividends_and_zero_hedge_are_scalars_the_driver_reads_bit_for_bit(kind):
    dividend = _DIVIDENDS[kind].build(DIVIDEND_CFGS[kind])
    hedge, _ = _HEDGES["zero"].build({"kind": "zero"})
    spec = dataclasses.replace(time_table_spec("xva_fixture"), dividend=dividend, hedge=hedge)
    full = state_shaped(spec)
    rng = np.random.default_rng(7)
    s = np.exp(rng.normal(4.6, 0.3, (6, 64)))
    v = rng.uniform(-0.01, 0.3, (1, 64))
    y = rng.normal(0.0, 5.0, (6, 64))
    y[0, :4] = [0.0, -0.0, 1.0, -1.0]
    for t in (0.0, 0.1, 0.25, 0.4):
        assert np.ndim(dividend(t, s, v)) == 0 and np.ndim(hedge(t, s, v, y)) == 0
        terms = _driver_rates(spec, t)
        # the result takes its shape from s and y, not from the scalar terms
        for args in ((s, v, y), (s, v, 1.5), (s[:, :1], v, y[0]), (90.0, 0.04, -2.5)):
            got = _driver_at(spec, terms, t, *args)
            want = _driver_at(full, terms, t, *args)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_driver_rejects_each_bad_price_in_scalars_and_arrays(bad):
    # driver and the A density check the price; the sweep checks its shift
    # plane instead (test_sweep_price_check_on_the_shift_plane_...)
    spec = driver_spec("hedged")
    terms = _driver_rates(spec, 0.1)
    grid = np.full((2, 3), 100.0)
    grid[1, 2] = bad
    for s in (bad, np.array(bad), np.array([90.0, bad, 110.0]), grid):
        with pytest.raises(DomainError) as err:
            _a_increment(spec, 0.9, terms, 0.1, (s, 0.04, np.ones((2, 3))))
        assert str(err.value) == "price s must be positive and finite"
        with pytest.raises(DomainError, match="price s must be positive and finite"):
            driver(spec, 0.1, s, 0.04, 1.0)


LOG_MAX = math.log(np.finfo(float).max)  # 709.78: exp overflows above
LOG_ZERO = -745.1332191019412  # exp rounds to zero near here


def block_price_verdict(x_rows, d):
    """The check the sweep made before: every row's price exp(x + d), formed over the block."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        s = np.exp(x_rows[:, None, None] + d)
    return bool(s.min() > 0.0 and s.max() < math.inf)


def plane_price_verdict(x_rows, d):
    try:
        mildsolver._check_shift_prices(x_rows.min(), x_rows.max(), d)
    except DomainError as err:
        assert str(err) == "price s must be positive and finite"
        return False
    return True


def test_sweep_price_check_on_the_shift_plane_gives_the_block_verdict():
    rng = np.random.default_rng(11)
    x_rows = np.linspace(3.9, 5.3, 7)
    planes = []
    for edge, row in ((LOG_MAX, x_rows[-1]), (LOG_MAX, x_rows[0]), (LOG_ZERO, x_rows[0]),
                      (LOG_ZERO, x_rows[-1])):
        shift = edge - row
        for k in range(-40, 41):  # shifts a few ulps either side of each edge
            d = rng.normal(0.0, 0.3, (3, 16))
            d[rng.integers(3), rng.integers(16)] = shift + k * 2.0 * np.spacing(shift)
            planes.append(d)
    for bad in (math.nan, math.inf, -math.inf, 800.0, -800.0, 700.0, -700.0):
        d = rng.normal(0.0, 0.3, (3, 16))
        d[1, 5] = bad
        planes.append(d)
    verdicts = [block_price_verdict(x_rows, d) for d in planes]
    assert True in verdicts and False in verdicts
    for d, want in zip(planes, verdicts):
        assert plane_price_verdict(x_rows, d) == want
        assert plane_price_verdict(x_rows[2:3], d) == block_price_verdict(x_rows[2:3], d)


def six_pass_driver(spec, terms, t, s, v, y):
    """The driver as the sweep formed it before the max/min form:
    (base + y+ m+) + y- m-, in six passes over the state."""
    s_arr, y_arr = np.asarray(s, dtype=float), np.asarray(y, dtype=float)
    m_pos, m_neg = _driver_slopes(spec, terms)
    hedge = np.asarray(spec.hedge(t, s_arr, v, y_arr), dtype=float)
    dividend = np.asarray(spec.dividend(t, s_arr, v), dtype=float)
    base = dividend - np.maximum(hedge, 0.0) * terms[4] - np.minimum(hedge, 0.0) * terms[5]
    shape = np.broadcast_shapes(s_arr.shape, y_arr.shape, np.shape(base), *map(np.shape, terms))
    out, work = np.empty(shape), np.empty(shape)
    np.multiply(np.minimum(y_arr, 0.0, out=out), -m_neg, out=out)
    np.add(base, np.multiply(np.maximum(y_arr, 0.0, out=work), m_pos, out=work), out=work)
    np.add(work, out, out=out)
    return out if out.shape else float(out)


def book_spec(**market):
    cfg = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "book.json").read_text())
    cfg["market"].update(market)
    return build_run(normalise_config(cfg)).spec


def mixed_spec():
    """A driver convex in y before t = 0.2 and concave after."""
    return MarketSpec(funding_rate_pos=lambda t: 0.02 + 0.1 * np.asarray(t),
                      funding_rate_neg=0.04, payoff=capped_call(100.0, 30.0))


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", ["book", "concave", "fixture", "fixture_dividend", "hedged",
                                  "mixed"])
@pytest.mark.parametrize("state", [False, True], ids=["scalar-hedge", "state-shaped"])
def test_driver_branches_are_bit_equal_to_the_six_pass_formula(name, state):
    spec = {
        "book": lambda: book_spec(),
        "concave": lambda: book_spec(lgd_investor=0),
        "fixture": lambda: time_table_spec("xva_fixture"),  # a zero base
        "fixture_dividend": lambda: driver_spec("dividend"),
        "hedged": lambda: driver_spec("hedged"),
        "mixed": mixed_spec,
    }[name]()
    spec = state_shaped(spec) if state else spec
    times = np.linspace(0.0, 0.5, 6)
    m_pos, m_neg = _driver_slopes(spec, _driver_rates(spec, times))
    curvature = m_pos + m_neg  # > 0: convex in y; < 0: concave
    if name == "concave":
        assert np.all(curvature < 0.0)
    elif name == "mixed":
        assert np.any(curvature > 0.0) and np.any(curvature < 0.0)
    else:
        assert np.all(curvature > 0.0)
    rng = np.random.default_rng(9)
    s = np.exp(rng.normal(4.6, 0.3, (4, 3, 6)))
    v = rng.uniform(-0.01, 0.3, (3, 6))
    y = rng.normal(0.0, 5.0, (4, 3, 6))
    y[0, 0] = [0.0, -0.0, math.nan, 1e-300, -1e-300, -30.0]
    y[1, 0] = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0]
    y_pos = np.abs(y)
    y_pos[1, 0] = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0]  # gathers of a non-negative iterate
    calls = [(_driver_rates(spec, t), t, s[..., k], v[..., k], y[..., k], y_pos[..., k])
             for k, t in enumerate(times)]
    for terms, t, s_k, v_k, y_k, pos_k in calls:
        for yy, nonneg in ((y_k, False), (pos_k, False), (pos_k, True)):
            want = bits(six_pass_driver(spec, terms, t, s_k, v_k, yy))
            assert np.array_equal(bits(_driver_at(spec, terms, t, s_k, v_k, yy, y_nonneg=nonneg)),
                                  want)
            # as the sweep calls it: the result over the price, the work over the value
            s_buf, y_buf = s_k.copy(), yy.copy()
            got = _driver_at(spec, terms, t, s_buf, v_k, y_buf, out=s_buf, work=y_buf,
                             y_nonneg=nonneg)
            assert got is s_buf and np.array_equal(bits(got), want)
        for y_scalar in (2.5, -2.5, 0.0, -0.0, math.nan):
            got = _driver_at(spec, terms, t, 90.0, 0.04, y_scalar)
            assert type(got) is float
            assert bits(got) == bits(six_pass_driver(spec, terms, t, 90.0, 0.04, y_scalar))
            got = _driver_at(spec, terms, t, s_k, v_k, y_scalar)
            assert np.array_equal(bits(got), bits(six_pass_driver(spec, terms, t, s_k, v_k,
                                                                  y_scalar)))


@pytest.mark.parametrize("name", ["book", "mixed"])
def test_driver_refuses_terms_over_several_times(name):
    # one comparison of the slopes picks the branch, so the terms must be of one time
    spec = {"book": book_spec, "mixed": mixed_spec}[name]()
    times = np.linspace(0.0, 0.5, 6)
    terms = _driver_rates(spec, times)
    s, v, y = np.full(6, 90.0), np.full(6, 0.04), np.linspace(-2.0, 2.0, 6)
    for nonneg in (False, True):
        with pytest.raises(InvariantError, match="one time"):
            _driver_at(spec, terms, times, s, v, np.abs(y) if nonneg else y, y_nonneg=nonneg)
    with pytest.raises(InvariantError, match="one time"):  # two columns of the sweep's table
        _driver_at(spec, np.stack(terms)[:, 1:3], times[1:3], s[:2], v[:2], y[:2])


def test_fixture_driver_slopes_on_the_master_nodes():
    spec = time_table_spec("xva_fixture")
    m_pos, m_neg = _driver_slopes(spec, _driver_rates(spec, np.linspace(0.0, 0.5, 33)))
    assert m_pos.shape == m_neg.shape == (33,)
    assert np.all((m_pos >= -0.025) & (m_pos <= -0.0125))
    assert m_neg == pytest.approx(np.full(33, 0.0525), abs=1e-15)


def test_exploding_paths_raise_as_before_through_the_gather(monkeypatch):
    # the variance blows up, then the price: the gather sees inf and NaN
    # states before the driver rejects the price
    model = build_power_model(PowerParams(lam=[20.0], beta=[2.0], theta0=0.2, theta1=0.0))
    spec = MarketSpec(rate=0.03, collateral_rate_pos=0.05, payoff=capped_call(100.0, 30.0))
    x0 = math.log(100.0)
    t, x, v = np.array([0.0, 0.5, 1.0]), np.array([x0 - 0.5, x0, x0 + 0.5]), np.array([0.5, 1.0])
    u_prev = GridFunction(t, x, v, np.ones((3, 3, 2)))
    seen = []
    gather = GridFunction.evaluate_at_time

    def spy(self, tt, xq, vq, rows=None, out=None):
        seen.append(bool(np.all(np.isfinite(xq)) and np.all(np.isfinite(vq))))
        return gather(self, tt, xq, vq, rows=rows, out=out)

    monkeypatch.setattr(GridFunction, "evaluate_at_time", spy)
    mc = McConfig(n_paths=256, n_steps=16, master_seed=3)
    with np.errstate(all="ignore"), pytest.raises(DomainError) as err:
        apply_mild_map(spec, model, u_prev, t, x, v, mc)
    assert str(err.value) == "price s must be positive and finite"
    assert not all(seen)
