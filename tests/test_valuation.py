import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from xvamild.config import build_run, normalise_config
from xvamild.defaultclock import DefaultSpec, PartyDefault, survival_curve
from xvamild.gridfn import CoverageError, GridFunction
from xvamild.simulate import TimeGrid
from xvamild.special import (
    DomainError,
    GammaParams,
    gamma_hazard_factor,
    gamma_survival,
)
from xvamild.valuation import (
    MarketSpec,
    _driver_rates,
    a_process_increment,
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
    black_scholes_params,
    build_power_model,
    measure_change,
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

    pi = float(np.asarray(spec.dividend(t, np.array([s]), np.array([v])))[0])
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
            fn = party.intensity_fn()
            cum, _ = integrate.quad(fn, 0.0, t, epsabs=1e-13, epsrel=1e-13)
            g = gamma_survival(party.threshold, cum)
            surv.append(g)
            slopes.append(-float(fn(t)) * gamma_hazard_factor(party.threshold, cum))
        joint = surv[0] * surv[1]
        b_hat = ledger_rate(spec, t, s, v, y, slopes[0], slopes[1])
        r = float(spec.fn("rate")(t))
        expected = joint * (b_hat + (r - slopes[0] - slopes[1]) * y)
        # equivalently b0*G - bi*G_C*Gdot_I - bc*G_I*Gdot_C after expansion

        got = a_process_increment(spec, curve, t, (s, v, y))
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
    report = martingale_residual(
        riskfree_spec(r),
        model,
        u,
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
    report = martingale_residual(
        riskfree_spec(r),
        model,
        u,
        (x0, 0.04),
        checkpoints=[0.0, 0.25, 0.5],
        n_paths=500,
        seed=92,
        grid=TimeGrid(0.0, 0.5, 50),
    )
    assert not report.ok
    assert report.max_abs_z > 3.0


def test_martingale_residual_coverage_alarm():
    r = 0.03
    model = measure_change(build_power_model(black_scholes_params()), r, 0.0)
    x0 = math.log(100.0)
    u = stock_value_grid(x0, 0.001, np.exp)
    with pytest.raises(CoverageError, match="hull"):
        martingale_residual(
            riskfree_spec(r),
            model,
            u,
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
            u,
            (math.log(100.0), 0.04),
            checkpoints=[0.0, 0.333],
            n_paths=10,
            seed=1,
            grid=TimeGrid(0.0, 0.5, 50),
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
    grid = TimeGrid(0.0, 1.0, 10)

    class Ones:
        def joint_at(self, t):
            return 1.0

    got = a_process_increment(spec, Ones(), 0.3, (80.0, 0.1, 2.0))
    want = driver(spec, 0.3, 80.0, 0.1, 2.0) + 0.05 * 2.0
    assert got == pytest.approx(want, abs=1e-14)
    arr = a_process_increment(
        spec, Ones(), 0.3, (np.full(4, 80.0), np.full(4, 0.1), np.arange(4.0))
    )
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
