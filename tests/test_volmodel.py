import math

import numpy as np
import pytest

from xvamild.config import _timefn_build, _timefn_cfg
from xvamild.volmodel import (
    InvariantError,
    PowerParams,
    as_time_fn,
    black_scholes_params,
    build_power_model,
    check_positivity,
    garch_params,
    heston_params,
    measure_change,
    on_times,
)


def test_black_scholes_coefficients():
    model = build_power_model(black_scholes_params(drift_b=0.01))
    v = np.array([0.02, 0.04, 0.09])
    assert np.allclose(model.vol_of_price(0.3, v), np.sqrt(v))
    assert np.allclose(model.drift_v(0.3, v), 0.0)
    assert np.allclose(model.vol_of_v(0.3, v), 0.0)
    assert model.drift_b(0.7) == 0.01
    assert model.theta_vanishes_at_zero


def test_heston_coefficients():
    model = build_power_model(heston_params(k=0.08, l0=2.0, lam=0.3, rho=-0.5))
    v = np.array([0.01, 0.04, 0.25])
    assert np.allclose(model.drift_v(0.0, v), 0.08 - 2.0 * v)
    assert np.allclose(model.vol_of_v(0.0, v), 0.3 * np.sqrt(v))
    assert model.correlation(0.2) == -0.5


def test_coefficient_extension_below_zero():
    # zeta clamps at v = 0; eta and theta are radial, so negative v is
    # handled without truncating the state.
    model = build_power_model(heston_params(k=0.08, l0=2.0, lam=0.3))
    assert model.drift_v(0.0, -0.5) == pytest.approx(0.08)
    assert model.vol_of_v(0.0, -0.04) == pytest.approx(0.3 * 0.2)
    assert model.vol_of_price(0.0, -0.04) == pytest.approx(0.2)
    # hat-evaluation clamps instead
    assert model.vol_of_v(0.0, np.maximum(-0.04, 0.0)) == pytest.approx(0.0)
    assert model.vol_of_price(0.0, np.maximum(-0.04, 0.0)) == pytest.approx(0.0)


def test_time_dependent_coefficients():
    params = PowerParams(k=lambda t: 0.1 + 0.05 * t, l0=1.0, lam=(0.2,), beta=(0.5,))
    model = build_power_model(params)
    assert model.drift_v(0.5, 0.0) == pytest.approx(0.125)


def test_invariant_violations_name_the_condition():
    with pytest.raises(InvariantError, match="k must"):
        build_power_model(PowerParams(k=-0.1))
    with pytest.raises(InvariantError, match="l0 must"):
        build_power_model(PowerParams(l0=-1.0))
    with pytest.raises(InvariantError, match=r"alpha\[0\]"):
        build_power_model(PowerParams(l=(-1.0,), alpha=(0.5,)))
    with pytest.raises(InvariantError, match=r"beta\[0\]"):
        build_power_model(PowerParams(lam=(0.1,), beta=(0.3,)))
    with pytest.raises(InvariantError, match=r"l\[0\]"):
        build_power_model(PowerParams(l=(0.2,), alpha=(2.0,)))
    with pytest.raises(InvariantError, match="rho"):
        build_power_model(PowerParams(rho=1.0))
    with pytest.raises(InvariantError, match="equal length"):
        build_power_model(PowerParams(lam=(0.1,)))


def test_positivity_square_root_regime():
    ok = check_positivity(heston_params(k=0.08, l0=2.0, lam=0.3))
    assert ok.holds and ok.gamma_star == 0.5
    assert ok.lhs == pytest.approx(0.045)
    bad = check_positivity(heston_params(k=0.01, l0=2.0, lam=0.3))
    assert not bad.holds


def test_positivity_intermediate_regime():
    # gamma* in (1/2, 1): delta scan bottoms out at 1e-3.
    rep = check_positivity(PowerParams(k=0.001, lam=(1.0,), beta=(0.75,)))
    assert rep.gamma_star == 0.75
    assert rep.holds  # 1.0^2 * 1e-3 <= 0.001
    rep2 = check_positivity(PowerParams(k=0.0005, lam=(1.0,), beta=(0.75,)))
    assert not rep2.holds


def test_positivity_linear_regime_and_no_noise():
    assert check_positivity(garch_params(k=0.0, l0=1.0, lam=5.0)).holds
    assert check_positivity(black_scholes_params()).holds


def test_one_sided_lipschitz_of_power_drift():
    # sgn(v - w) (zeta(t, v) - zeta(t, w)) <= -l0 |v - w| on positive pairs.
    params = PowerParams(k=0.05, l0=1.5, l=(-0.4,), alpha=(2.0,),
                         lam=(0.2,), beta=(0.5,))
    model = build_power_model(params)
    rng = np.random.default_rng(11)
    v = rng.uniform(0.0, 3.0, size=400)
    w = rng.uniform(0.0, 3.0, size=400)
    for t in (0.0, 0.4, 1.0):
        lhs = np.sign(v - w) * (model.drift_v(t, v) - model.drift_v(t, w))
        assert np.all(lhs <= -1.5 * np.abs(v - w) + 1e-12)


def test_theta_sublinear_growth():
    model = build_power_model(PowerParams(theta0=0.1, theta1=0.8))
    k_fn, lam_fn = model.theta_envelope
    v = np.linspace(0.0, 9.0, 200)
    theta = model.vol_of_price(0.5, v)
    assert np.all(np.abs(theta) <= k_fn(0.5) + lam_fn(0.5) * np.sqrt(v) + 1e-12)


def test_measure_change_replaces_drift_only():
    model = build_power_model(heston_params(k=0.08, l0=2.0, lam=0.3, rho=-0.3))
    changed = measure_change(model, rate=0.04, gamma=0.0)
    v = np.array([0.01, 0.04, 0.16])
    assert changed.drift_b(0.5) == 0.04
    assert np.allclose(changed.drift_v(0.2, v), model.drift_v(0.2, v))
    assert np.allclose(changed.vol_of_v(0.2, v), model.vol_of_v(0.2, v))
    assert np.allclose(changed.vol_of_price(0.2, v), model.vol_of_price(0.2, v))
    assert changed.correlation(0.2) == model.correlation(0.2)


def test_measure_change_premium_term():
    # Heston with premium gamma: zeta_Q = k - l0 v - gamma * lam sqrt(v) * sqrt(v)
    model = build_power_model(heston_params(k=0.08, l0=2.0, lam=0.3))
    changed = measure_change(model, rate=0.02, gamma=0.5)
    v = np.linspace(0.0, 0.5, 101)
    expect = 0.08 - 2.0 * v - 0.5 * 0.3 * v
    assert np.allclose(changed.drift_v(0.3, v), expect, atol=1e-14)
    # negative v: hat-evaluation kills the premium term, zeta clamps to k
    assert changed.drift_v(0.3, -1.0) == pytest.approx(0.08)


def test_measure_change_idempotent_on_rate():
    model = build_power_model(heston_params(k=0.08, l0=2.0, lam=0.3))
    once = measure_change(model, rate=0.04, gamma=0.0)
    twice = measure_change(once, rate=0.04, gamma=0.0)
    v = np.linspace(-0.1, 0.5, 61)
    assert twice.drift_b(0.1) == once.drift_b(0.1)
    assert np.allclose(twice.drift_v(0.7, v), once.drift_v(0.7, v))


def test_measure_change_requires_flags():
    model = build_power_model(PowerParams(theta0=0.2, theta1=1.0,
                                          lam=(0.3,), beta=(0.5,), k=0.08))
    assert not model.theta_vanishes_at_zero
    with pytest.raises(InvariantError, match="theta_vanishes_at_zero"):
        measure_change(model, rate=0.02, gamma=0.5)
    # gamma == 0 never needs the flags
    measure_change(model, rate=0.02, gamma=0.0)


def test_drift_envelope_dropped_under_premium():
    model = build_power_model(heston_params(k=0.08, l0=2.0, lam=0.3))
    assert measure_change(model, 0.02, 0.5).drift_envelope is None
    assert measure_change(model, 0.02, 0.0).drift_envelope is not None


# -- the time-function contract ------------------------------------------------


_PIECEWISE = _timefn_build(_timefn_cfg(
    # one breakpoint exactly on a node, one outside the window
    {"kind": "piecewise_constant", "times": [0.25, 2.0], "values": [0.1, 0.3, 0.7]}, "rate",
))


@pytest.mark.parametrize(
    "value",
    [0.03, _PIECEWISE, lambda t: 0.02 + 0.01 * t, lambda t: 0.03],
    ids=["constant", "piecewise", "vectorised", "scalar_return"],
)
@pytest.mark.parametrize("shape", [(9,), (3, 3)])
def test_on_times_matches_pointwise_evaluation(value, shape):
    nodes = np.linspace(0.0, 1.0, 9).reshape(shape)
    fn = as_time_fn(value)
    want = np.array([float(fn(t)) for t in nodes.ravel()]).reshape(shape)
    got = on_times(value, nodes)
    assert got.shape == shape and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
