import math

import numpy as np
import pytest

from xvamild import defaultclock
from xvamild.defaultclock import (
    DefaultSpec,
    PartyDefault,
    cumulative_intensity,
    default_density,
    empirical_survival,
    hazard_curve,
    identity_gaps,
    no_default_party,
    sample_default_times,
    survival_curve,
)
from xvamild.simulate import TimeGrid, simulate_paths
from xvamild.special import GammaParams, SingularInputError, gamma_hazard_factor, gamma_survival
from xvamild.volmodel import InvariantError, build_power_model, heston_params, on_times

# Frozen: Q(2, 2) for the lambda(t) = t, shape 2, rate 1 case at t = 2.
Q_2_2 = 0.4060058497098381


def two_party_spec(lam_i=0.1, lam_c=0.2, thr_i=(1.0, 1.0), thr_c=(1.0, 1.0)):
    return DefaultSpec(
        investor=PartyDefault(lam_i, GammaParams(*thr_i)),
        counterparty=PartyDefault(lam_c, GammaParams(*thr_c)),
    )


def test_exponential_threshold_survival():
    spec = two_party_spec(lam_i=0.1, lam_c=0.0)
    curve = survival_curve(spec, TimeGrid(0.0, 1.0, 100))
    assert curve.investor[-1] == pytest.approx(math.exp(-0.1), rel=1e-12)
    assert np.allclose(curve.counterparty, 1.0)
    assert np.allclose(curve.joint, curve.investor)


def test_zero_intensity_never_defaults():
    spec = DefaultSpec(no_default_party(), no_default_party())
    grid = TimeGrid(0.0, 2.0, 50)
    curve = survival_curve(spec, grid)
    assert np.all(curve.joint == 1.0)
    times = sample_default_times(spec, grid, 1000, seed=3)
    assert np.all(np.isinf(times.investor))
    assert np.all(np.isinf(times.counterparty))
    dens = default_density(spec, grid)["joint"]
    assert np.all(dens.values == 0.0)
    assert dens.atom == 1.0
    assert dens.identity_gap == 0.0


def test_linear_intensity_frozen_value():
    # lambda(t) = t integrates to 2 at t = 2; survival is Q(2, 2).
    spec = DefaultSpec(
        PartyDefault(lambda t: t, GammaParams(2.0, 1.0)), no_default_party()
    )
    curve = survival_curve(spec, TimeGrid(0.0, 2.0, 400))
    assert curve.investor[-1] == pytest.approx(Q_2_2, rel=1e-10)


def test_hazard_frozen_value_and_slope_consistency():
    # shape 2, rate 1, unit intensity: hazard(1) = e^-1/ugamma(2,1) = 1/2.
    spec = DefaultSpec(
        PartyDefault(1.0, GammaParams(2.0, 1.0)), no_default_party()
    )
    grid = TimeGrid(0.0, 2.0, 200)
    hz = hazard_curve(spec, grid)
    k = 100  # node at t = 1
    assert grid.nodes[k] == pytest.approx(1.0)
    assert hz.investor[k] == pytest.approx(0.5, rel=1e-10)
    # hazard equals -d/dt log survival: central differences on the curve
    curve = survival_curve(spec, grid)
    logg = np.log(curve.investor)
    fd = -(logg[2:] - logg[:-2]) / (2.0 * grid.dt)
    # central differences carry O(dt^2 f''') truncation near the steep start
    assert np.allclose(hz.investor[1:-1], fd, rtol=1e-3, atol=5e-5)


def test_exponential_party_survival_is_exp_of_cumulative():
    spec = DefaultSpec(
        PartyDefault(lambda t: 0.3 + 0.1 * t, GammaParams(1.0, 2.0)),
        no_default_party(),
    )
    grid = TimeGrid(0.0, 3.0, 300)
    lam = cumulative_intensity(spec.investor, grid.nodes)
    curve = survival_curve(spec, grid)
    assert np.allclose(curve.investor, np.exp(-2.0 * lam), rtol=1e-12)


def test_hazard_with_small_shape_is_singular_at_start():
    spec = DefaultSpec(
        PartyDefault(1.0, GammaParams(0.5, 1.0)), no_default_party()
    )
    with pytest.raises(SingularInputError):
        hazard_curve(spec, TimeGrid(0.0, 1.0, 10))


def test_negative_intensity_rejected():
    spec = DefaultSpec(
        PartyDefault(lambda t: -0.1, GammaParams(1.0, 1.0)), no_default_party()
    )
    with pytest.raises(InvariantError, match="investor intensity"):
        survival_curve(spec, TimeGrid(0.0, 1.0, 10))


def test_sampler_matches_curve():
    spec = two_party_spec(
        lam_i=0.4, lam_c=0.7, thr_i=(2.0, 3.0), thr_c=(1.5, 2.0)
    )
    grid = TimeGrid(0.0, 2.0, 200)
    curve = survival_curve(spec, grid)
    times = sample_default_times(spec, grid, 100_000, seed=11)
    for sampled, model in (
        (times.investor, curve.investor),
        (times.counterparty, curve.counterparty),
        (times.joint, curve.joint),
    ):
        gap = np.max(np.abs(empirical_survival(sampled, grid.nodes) - model))
        assert gap <= 0.01


def test_sampler_deterministic():
    spec = two_party_spec()
    grid = TimeGrid(0.0, 1.0, 50)
    a = sample_default_times(spec, grid, 5000, seed=5)
    b = sample_default_times(spec, grid, 5000, seed=5)
    c = sample_default_times(spec, grid, 5000, seed=6)
    assert np.array_equal(a.investor, b.investor)
    assert np.array_equal(a.counterparty, b.counterparty)
    assert not np.array_equal(a.investor, c.investor)


def test_tie_fraction_within_grid_collision_bound():
    spec = two_party_spec(lam_i=0.5, lam_c=0.5)
    grid = TimeGrid(0.0, 2.0, 100)
    n = 100_000
    times = sample_default_times(spec, grid, n, seed=17)
    dens = default_density(spec, grid)
    dens_i, dens_c = dens["investor"].values, dens["counterparty"].values
    bound = float(np.sum(dens_i * dens_c) * grid.dt**2)
    assert times.tie_fraction <= 2.0 * bound + 3.0 * math.sqrt(bound / n)


def test_density_identity_two_parties():
    spec = two_party_spec(
        lam_i=0.3, lam_c=0.6, thr_i=(2.0, 1.5), thr_c=(1.0, 1.0)
    )
    dens = default_density(spec, TimeGrid(0.0, 3.0, 3000))["joint"]
    assert dens.identity_gap <= 1e-6
    assert np.all(dens.values >= 0.0)


def test_density_single_party_matches_negative_curve_slope():
    spec = DefaultSpec(
        PartyDefault(0.8, GammaParams(2.5, 2.0)), no_default_party()
    )
    grid = TimeGrid(0.0, 2.0, 2000)
    dens = default_density(spec, grid)["investor"]
    assert dens.identity_gap <= 1e-6
    curve = survival_curve(spec, grid)
    fd = -(curve.investor[2:] - curve.investor[:-2]) / (2.0 * grid.dt)
    assert np.allclose(dens.values[1:-1], fd, atol=2e-5)


def test_density_with_stochastic_intensity_pathwise():
    # Property-level check: intensity 2 * V_t along simulated square-root
    # variance paths.  The pathwise identity int density + terminal survival
    # = 1 survives averaging, and sampled defaults match the averaged curve.
    model = build_power_model(heston_params(k=0.08, l0=2.0, lam=0.3))
    grid = TimeGrid(0.0, 1.0, 200)
    paths = simulate_paths(model, (0.0, 0.04), grid, 4000, master_seed=23)
    thr = GammaParams(1.5, 1.0)
    lam_paths = np.maximum(2.0 * paths.v, 0.0)
    steps = 0.5 * (lam_paths[:, 1:] + lam_paths[:, :-1]) * grid.dt
    cum = np.concatenate(
        [np.zeros((paths.n_paths, 1)), np.cumsum(steps, axis=1)], axis=1
    )
    surv = np.array(
        [gamma_survival(thr, row) for row in cum]
    )
    factor = np.array(
        [gamma_hazard_factor(thr, row) for row in cum]
    )
    dens_hat = (surv * lam_paths * factor).mean(axis=0)
    surv_hat = surv.mean(axis=0)
    mass = float(np.trapezoid(dens_hat, grid.nodes))
    assert mass + surv_hat[-1] == pytest.approx(1.0, abs=1e-3)
    # sampled thresholds against the averaged survival
    rng = np.random.default_rng(29)
    xi = rng.gamma(thr.shape, 1.0 / thr.rate, size=paths.n_paths)
    pos = np.array(
        [np.searchsorted(cum[j], xi[j], side="left") for j in range(paths.n_paths)]
    )
    tau = np.where(pos < len(grid.nodes), grid.nodes[np.minimum(pos, len(grid.nodes) - 1)], np.inf)
    gap = np.max(np.abs(empirical_survival(tau, grid.nodes) - surv_hat))
    assert gap <= 0.03


def per_party_density(spec, grid, names):
    """The density of the first default among the named parties, as
    default_density formed it for one party or both at a call each: a
    product from ones and a sum from zeros over each party's clock."""
    nodes = grid.nodes
    surv, total_hazard = np.ones(len(nodes)), np.zeros(len(nodes))
    for name in names:
        party = spec.party(name)
        lam = cumulative_intensity(party, nodes, name)
        surv = surv * gamma_survival(party.threshold, lam)
        total_hazard = total_hazard + on_times(party.intensity, nodes) * gamma_hazard_factor(
            party.threshold, lam)
    values = surv * total_hazard
    atom = float(surv[-1])
    return values, atom, abs(float(np.trapezoid(values, nodes)) + atom - 1.0)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("spec", [
    two_party_spec(lam_i=0.3, lam_c=0.6, thr_i=(2.0, 1.5), thr_c=(1.0, 1.0)),
    # a -0.0 intensity: its hazard is -0.0, which the sum from zeros makes +0.0
    DefaultSpec(PartyDefault(-0.0, GammaParams(1.0, 1.0)),
                PartyDefault(lambda t: 0.15 + 0.1 * t, GammaParams(1.5, 1.0))),
    DefaultSpec(PartyDefault(lambda t: 0.8 * t, GammaParams(2.5, 2.0)),
                PartyDefault(-0.0, GammaParams(1.5, 2.0))),
], ids=["flat", "zero-investor", "zero-counterparty"])
def test_density_evaluates_each_clock_once_with_the_per_party_bits(monkeypatch, spec):
    calls = []
    clock = defaultclock._survival_and_hazard

    def counted(party, nodes, name):
        calls.append((name, len(nodes)))
        return clock(party, nodes, name)

    monkeypatch.setattr(defaultclock, "_survival_and_hazard", counted)
    groups = {"investor": ["investor"], "counterparty": ["counterparty"],
              "joint": ["investor", "counterparty"]}
    grid = TimeGrid(0.0, 2.0, 400)
    dens = default_density(spec, grid)
    assert calls == [("investor", 401), ("counterparty", 401)]
    assert list(dens) == list(groups)
    for name, names in groups.items():
        values, atom, gap = per_party_density(spec, grid, names)
        assert np.array_equal(bits(dens[name].values), bits(values))
        assert bits(dens[name].atom) == bits(atom)
        assert bits(dens[name].identity_gap) == bits(gap)
    calls.clear()
    gaps = identity_gaps(spec, 0.0, 2.0)
    assert calls == [("investor", 20001), ("counterparty", 20001)]
    dense = TimeGrid(0.0, 2.0, 20000)
    assert list(gaps) == list(groups)
    for name, names in groups.items():
        assert bits(gaps[name]) == bits(per_party_density(spec, dense, names)[2])
