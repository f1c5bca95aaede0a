"""Nonlinear valuation driver and value-process diagnostics.

The driver maps (t, price, variance, candidate value) to the running
adjustment rate of the pre-default value: dividend inflow, asymmetric
collateral and funding spreads on the positive/negative parts of the
value, hedge account spreads, and the two parties' default compensations
weighted by the log-slopes of their survival curves.  It is deliberately
piecewise linear in the value argument with bounded slopes, which is what
the fixed-point solver's contraction budget relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from .defaultclock import DefaultSpec, SurvivalCurve, _trapezoid_cumsum, survival_curve
from .gridfn import CoverageError
from .simulate import TimeGrid, simulate_paths
from .special import DomainError, gamma_hazard_factor
from .volmodel import InvariantError, TimeFn, VolModel, as_time_fn, on_times

# -- payoff / dividend / hedge building blocks --------------------------------


def constant_payoff(value: float) -> Callable:
    def phi(s, v):
        return np.full_like(np.asarray(s, dtype=float), value)

    return phi


def capped_call(strike: float, cap: float) -> Callable:
    """(s - strike)^+ capped at cap; bounded as the solver requires."""

    def phi(s, v):
        return np.minimum(np.maximum(np.asarray(s, dtype=float) - strike, 0.0), cap)

    return phi


def zero_dividend(t, s, v):
    return np.zeros_like(np.asarray(s, dtype=float))


def constant_dividend(value: float) -> Callable:
    def pi(t, s, v):
        return np.full_like(np.asarray(s, dtype=float), value)

    return pi


def zero_hedge(t, s, v, y):
    return np.zeros_like(np.asarray(y, dtype=float))


def proportional_hedge(delta: float) -> Callable:
    """Hedge account sized as a fixed multiple of the current value."""

    def hedge(t, s, v, y):
        return delta * np.asarray(y, dtype=float)

    return hedge


# -- market specification ------------------------------------------------------


@dataclass
class MarketSpec:
    """Rates, fractions, default clocks and contract terms of one valuation.

    All rate entries accept constants or time functions; a time function
    takes an array of times, and a scalar return is broadcast (see
    ``volmodel.on_times``).  collateral_frac and closeout_frac must satisfy
    0 <= collateral <= closeout <= 1 pointwise.  own_default_funding
    toggles the investor-side loss-given-default term of the driver.  t0
    is the global valuation start; cumulative default intensities
    accumulate from it.
    """

    rate: object = 0.0
    collateral_rate_pos: object = 0.0
    collateral_rate_neg: object = 0.0
    funding_rate_pos: object = 0.0
    funding_rate_neg: object = 0.0
    hedge_rate_pos: object = 0.0
    hedge_rate_neg: object = 0.0
    collateral_frac: object = 0.0
    closeout_frac: object = 1.0
    lgd_investor: float = 0.0
    lgd_counterparty: float = 0.0
    own_default_funding: bool = True
    dividend: Callable = zero_dividend
    hedge: Callable = zero_hedge
    hedge_lipschitz: float = 0.0
    payoff: Callable = constant_payoff(0.0)
    defaults: Optional[DefaultSpec] = None
    t0: float = 0.0

    def fn(self, name: str) -> TimeFn:
        return as_time_fn(getattr(self, name))

    def validate(self, horizon: float = 1.0) -> None:
        if self.hedge_lipschitz < 0.0:
            raise InvariantError("hedge_lipschitz must be non-negative")
        a_fn = self.fn("collateral_frac")
        b_fn = self.fn("closeout_frac")
        for t in np.linspace(self.t0, self.t0 + horizon, 257):
            a, b = float(a_fn(t)), float(b_fn(t))
            if not (0.0 <= a <= b <= 1.0):
                raise InvariantError(
                    f"need 0 <= collateral_frac <= closeout_frac <= 1, got "
                    f"({a}, {b}) at t={t}"
                )
            # The contraction budget trusts hedge_lipschitz as the hedge's
            # slope in y; a unit step in y must not move the hedge further.
            h0 = float(self.hedge(t, 1.0, 0.0, 0.0))
            for y in (1.0, -1.0):
                step = abs(float(self.hedge(t, 1.0, 0.0, y)) - h0)
                if step > self.hedge_lipschitz:
                    raise InvariantError(
                        f"hedge moves by {step} for a unit step in y at t={t}, "
                        f"above hedge_lipschitz={self.hedge_lipschitz}"
                    )
        for name in ("lgd_investor", "lgd_counterparty"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise InvariantError(f"{name} must lie in [0, 1], got {val}")

    def log_survival_slopes(self, t) -> tuple:
        """(g_I, g_C): d/dt log survival per party at t, both <= 0.

        For an array of times each slope has its shape; a scalar t gives floats.
        """
        times = np.asarray(t, dtype=float)
        if self.defaults is None:
            return (np.zeros(times.shape), np.zeros(times.shape)) if times.shape else (0.0, 0.0)
        flat = times.ravel()
        live = flat > self.t0
        ends = np.linspace(self.t0, flat[live], 513, axis=-1)
        out = []
        for name in ("investor", "counterparty"):
            party = self.defaults.party(name)
            # one trapezoid per time: a single 2-D call sums in another order
            cum = np.zeros(flat.shape)
            cum[live] = [np.trapezoid(f, ts) for f, ts in zip(on_times(party.intensity, ends), ends)]
            slope = -on_times(party.intensity, flat) * gamma_hazard_factor(party.threshold, cum)
            out.append(slope.reshape(times.shape) if times.shape else float(slope[0]))
        return out[0], out[1]


# -- discounting ---------------------------------------------------------------


def discount(rate, s: float, t: float) -> float:
    """exp(-int_s^t rate) for s <= t, and 1 otherwise."""
    if s >= t:
        return 1.0
    fn = as_time_fn(rate)
    val, _ = integrate.quad(fn, s, t, epsabs=1e-13, epsrel=1e-13, limit=200)
    return math.exp(-val)


def discount_nodes(rate, nodes: np.ndarray) -> np.ndarray:
    """exp(-int_{nodes[0]}^{t_k} rate) by trapezoid, for grid workloads."""
    return np.exp(-_trapezoid_cumsum(on_times(rate, nodes), nodes))


# -- the driver ----------------------------------------------------------------


def _driver_rates(spec: MarketSpec, t) -> tuple:
    """(a, b, k+, k-, r - h+, r - h-, g_I, g_C, r): the driver's time-t terms.

    a and b are the collateral and close-out fractions, k± = c± a + f± (1 - a)
    the rates on y±, r - h± the rates on the hedge's two parts, g_I and g_C
    the log-survival slopes and r the risk-free rate.  t may be an array of
    times; each term then has its shape.
    """

    def at(name: str) -> np.ndarray:
        return on_times(getattr(spec, name), t)

    a, r = at("collateral_frac"), at("rate")
    g_i, g_c = spec.log_survival_slopes(t)
    return (
        a, at("closeout_frac"),
        at("collateral_rate_pos") * a + at("funding_rate_pos") * (1.0 - a),
        at("collateral_rate_neg") * a + at("funding_rate_neg") * (1.0 - a),
        r - at("hedge_rate_pos"), r - at("hedge_rate_neg"),
        g_i, g_c, r,
    )


def driver(spec: MarketSpec, t: float, s, v, y):
    """Adjustment rate at (t, price s, variance v, candidate value y).

    s must be positive; v is passed through to the dividend and hedge
    callables unvalidated since simulated variance legitimately makes
    small negative excursions under the full-line coefficient extension.
    Vectorised over broadcastable (s, v, y).
    """
    return _driver_at(spec, _driver_rates(spec, t), t, s, v, y)


def _driver_at(spec: MarketSpec, terms, t: float, s, v, y):
    """The driver formula at time t, given ``_driver_rates`` at t."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0) or not np.all(np.isfinite(s_arr)):
        raise DomainError("price s must be positive and finite")
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


def driver_lipschitz(spec: MarketSpec, t):
    """Upper bound on |d driver / dy| at a time or an array of times (budget rate)."""
    a, b, k_pos, k_neg, hedge_pos, hedge_neg, g_i, g_c, _ = _driver_rates(spec, t)
    own = 1.0 if spec.own_default_funding else 0.0
    rate_slope = np.maximum(np.abs(k_pos), np.abs(k_neg))
    hedge_slope = spec.hedge_lipschitz * np.maximum(np.abs(hedge_pos), np.abs(hedge_neg))
    gi_slope = np.abs(g_i) * ((1.0 - b) + spec.lgd_investor * np.maximum(b - a, 1.0 - a) * own)
    gc_slope = np.abs(g_c) * ((1.0 - b) + spec.lgd_counterparty * (b - a))
    out = rate_slope + hedge_slope + gi_slope + gc_slope
    return out if np.ndim(t) else float(out)


def driver_boundary_check(
    spec: MarketSpec,
    lower: float,
    upper: float,
    t_nodes,
    s_nodes,
    v_nodes,
) -> dict:
    """Grid-check the invariance inequalities at the value bounds.

    For a finite lower bound the driver must be >= 0 there; for a finite
    upper bound it must be <= 0.  Returns a report dict with the worst
    values; 'ok' is the combined verdict.
    """
    s_grid, v_grid = np.meshgrid(s_nodes, v_nodes, indexing="ij")
    worst_lo = math.inf
    worst_hi = -math.inf
    for t in t_nodes:
        if math.isfinite(lower):
            worst_lo = min(worst_lo, float(np.min(driver(spec, t, s_grid, v_grid, lower))))
        if math.isfinite(upper):
            worst_hi = max(worst_hi, float(np.max(driver(spec, t, s_grid, v_grid, upper))))
    ok = True
    if math.isfinite(lower):
        ok = ok and worst_lo >= -1e-12
    if math.isfinite(upper):
        ok = ok and worst_hi <= 1e-12
    return {"ok": ok, "min_at_lower": worst_lo, "max_at_upper": worst_hi}


# -- finite-variation part of the value process --------------------------------


def a_process_increment(spec: MarketSpec, curve: SurvivalCurve, t: float, state):
    """Density of the drift part A at time t along the state (s, v, y).

    Equals joint survival times (driver + (rate - g_I - g_C) * y); the
    survival comes from the supplied curve, the slopes from the spec.
    """
    s, v, y = state
    g = curve.joint_at(t)
    terms = _driver_rates(spec, t)
    g_i, g_c, r = terms[6:]
    y_arr = np.asarray(y, dtype=float)
    out = g * (_driver_at(spec, terms, t, s, v, y) + (r - g_i - g_c) * y_arr)
    return out if out.shape else float(out)


# -- martingale diagnostic ------------------------------------------------------


@dataclass(frozen=True)
class MartingaleReport:
    """Per-interval mean increments of the compensated value process."""

    t_from: np.ndarray
    t_to: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    n_paths: int
    coverage_fraction: float
    max_abs_z: float
    ok: bool


def martingale_residual(
    spec: MarketSpec,
    model: VolModel,
    u,
    start,
    checkpoints,
    n_paths: int,
    seed: int,
    grid: TimeGrid,
    threads: int = 1,
) -> MartingaleReport:
    """Check that discounted-value-plus-accumulated-drift has flat means.

    Simulates fresh paths of the measure-changed model, forms
    M_t = D_t u(t, X, V) G_t + int_0^t D dA along them, and tests the mean
    increment between consecutive checkpoints against zero at three
    standard errors.  Raises CoverageError when more than 1% of the
    visited states fall outside u's hull.
    """
    checkpoints = np.asarray(sorted(float(c) for c in checkpoints))
    nodes = grid.nodes
    idx = []
    for c in checkpoints:
        k = int(np.argmin(np.abs(nodes - c)))
        if abs(nodes[k] - c) > 1e-9:
            raise InvariantError(f"checkpoint {c} is not a grid node")
        idx.append(k)
    if len(idx) < 2:
        raise InvariantError("need at least two checkpoints")

    paths = simulate_paths(model, start, grid, n_paths, seed, threads=threads)
    x = paths.valid_x()
    v = paths.valid_v()
    n = x.shape[0]
    if spec.defaults is not None:
        curve = survival_curve(spec.defaults, grid)
    else:
        curve = SurvivalCurve(nodes, np.ones(len(nodes)), np.ones(len(nodes)))
    g_joint = curve.joint
    disc = discount_nodes(spec.fn("rate"), nodes)

    outside = 0
    total = 0
    m_at = np.empty((len(idx), n))
    integral = np.zeros(n)
    prev_integrand = None
    pos = 0
    for k, t in enumerate(nodes):
        u_k = np.asarray(u.evaluate_at_time(t, x[:, k], v[:, k]), dtype=float)
        outside += int(np.count_nonzero(u.outside(x[:, k], v[:, k])))
        total += n
        state = (np.exp(x[:, k]), v[:, k], u_k)
        integrand = disc[k] * a_process_increment(spec, curve, t, state)
        if prev_integrand is not None:
            integral = integral + 0.5 * (prev_integrand + integrand) * grid.dt
        prev_integrand = integrand
        if pos < len(idx) and k == idx[pos]:
            m_at[pos] = disc[k] * u_k * g_joint[k] + integral
            pos += 1

    coverage = outside / total if total else 0.0
    if coverage > 0.01:
        raise CoverageError(
            f"{coverage:.2%} of visited states fell outside the value grid hull"
        )

    dm = np.diff(m_at, axis=0)
    means = dm.mean(axis=1)
    stderrs = dm.std(axis=1, ddof=1) / math.sqrt(n)
    # degenerate increments (zero spread) must still reject a nonzero mean
    floor = 1e-12 * (1.0 + float(np.max(np.abs(m_at))))
    z = np.where(
        stderrs > 0.0,
        np.abs(means) / np.where(stderrs > 0.0, stderrs, 1.0),
        np.where(np.abs(means) > floor, np.inf, 0.0),
    )
    return MartingaleReport(
        t_from=nodes[idx[:-1]],
        t_to=nodes[idx[1:]],
        means=means,
        stderrs=stderrs,
        n_paths=n,
        coverage_fraction=coverage,
        max_abs_z=float(z.max()),
        ok=bool(np.all(z <= 3.0)),
    )
