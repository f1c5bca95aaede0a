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

from .defaultclock import DefaultSpec, SurvivalCurve, _trapezoid_cumsum, survival_curve
from .gridfn import CoverageError
from .simulate import TimeGrid, _check_path_budget, _finite_rows, _path_chunks
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
        out = np.subtract(s, strike, out=np.empty(np.shape(s)))  # the one temporary
        np.maximum(out, 0.0, out=out)
        return np.minimum(out, cap, out=out)[()]  # a scalar s gives a scalar

    return phi


def zero_dividend(t, s, v):
    return 0.0


def constant_dividend(value: float) -> Callable:
    def pi(t, s, v):
        return value

    return pi


def zero_hedge(t, s, v, y):
    return 0.0


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
    accumulate from it.  payoff(s, v), dividend(t, s, v) and
    hedge(t, s, v, y) get a v that broadcasts against s, not one of s's
    shape (the sweep steps v once per v node); results broadcast to s's.
    A dividend or hedge that ignores the state may return a scalar, and
    the built-in ones do, so the driver spends no pass over the state on
    them.
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
        # linspace(axis=-1) lays the rows out transposed; made contiguous,
        # each row sums in the order of a 1-D trapezoid over its own time
        ends = np.ascontiguousarray(np.linspace(self.t0, flat[live], 513, axis=-1))
        out = []
        for name in ("investor", "counterparty"):
            party = self.defaults.party(name)
            cum = np.zeros(flat.shape)
            cum[live] = np.trapezoid(on_times(party.intensity, ends), ends, axis=-1)
            slope = -on_times(party.intensity, flat) * gamma_hazard_factor(party.threshold, cum)
            out.append(slope.reshape(times.shape) if times.shape else float(slope[0]))
        return out[0], out[1]


# -- discounting ---------------------------------------------------------------


def discount(rate, s: float, t: float) -> float:
    """exp(-int_s^t rate) for s <= t, and 1 otherwise.

    A constant rate has the closed form; a callable one is integrated by
    adaptive quadrature, whose module loads on the first such call.
    """
    if s >= t:
        return 1.0
    if not callable(rate):
        return math.exp(-float(rate) * (t - s))
    from scipy import integrate

    val, _ = integrate.quad(rate, s, t, epsabs=1e-13, epsrel=1e-13, limit=200)
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
    _check_price(s)
    return _driver_at(spec, _driver_rates(spec, t), t, s, v, y)


def _check_price(s) -> None:
    s = np.asarray(s, dtype=float)
    if s.size and not (s.min() > 0.0 and s.max() < math.inf):  # NaN fails too
        raise DomainError("price s must be positive and finite")


def _driver_slopes(spec: MarketSpec, terms) -> tuple:
    """(m+, m-), the driver's slopes on y+ and y- given ``_driver_rates`` terms:
    m+ = -k+ + g_I (1 - b - lgd_I own (1 - a)) + g_C (1 - b + lgd_C (b - a)) and
    m- = k- - g_I (1 - b + lgd_I own (b - a)) - g_C (1 - b)."""
    a, b, k_pos, k_neg, _, _, g_i, g_c, _ = terms
    lgd_i, lgd_c = spec.lgd_investor if spec.own_default_funding else 0.0, spec.lgd_counterparty
    m_pos = -k_pos + g_i * (1.0 - b - lgd_i * (1.0 - a)) + g_c * (1.0 - b + lgd_c * (b - a))
    return m_pos, k_neg - g_i * (1.0 - b + lgd_i * (b - a)) - g_c * (1.0 - b)


def _driver_at(spec: MarketSpec, terms, t: float, s, v, y, out=None, work=None,
               y_nonneg=False):
    """The driver formula at time t, given ``_driver_rates`` at t.

    The terms must be those of the one time t: one comparison of the
    slopes picks the driver's branch, and the driver may be convex in y at
    some times and concave at others, so slopes over several times raise
    InvariantError.  The price is not checked here: ``driver`` and
    ``_a_increment`` check it, and the sweep checks its shift plane before
    it forms the price.  The dividend and hedge terms keep their own shape
    (a scalar for the built-in dividends and the zero hedge); the result
    has the shape of s, y and those terms broadcast together.  ``out`` and
    ``work``, both of that shape, are optional buffers; the result is
    written into ``out``.  The hedge and dividend are read first, so
    ``out`` may be s itself and ``work`` may be y itself; both are then
    overwritten.  ``y_nonneg`` promises y >= 0 (NaN aside), and the driver
    is then base + y m+.
    """
    m_pos, m_neg = _driver_slopes(spec, terms)
    if np.ndim(m_pos) or np.ndim(m_neg):
        raise InvariantError("the driver's terms must be those of one time")
    s_arr = np.asarray(s, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    hedge = np.asarray(spec.hedge(t, s_arr, v, y_arr), dtype=float)
    dividend = np.asarray(spec.dividend(t, s_arr, v), dtype=float)
    # h- = -min(h, 0), so the minimum term takes the negated factor
    base = dividend - np.maximum(hedge, 0.0) * terms[4] - np.minimum(hedge, 0.0) * terms[5]
    if out is None:
        out = np.empty(np.broadcast_shapes(s_arr.shape, y_arr.shape, np.shape(base)))
    if y_nonneg:
        np.multiply(y_arr, m_pos, out=out)
    else:
        work = np.empty(out.shape) if work is None else work
        # y+ m+ + y- m- is y m+ for y >= 0 and y (-m-) below: one of y+ and y- is
        # zero and rounding is monotone, so it is the larger of the two where
        # the driver is convex in y (m+ >= -m-) and the smaller where concave.
        # out (perhaps s) is written first, work (perhaps y) as y is last read
        np.multiply(y_arr, -m_neg, out=out)
        np.multiply(y_arr, m_pos, out=work)
        (np.maximum if m_pos >= -m_neg else np.minimum)(work, out, out=out)
    np.add(out, base, out=out)
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
    ok = worst_lo >= -1e-12 and worst_hi <= 1e-12  # an infinite bound keeps its +-inf start
    return {"ok": ok, "min_at_lower": worst_lo, "max_at_upper": worst_hi}


# -- finite-variation part of the value process --------------------------------


def _a_increment(spec: MarketSpec, g: float, terms, t: float, state):
    """The A density at time t, given joint survival g and ``_driver_rates`` at t."""
    s, v, y = state
    g_i, g_c, r = terms[6:]
    y_arr = np.asarray(y, dtype=float)
    _check_price(s)
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
    fields,
    start,
    checkpoints,
    n_paths: int,
    seed: int,
    grid: TimeGrid,
) -> list:
    """Check that discounted-value-plus-accumulated-drift has flat means.

    Simulates one set of fresh paths of the measure-changed model, forms
    M_t = D_t u(t, X, V) G_t + int_0^t D dA along them for each field u
    in ``fields``, and tests the mean increment between consecutive
    checkpoints against zero at three standard errors.  Returns one
    MartingaleReport per field, in order.  The checkpoints must be distinct
    grid nodes.  Raises CoverageError when more than 1% of the states
    visited by a field fall outside its hull, and InvalidPathBudgetError
    as ``simulate_paths`` does.  The paths are walked chunk by chunk and
    only each path's checkpoint values are kept, so no full path table is
    held.
    """
    fields = tuple(fields)  # walked once per chunk
    checkpoints = np.asarray(sorted(float(c) for c in checkpoints))
    nodes = grid.nodes
    idx = []
    for c in checkpoints:
        k = int(np.argmin(np.abs(nodes - c)))
        if abs(nodes[k] - c) > 1e-9:
            raise InvariantError(f"checkpoint {c} is not a grid node")
        if idx and k == idx[-1]:
            raise InvariantError(f"checkpoint {c} repeats grid node {nodes[k]}")
        idx.append(k)
    if len(idx) < 2:
        raise InvariantError("need at least two checkpoints")

    chunks = _path_chunks(model, start, grid, n_paths, seed)  # validates first
    if spec.defaults is not None:
        curve = survival_curve(spec.defaults, grid)
    else:
        curve = SurvivalCurve(nodes, np.ones(len(nodes)), np.ones(len(nodes)))
    g_joint = curve.joint
    disc = discount_nodes(spec.fn("rate"), nodes)
    rates = np.stack(_driver_rates(spec, nodes))

    def checkpoint_values(u, x, v):
        # M at each checkpoint along the rows of x and v, and the visited
        # states outside u's hull; every operation acts path by path
        outside = 0
        m_at = np.empty((len(idx), x.shape[0]))
        integral = np.zeros(x.shape[0])
        prev_integrand = None
        pos = 0
        for k, t in enumerate(nodes):
            u_k = np.asarray(u.evaluate_at_time(t, x[:, k], v[:, k]), dtype=float)
            outside += int(np.count_nonzero(u.outside(x[:, k], v[:, k])))
            state = (np.exp(x[:, k]), v[:, k], u_k)
            integrand = disc[k] * _a_increment(spec, g_joint[k], rates[:, k], t, state)
            if prev_integrand is not None:
                integral = integral + 0.5 * (prev_integrand + integrand) * grid.dt
            prev_integrand = integrand
            if pos < len(idx) and k == idx[pos]:
                m_at[pos] = disc[k] * u_k * g_joint[k] + integral
                pos += 1
        return m_at, outside

    parts = [[] for _ in fields]
    outside = [0] * len(fields)
    n_invalid = 0
    for _, x, v in chunks:
        ok = _finite_rows(x, v)
        if not ok.all():
            n_invalid += int((~ok).sum())
            x, v = x[ok], v[ok]
        for f, u in enumerate(fields):
            m_part, out = checkpoint_values(u, x, v)
            parts[f].append(m_part)
            outside[f] += out
        del x, v  # before the next chunk is simulated
    _check_path_budget(n_invalid, n_paths)
    n = n_paths - n_invalid
    reports = []
    for f_parts, f_outside in zip(parts, outside):
        m_at = np.concatenate(f_parts, axis=1)
        coverage = f_outside / (n * len(nodes)) if n else 0.0
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
        reports.append(MartingaleReport(
            t_from=nodes[idx[:-1]],
            t_to=nodes[idx[1:]],
            means=means,
            stderrs=stderrs,
            n_paths=n,
            coverage_fraction=coverage,
            max_abs_z=float(z.max()),
            ok=bool(np.all(z <= 3.0)),
        ))
    return reports
