"""Volatility model coefficients, the positive power family, measure changes.

A model is one coefficient function for the two-factor dynamics

    dX_t = (b(t) - theta(t, V_t)^2 / 2) dt
         + theta(t, V_t) (sqrt(1 - rho(t)^2) dW_t + rho(t) dW~_t)
    dV_t = zeta(t, V_t) dt + eta(t, V_t) dW~_t

where X is the log price and V the variance factor.  The function returns
(theta, zeta, eta) at once and may write them into ``WORK_PLANES`` planes
that the caller allocates once per block of paths, so an Euler step
allocates no array of the state's size.  Coefficients must be defined on
all of R in the v argument; the power family below extends its
coefficients radially (|v| inside theta and eta, v clamped at zero inside
zeta), so the Euler stepper never needs to truncate the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

TimeFn = Callable[[float], float]
WORK_PLANES = 5  # planes of the state's shape that a coefficient function may write


class InvariantError(ValueError):
    """A model invariant failed; the message names the condition."""


def as_time_fn(value) -> TimeFn:
    """Normalise a constant or callable into a time function.

    A time function maps a time to a value; it may return a scalar for an
    array of times, which ``on_times`` broadcasts.  A constant becomes a
    function that returns it at any time.
    """
    if callable(value):
        return value
    const = float(value)
    return lambda t: const


def on_times(value, times) -> np.ndarray:
    """A constant or time function sampled on ``times``, as a float array.

    A callable that returns a scalar (``lambda t: 0.03``) is broadcast to
    the shape of ``times``.
    """
    times = np.asarray(times, dtype=float)
    vals = np.asarray(as_time_fn(value)(times), dtype=float)
    return np.array(np.broadcast_to(vals, times.shape))


def _sample_times(horizon: float, n: int = 513) -> np.ndarray:
    return np.linspace(0.0, float(horizon), n)


def sampled_sup(value, horizon: float) -> float:
    return float(np.max(np.abs(on_times(value, _sample_times(horizon)))))


def sampled_inf(value, horizon: float) -> float:
    return float(np.min(on_times(value, _sample_times(horizon))))


@dataclass
class VolModel:
    """Coefficient function and regularity data for the two-factor dynamics.

    ``coefficients(t, v, work=None)`` returns (theta, zeta, eta) at (t, v),
    with v a scalar or ndarray.  work, when given, is a float array of
    ``WORK_PLANES`` planes of v's shape that the function may write: its
    results may be work[0:3], and the other planes are scratch.
    ``theta_continuous`` and ``theta_vanishes_at_zero`` are user-asserted
    regularity flags consumed by :func:`measure_change` when the
    vol-of-vol risk premium is nonzero.  A model carries no growth
    envelopes: for the power family they follow from its PowerParams.
    """

    drift_b: TimeFn
    coefficients: Callable
    correlation: TimeFn
    theta_continuous: bool = False
    theta_vanishes_at_zero: bool = False

    def vol_of_price(self, t, v):
        """theta(t, v)."""
        return self.coefficients(t, v)[0]

    def drift_v(self, t, v):
        """zeta(t, v)."""
        return self.coefficients(t, v)[1]

    def vol_of_v(self, t, v):
        """eta(t, v)."""
        return self.coefficients(t, v)[2]


@dataclass(frozen=True)
class PowerParams:
    """Parameters of the positive power family.

    zeta(t, v) = k(t) - l0(t) v+ + sum_i l_i(t) (v+)^alpha_i
    eta(t, v)  = sum_i lam_i(t) |v|^beta_i
    theta(t, v) = theta0(t) + theta1(t) |v|^(1/2)

    with k >= 0, l0 >= 0, l_i <= 0, alpha_i >= 1, beta_i >= 1/2 and all
    time functions bounded on the working horizon.  Constants are accepted
    anywhere a time function is expected.
    """

    k: object = 0.0
    l0: object = 0.0
    l: Sequence = ()
    alpha: Sequence[float] = ()
    lam: Sequence = ()
    beta: Sequence[float] = ()
    theta0: object = 0.0
    theta1: object = 1.0
    drift_b: object = 0.0
    rho: object = 0.0


@dataclass(frozen=True)
class PositivityReport:
    holds: bool
    gamma_star: float
    lhs: float
    rhs: float
    detail: str


def _validate_power(params: PowerParams, horizon: float) -> None:
    if len(params.l) != len(params.alpha):
        raise InvariantError("l and alpha must have equal length")
    if len(params.lam) != len(params.beta):
        raise InvariantError("lam and beta must have equal length")
    for i, a in enumerate(params.alpha):
        if not a >= 1.0:
            raise InvariantError(f"alpha[{i}] must satisfy alpha >= 1, got {a}")
    for i, b in enumerate(params.beta):
        if not b >= 0.5:
            raise InvariantError(f"beta[{i}] must satisfy beta >= 1/2, got {b}")
    ts = _sample_times(horizon)
    k, l0, rho = (on_times(p, ts) for p in (params.k, params.l0, params.rho))
    ls = [on_times(li, ts) for li in params.l]
    for name, vals, rule, bad in [
        ("k", k, "be finite and non-negative", ~(np.isfinite(k) & (k >= 0.0))),
        ("l0", l0, "be finite and non-negative", ~(np.isfinite(l0) & (l0 >= 0.0))),
        ("rho", rho, "stay inside (-1, 1)", ~(np.abs(rho) < 1.0)),
        *((f"l[{i}]", li, "be non-positive", li > 0.0) for i, li in enumerate(ls)),
    ]:
        if bad.any():
            j = int(np.argmax(bad))  # the first offending time
            raise InvariantError(f"{name} must {rule}, got {vals[j]} at t={ts[j]}")


def build_power_model(params: PowerParams, horizon: float = 1.0) -> VolModel:
    """Assemble a VolModel from power-family parameters.

    Invariants (k >= 0, l0 >= 0, l_i <= 0, exponent ranges, |rho| < 1) are
    checked by sampling the time functions on [0, horizon]; violations
    raise InvariantError naming the condition.
    """
    _validate_power(params, horizon)
    k = as_time_fn(params.k)
    l0 = as_time_fn(params.l0)
    ls = [as_time_fn(li) for li in params.l]
    alphas = [float(a) for a in params.alpha]
    lams = [as_time_fn(li) for li in params.lam]
    betas = [float(b) for b in params.beta]
    theta0 = as_time_fn(params.theta0)
    theta1 = as_time_fn(params.theta1)

    def coefficients(t, v, work=None):
        # The PowerParams formulas into work[0:3]; |v|, then v+, in work[3],
        # and a product in work[4].  numpy takes a float array to the power
        # 0.5 by sqrt, so theta's plane holds sqrt(|v|) for both theta and
        # a beta = 1/2 term.  A scalar v gets 0-d planes, since out= takes
        # no numpy scalar.
        if work is None:
            planes = np.empty((WORK_PLANES,) + np.shape(v))
            work = [planes[i, ...] for i in range(WORK_PLANES)]
        theta, zeta, eta, part, term = work
        np.sqrt(np.abs(v, out=part), out=theta)
        eta.fill(0.0)
        for li, b in zip(lams, betas):
            eta += np.multiply(li(t), theta if b == 0.5 else part**b, out=term)
        np.maximum(v, 0.0, out=part)
        np.subtract(k(t), np.multiply(l0(t), part, out=zeta), out=zeta)
        for li, a in zip(ls, alphas):
            zeta += np.multiply(li(t), part**a, out=term)
        np.add(theta0(t), np.multiply(theta1(t), theta, out=theta), out=theta)
        return theta, zeta, eta

    vanishes = sampled_sup(theta0, horizon) == 0.0
    return VolModel(
        drift_b=as_time_fn(params.drift_b),
        coefficients=coefficients,
        correlation=as_time_fn(params.rho),
        theta_continuous=True,
        theta_vanishes_at_zero=vanishes,
    )


def black_scholes_params(drift_b=0.0) -> PowerParams:
    """Degenerate family member: V frozen at its start, theta = sqrt(v0)."""
    return PowerParams(k=0.0, l0=0.0, theta0=0.0, theta1=1.0, drift_b=drift_b)


def heston_params(k, l0, lam, rho=0.0, drift_b=0.0) -> PowerParams:
    """Square-root diffusion for V, theta = sqrt(v)."""
    return PowerParams(k=k, l0=l0, lam=(lam,), beta=(0.5,),
                       theta0=0.0, theta1=1.0, drift_b=drift_b, rho=rho)


def garch_params(k, l0, lam, rho=0.0, drift_b=0.0) -> PowerParams:
    """Linear-diffusion variant: eta proportional to |v|."""
    return PowerParams(k=k, l0=l0, lam=(lam,), beta=(1.0,),
                       theta0=0.0, theta1=1.0, drift_b=drift_b, rho=rho)


_DELTA_SCAN = tuple(10.0**j for j in range(-3, 4))


def check_positivity(params: PowerParams, horizon: float = 1.0) -> PositivityReport:
    """Feller-type check that the variance factor stays non-negative.

    With gamma* = min_i beta_i the rule is: for gamma* = 1/2 require
    (sum_i sup|lam_i|)^2 / 2 <= inf k; for gamma* in (1/2, 1) require
    (sum_i sup|lam_i|)^2 * delta <= inf k for some delta scanned over
    {10^j : j = -3..3}; for gamma* >= 1 (or no diffusion at all) the
    condition holds for any non-negative k.
    """
    _validate_power(params, horizon)
    k_inf = sampled_inf(params.k, horizon)
    if not params.beta:
        return PositivityReport(True, math.inf, 0.0, k_inf, "no diffusion terms")
    gamma_star = min(float(b) for b in params.beta)
    lam_sum = sum(sampled_sup(li, horizon) for li in params.lam)
    if gamma_star >= 1.0:
        return PositivityReport(True, gamma_star, 0.0, k_inf, "holds for any k >= 0")
    if gamma_star == 0.5:
        lhs = lam_sum**2 / 2.0
        return PositivityReport(lhs <= k_inf, gamma_star, lhs, k_inf,
                                "square-root regime: (sum sup|lam|)^2/2 <= inf k")
    lhs = min(lam_sum**2 * d for d in _DELTA_SCAN)
    return PositivityReport(lhs <= k_inf, gamma_star, lhs, k_inf,
                            "intermediate regime: (sum sup|lam|)^2 delta <= inf k, "
                            f"delta scanned over {_DELTA_SCAN}")


def measure_change(model: VolModel, rate, gamma, horizon: float = 1.0) -> VolModel:
    """Switch to the pricing measure with short rate ``rate``.

    The log-price drift becomes the rate; the variance drift picks up the
    vol-of-vol premium term -gamma(t) * eta(t, v+) * theta(t, v+); both
    diffusions and the correlation are unchanged.  A nonzero gamma needs
    the model's asserted regularity flags (theta jointly continuous and
    vanishing at v = 0), otherwise InvariantError is raised.
    """
    rate_fn = as_time_fn(rate)
    gamma_fn = as_time_fn(gamma)
    gamma_sup = sampled_sup(gamma_fn, horizon)
    if gamma_sup > 0.0:
        if not model.theta_continuous:
            raise InvariantError(
                "nonzero vol-of-vol premium requires theta_continuous to be asserted"
            )
        if not model.theta_vanishes_at_zero:
            raise InvariantError(
                "nonzero vol-of-vol premium requires theta_vanishes_at_zero to be asserted"
            )

    base = model.coefficients

    def coefficients(t, v, work=None):
        theta, zeta, eta = base(t, v, work)
        g = gamma_fn(t)
        if g != 0.0:
            theta_pos, _, eta_pos = base(t, np.maximum(v, 0.0))
            zeta = zeta - g * eta_pos * theta_pos
        return theta, zeta, eta

    return replace(model, drift_b=rate_fn, coefficients=coefficients)
