"""Gamma-tail primitives shared by the default clocks.

Two quantities are exported.  With the unnormalised upper tail

    ugamma(a, x) = int_x^inf y**(a-1) * exp(-y) dy,

they are the survival function of a Gamma(shape, rate) threshold,

    G(x) = Q(shape, rate*x) = ugamma(shape, rate*x) / Gamma(shape),

and the tail-decay factor

    rate**shape * x**(shape-1) * exp(-rate*x) / ugamma(shape, rate*x)

which equals -d/dx log G(x).  The regularised tail Q comes from
vectorised ``scipy.special.gammaincc``; the hazard factor is assembled in
log space from log Q.  Where Q underflows (below 1e-300) a modified-Lentz
continued fraction supplies log Q instead, so deep-tail hazards stay
finite and tend to the rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

_MAX_ITER = 600
_CONV_EPS = 1e-17
_FPMIN = 1e-300


class DomainError(ValueError):
    """An argument left the mathematical domain."""


class SingularInputError(ValueError):
    """The requested quantity diverges at this input."""


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate parameters of a gamma threshold distribution."""

    shape: float
    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.shape) and self.shape > 0.0):
            raise DomainError(f"shape must be finite and positive, got {self.shape!r}")
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise DomainError(f"rate must be finite and positive, got {self.rate!r}")


def _abscissae(x) -> np.ndarray:
    xs = np.asarray(x, dtype=float)
    bad = ~(np.isfinite(xs) & (xs >= 0.0))
    if bad.any():
        raise DomainError(f"x must be finite and non-negative, got {float(xs[bad][0])!r}")
    return xs


def _upper_cf(a: float, x: np.ndarray) -> np.ndarray:
    # Modified Lentz evaluation of the continued fraction C(a, x) with
    # ugamma(a, x) = exp(-x + a*log(x)) * C(a, x), elementwise over x;
    # only called where x is far beyond a, so it converges quickly.
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / _FPMIN)
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < _FPMIN, _FPMIN, d)
        c = b + an / c
        c = np.where(np.abs(c) < _FPMIN, _FPMIN, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if np.all(np.abs(delta - 1.0) < _CONV_EPS):
            return h
    raise ArithmeticError(f"continued fraction for shape={a} did not converge")


def _log_q(shape: float, u: np.ndarray) -> np.ndarray:
    """log Q(shape, u) on an array u >= 0, finite even where Q underflows."""
    q = gammaincc(shape, u)
    deep = q < _FPMIN
    with np.errstate(divide="ignore"):
        out = np.log(q)
    if deep.any():
        ud = u[deep]
        out[deep] = np.log(_upper_cf(shape, ud)) + shape * np.log(ud) - ud - math.lgamma(shape)
    return out


def gamma_survival(params: GammaParams, x):
    """P(threshold > x) for a Gamma(shape, rate) threshold.

    Accepts a scalar or an ndarray of non-negative abscissae and returns
    the matching shape.  Values live in [0, 1] and decrease in x.
    """
    xs = _abscissae(x)
    u = params.rate * xs
    out = np.exp(-u) if params.shape == 1.0 else gammaincc(params.shape, u)
    return float(out) if xs.ndim == 0 else out


def gamma_hazard_factor(params: GammaParams, x):
    """-d/dx log gamma_survival(params, x); tends to the rate as x grows.

    Scalar or ndarray x.  At x = 0 the value is 0 for shape > 1 and the
    rate for shape == 1; for shape < 1 the factor diverges and a
    SingularInputError is raised.
    """
    xs = _abscissae(x)
    shape, rate = params.shape, params.rate
    if shape == 1.0:
        out = np.full(xs.shape, rate)
    else:
        if shape < 1.0 and np.any(xs == 0.0):
            raise SingularInputError(
                f"hazard factor diverges at x=0 for shape={shape} < 1"
            )
        x1 = np.atleast_1d(xs)
        u = rate * x1
        # At x = 0 (shape > 1) the log(x) term is -inf and the factor is 0.
        with np.errstate(divide="ignore"):
            log_f = (
                shape * math.log(rate)
                + (shape - 1.0) * np.log(x1)
                - u
                - (math.lgamma(shape) + _log_q(shape, u))
            )
        out = np.exp(log_f).reshape(xs.shape)
    return float(out) if xs.ndim == 0 else out
