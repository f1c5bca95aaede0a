"""Gamma-tail primitives shared by the default clocks.

Two quantities are exported.  With the unnormalised upper tail

    ugamma(a, x) = int_x^inf y**(a-1) * exp(-y) dy,

they are the survival function of a Gamma(shape, rate) threshold,

    G(x) = Q(shape, rate*x) = ugamma(shape, rate*x) / Gamma(shape),

and the tail-decay factor

    rate**shape * x**(shape-1) * exp(-rate*x) / ugamma(shape, rate*x)

which equals -d/dx log G(x).  The regularised tail Q comes from
vectorised ``scipy.special.gammaincc``; the hazard factor is assembled in
log space from log Q.  Where Q underflows (below 1e-300) the tail comes
from Tricomi's confluent hypergeometric function instead,

    ugamma(a, u) = exp(-u) * u**a * U(1, 1 + a, u)

(DLMF 8.5.3, the second form by Kummer's transformation 13.2.40), with U
the vectorised ``scipy.special.hyperu``: log Q is read from it, and the
hazard factor there is rate / (u * U(1, 1 + shape, u)) with u = rate*x.  So
deep-tail hazards stay finite and tend to the rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, hyperu

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


def _log_q(shape: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log Q(shape, u) on an array u >= 0, finite even where Q underflows.

    Also returns the mask of the entries where Q underflows (below 1e-300)
    and U(1, 1 + shape, u) on them, from which log Q is taken there.
    """
    q = gammaincc(shape, u)
    deep = q < _FPMIN
    with np.errstate(divide="ignore"):
        out = np.log(q)
    tricomi = np.empty(0)
    if deep.any():
        ud = u[deep]
        tricomi = hyperu(1.0, 1.0 + shape, ud)
        out[deep] = np.log(tricomi) + shape * np.log(ud) - ud - math.lgamma(shape)
    return out, deep, tricomi


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
        log_q, deep, tricomi = _log_q(shape, u)
        # At x = 0 (shape > 1) the log(x) term is -inf and the factor is 0.
        with np.errstate(divide="ignore"):
            log_f = (
                shape * math.log(rate)
                + (shape - 1.0) * np.log(x1)
                - u
                - (math.lgamma(shape) + log_q)
            )
        out = np.exp(log_f)
        if tricomi.size:
            # log_f cancels u against log Q and keeps an absolute error near
            # u * 1e-16 (1e-8 relative at u = 1e8).  Where Q underflows,
            # ugamma = exp(-u) u**shape U makes the factor rate / (u U),
            # with nothing to cancel.
            out[deep] = rate / (u[deep] * tricomi)
        out = out.reshape(xs.shape)
    return float(out) if xs.ndim == 0 else out
