"""Reference implementations that tests compare the package against.

Nothing in the package calls these.  Each states one of the paper's claims
independently of the code it checks:

* ``pde_residual``: a solved field is classical, it solves the value PDE;
* ``power_envelopes``: the growth envelopes of a power-family model, which
  the moment bounds read;
* ``heston_capped_call_mean``: the exact E[phi] of a capped call under the
  heston preset, so a headline can be judged against a number that no
  Euler path produced.

The module is imported by the test modules and is not collected itself.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from xvamild.gridfn import GridFunction, _check_uniform
from xvamild.valuation import MarketSpec, driver
from xvamild.volmodel import InvariantError, PowerParams, VolModel, as_time_fn, sampled_sup


def pde_residual(spec: MarketSpec, model: VolModel, u: GridFunction) -> np.ndarray:
    """Central-difference residual of the value PDE at interior grid nodes.

    Checks u_t + (b - theta^2/2) u_x + zeta u_v + (theta^2/2) u_xx
    + theta eta rho u_xv + (eta^2/2) u_vv + driver = 0 using the grid's
    own spacings; a field converging to a classical solution drives this
    to zero as the grid refines.
    """
    for name, ax in (("t", u.t_nodes), ("x", u.x_nodes), ("v", u.v_nodes)):
        if len(ax) < 3:
            raise InvariantError(f"need at least 3 {name} nodes for a residual")
    _check_uniform("t", u.t_nodes)  # x and v are uniform by construction
    ht = u.t_nodes[1] - u.t_nodes[0]
    hx = u.x_nodes[1] - u.x_nodes[0]
    hv = u.v_nodes[1] - u.v_nodes[0]
    U = u.values
    res = np.empty((len(u.t_nodes) - 2, len(u.x_nodes) - 2, len(u.v_nodes) - 2))
    for i in range(1, len(u.t_nodes) - 1):
        t = float(u.t_nodes[i])
        u_t = (U[i + 1] - U[i - 1]) / (2.0 * ht)
        u_x = (U[i, 2:, :] - U[i, :-2, :]) / (2.0 * hx)
        u_xx = (U[i, 2:, :] - 2.0 * U[i, 1:-1, :] + U[i, :-2, :]) / hx**2
        u_v = (U[i, :, 2:] - U[i, :, :-2]) / (2.0 * hv)
        u_vv = (U[i, :, 2:] - 2.0 * U[i, :, 1:-1] + U[i, :, :-2]) / hv**2
        u_xv = (
            U[i, 2:, 2:] - U[i, 2:, :-2] - U[i, :-2, 2:] + U[i, :-2, :-2]
        ) / (4.0 * hx * hv)
        xg, vg = np.meshgrid(u.x_nodes[1:-1], u.v_nodes[1:-1], indexing="ij")
        theta, zeta, eta = (np.asarray(c, dtype=float) for c in model.coefficients(t, vg))
        rho = float(model.correlation(t))
        b = float(model.drift_b(t))
        bhat = driver(spec, t, np.exp(xg), vg, U[i, 1:-1, 1:-1])
        res[i - 1] = (
            u_t[1:-1, 1:-1]
            + (b - 0.5 * theta**2) * u_x[:, 1:-1]
            + zeta * u_v[1:-1, :]
            + 0.5 * theta**2 * u_xx[:, 1:-1]
            + theta * eta * rho * u_xv
            + 0.5 * eta**2 * u_vv[1:-1, :]
            + bhat
        )
    return res


def power_envelopes(params: PowerParams, gamma):
    """(drift envelope, theta envelope) of the power-family model with these
    parameters, under a vol-of-vol premium gamma.

    The drift envelope (k, l) = (k, -l0) bounds sgn(v) zeta(t, v) <=
    k(t) + l(t)|v|, since every l_i term is <= 0; the theta envelope
    (k, lam) = (|theta0|, |theta1|) bounds |theta(t, v)| <= k(t) +
    lam(t) sqrt(v+).  A premium that is nonzero somewhere on the sampled
    [0, 1] adds -gamma eta theta to the drift, which no such envelope
    bounds in general, so the drift envelope is then None.
    """
    k, l0 = as_time_fn(params.k), as_time_fn(params.l0)
    theta0, theta1 = as_time_fn(params.theta0), as_time_fn(params.theta1)
    drift = (k, lambda t: -l0(t)) if sampled_sup(gamma, 1.0) == 0.0 else None
    return drift, (lambda t: abs(theta0(t)), lambda t: abs(theta1(t)))


@functools.lru_cache(maxsize=None)
def _legendre_rule(nodes: int):
    """Gauss-Legendre nodes and weights on [0, 200]; numpy finds them from
    an eigenproblem, seconds at 4000 nodes, so each size is built once."""
    z, w = np.polynomial.legendre.leggauss(nodes)
    return 100.0 * (z + 1.0), 100.0 * w


def heston_capped_call_mean(model: dict, rate: float, horizon: float, strike: float,
                            cap: float, nodes: int = 4000) -> float:
    """Exact undiscounted E[min((S_T - strike)+, cap)] under the pricing
    measure of the heston preset, with constant parameters and no
    vol-of-vol premium.

    ``model`` holds the preset's s0, v0, k, l0, lam and rho, as a config's
    model section does.  Under the pricing measure the log price drifts at
    ``rate``, so the law is Heston's (Rev. Financial Studies 6(2), 1993)
    with mean reversion l0, long-run level k / l0 and vol of vol lam.  A
    premium gamma would turn l0 into l0 + gamma lam; pass that l0.

    The capped call is C(strike) - C(strike + cap), and each
    C(K) = F P1 - K P2 with P_j from Gil-Pelaez inversion of the
    characteristic function in the "little Heston trap" form (Albrecher et
    al., 2007), integrated on a fixed Gauss-Legendre rule of ``nodes``
    nodes over u in [0, 200].
    """
    s0, v0, k, lam, rho = (float(model[key]) for key in ("s0", "v0", "k", "lam", "rho"))
    kappa = float(model["l0"])
    u, w = _legendre_rule(nodes)

    def char_fn(u):
        """E[exp(i u log S_T)] at complex u."""
        iu = 1j * u
        beta = kappa - rho * lam * iu
        d = np.sqrt(beta**2 + lam**2 * (iu + u * u))
        g = (beta - d) / (beta + d)
        decay = np.exp(-d * horizon)
        c = k / lam**2 * ((beta - d) * horizon - 2.0 * np.log((1.0 - g * decay) / (1.0 - g)))
        dv = (beta - d) / lam**2 * (1.0 - decay) / (1.0 - g * decay)
        return np.exp(iu * (math.log(s0) + rate * horizon) + c + dv * v0)

    forward = s0 * math.exp(rate * horizon)
    f1, f2 = char_fn(u - 1j) / forward, char_fn(u)

    def call(strike):
        phase = np.exp(-1j * u * math.log(strike)) / (1j * u)
        p1 = 0.5 + float(w @ (phase * f1).real) / math.pi
        p2 = 0.5 + float(w @ (phase * f2).real) / math.pi
        return forward * p1 - strike * p2

    return call(strike) - call(strike + cap)
