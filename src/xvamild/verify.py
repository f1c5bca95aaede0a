"""Desk-scale verification checks behind the `verify` subcommand.

Each check runs in seconds, exercises one contract of the pipeline against
an independent route (quadrature, closed forms, fresh-seed resimulation)
and returns (ok, detail).  ``run_verify`` times each check and turns one
that raises into a FAIL, so the CLI prints one line per check and exits
nonzero iff any failed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cache

import numpy as np

from .config import RunSetup, _largest_divisor, resolve_axes
from .defaultclock import identity_gaps
from .gridfn import CoverageError, GridFunction
from .mildsolver import McConfig, _slab_partition, comparison_check, linear_oracle, picard_solve
from .simulate import TimeGrid
from .special import GammaParams, gamma_survival
from .valuation import (
    MarketSpec,
    constant_dividend,
    constant_payoff,
    discount,
    driver_boundary_check,
    martingale_residual,
)
from .volmodel import check_positivity


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _timed(name, check, *args) -> CheckResult:
    start = time.perf_counter()
    try:
        ok, detail = check(*args)
    except CoverageError as exc:
        ok, detail = False, f"state coverage failed: {exc}"
    except Exception as exc:  # a crashed check is a failed check
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(name, bool(ok), detail, time.perf_counter() - start)


# -- individual checks ------------------------------------------------------------
# Each returns (ok, detail) and neither times nor catches anything; it looks
# up the functions perfbench/tracer.py wraps here when it runs.


@cache
def _tail_rule() -> tuple:
    """Gauss-Legendre nodes and weights on s in (0, 1): 32 equal panels of
    40 nodes each, built on first use so importing this module stays cheap."""
    t, w = np.polynomial.legendre.leggauss(40)
    panels = np.arange(32)[:, None]
    return ((panels + 0.5 * (t + 1.0)) / 32).ravel(), np.tile(w / 64, 32)


def _quad_tail(shape: float, rate: float, x: float) -> float:
    """Gamma tail by Gauss-Legendre quadrature, independent of the package's
    own route: the peak-normalised density on [x, inf) after the map
    y = x + c s / (1 - s), c = max(shape, 1) / rate, integrated over s in
    (0, 1) with the fixed rule of ``_tail_rule``."""

    def logdens(y):
        return (
            shape * math.log(rate)
            + (shape - 1.0) * np.log(y)
            - rate * y
            - math.lgamma(shape)
        )

    s, w = _tail_rule()
    c = max(shape, 1.0) / rate
    y = x + c * s / (1.0 - s)
    mode = max((shape - 1.0) / rate, 1e-12)
    peak = float(logdens(max(x, mode)))
    val = float(np.sum(w * np.exp(logdens(y) - peak) * c / (1.0 - s) ** 2))
    return val * math.exp(peak)


def check_gamma_tail():
    """Survival primitive vs a fixed Gauss-Legendre rule on a small lattice."""
    worst = 0.0
    for shape in (0.5, 1.0, 1.7, 2.5, 6.0):
        for rate in (0.4, 2.0):
            for x in (0.05, 0.5, 1.8, 7.0):
                got = gamma_survival(GammaParams(shape, rate), x)
                ref = _quad_tail(shape, rate, x)
                worst = max(worst, abs(got - ref) / ref)
    exp_worst = max(
        abs(gamma_survival(GammaParams(1.0, r), x) - math.exp(-r * x))
        for r in (0.4, 2.0)
        for x in (0.05, 0.5, 1.8, 7.0)
    )
    ok = worst <= 1e-10 and exp_worst <= 1e-14
    return ok, f"max rel err {worst:.2e} (quad), {exp_worst:.2e} (exponential)"


def check_default_clock(setup: RunSetup):
    """Density identity (``defaultclock.identity_gaps``, as `defaults` checks
    it before writing) for each configured clock and the joint clock."""
    if setup.spec.defaults is None:
        return True, "no default clocks configured; nothing to check"
    worst = max(0.0, *identity_gaps(setup.spec.defaults, setup.t0, setup.t_end).values())
    return worst <= 1e-6, f"max identity gap {worst:.2e}"


def check_variance_positivity(setup: RunSetup):
    """Feller-type condition for the configured variance factor."""
    rep = check_positivity(setup.params, horizon=setup.t_end)
    return rep.holds, rep.detail


def _small_time_axis(setup: RunSetup, max_pieces: int = 4) -> np.ndarray:
    pieces = _largest_divisor(setup.n_steps, max_pieces)
    return np.linspace(setup.t0, setup.t_end, pieces + 1)


def _flat_rate_spec(setup: RunSetup, **terms) -> MarketSpec:
    """Every rate equal to the market rate, so the driver is plain
    discounting plus what ``terms`` adds (a dividend, a payoff)."""
    r = setup.spec.rate
    return MarketSpec(
        rate=r,
        collateral_rate_pos=r, collateral_rate_neg=r,
        funding_rate_pos=r, funding_rate_neg=r,
        hedge_rate_pos=r, hedge_rate_neg=r,
        t0=setup.t0,
        **terms,
    )


def _oracle_solve(setup: RunSetup, spec: MarketSpec, width: float, nx: int,
                  n_paths: int, threads: int):
    """The small solve an oracle check compares: x0 +- width on nx nodes,
    three v nodes around v0, 16 Euler steps, tol 1e-4."""
    x0 = math.log(setup.s0)
    x_nodes = np.linspace(x0 - width, x0 + width, nx)
    v_nodes = np.linspace(max(0.5 * setup.v0, 1e-8), 1.5 * setup.v0 + 1e-8, 3)
    mc = McConfig(n_paths=n_paths, n_steps=16, master_seed=setup.master_seed, threads=threads)
    return picard_solve(spec, setup.model_q, _small_time_axis(setup), x_nodes, v_nodes, mc, tol=1e-4)


def _small_grid(setup: RunSetup, axes, max_pieces: int, nx: int, nv: int, n_paths: int,
                threads: int):
    """(t, x, v, mc) of a small solve: at most max_pieces time intervals, nx x nv
    nodes over the configured axes, which ``axes()`` returns, n_paths paths on
    steps the intervals divide."""
    _, x_full, v_full = axes()
    t_small = _small_time_axis(setup, max_pieces)
    pieces = len(t_small) - 1
    mc = McConfig(
        n_paths=n_paths,
        n_steps=max(pieces, (min(setup.n_steps, 32) // pieces) * pieces),
        master_seed=setup.master_seed,
        threads=threads,
    )
    return (t_small, np.linspace(x_full[0], x_full[-1], nx),
            np.linspace(v_full[0], v_full[-1], nv), mc)


def check_discount_bond(setup: RunSetup, threads: int):
    """Unit payoff with every rate equal must price to the discount bond."""
    bond = _flat_rate_spec(setup, payoff=constant_payoff(1.0))
    rep = _oracle_solve(setup, bond, 0.5, 7, 4000, threads)
    expected = np.array([discount(bond.rate, t, setup.t_end) for t in rep.u.t_nodes])
    err = float(np.max(np.abs(rep.u.values - expected[:, None, None])))
    limit = max(1e-3, 3.0 * rep.stderr_floor)
    return err <= limit, f"max |u - discount| {err:.2e} (limit {limit:.2e})"


def check_affine_oracle(setup: RunSetup, threads: int):
    """Fixed point vs the closed mild form on an affine driver."""
    rate_fn = setup.spec.fn("rate")
    aff = _flat_rate_spec(setup, dividend=constant_dividend(0.01), payoff=setup.spec.payoff)
    rep = _oracle_solve(setup, aff, 0.6, 9, 6000, threads)
    x0 = math.log(setup.s0)
    worst = -math.inf
    for i, (dx, dv) in enumerate(((0.0, 1.0), (-0.3, 0.8), (0.25, 1.2))):
        point = (setup.t0, x0 + dx, setup.v0 * dv)
        ref, se = linear_oracle(
            setup.model_q, aff.payoff, aff.dividend, lambda t: -rate_fn(t),
            point, setup.t_end, n_steps=64, n_paths=20000,
            seed=setup.master_seed + 900 + i,
        )
        got = float(rep.u.evaluate_at_time(*point))
        slack = max(1e-3, 3.0 * (se + rep.stderr_floor))
        worst = max(worst, abs(got - ref) - slack)
    return worst <= 0.0, f"worst probe excess over slack {worst:.2e}"


def check_martingale(setup: RunSetup, axes, threads: int, solved: list):
    """Solve the configured problem small and test the compensated process.

    Appends the solved report to ``solved`` before the residual runs, so the
    bound check reuses the solve even when the residual raises.
    """
    # interpolation bias near the payoff kink, not Monte Carlo noise,
    # dominates the residual on coarse value grids; the z score is
    # reproducible across fresh seeds until the x axis resolves it
    t_small, x_nodes, v_nodes, mc = _small_grid(
        setup, axes, 8, max(setup.nx, 21), min(max(setup.nv, 7), 9),
        min(max(setup.n_paths, 8000), 12000), threads,
    )
    rep = picard_solve(
        setup.spec, setup.model_q, t_small, x_nodes, v_nodes, mc,
        tol=setup.tol, max_sweeps=setup.max_iter,
    )
    solved.append(rep)
    start = (math.log(setup.s0), setup.v0)
    fresh = TimeGrid(setup.t0, setup.t_end, 64)
    # the first increment would compare path-averaged planes against the
    # single start node, whose own solve noise is not in the fresh-path
    # stderr; the oracle checks cover point accuracy with honest errors,
    # so the flatness test starts at the first interior checkpoint
    checkpoints = t_small[1:] if len(t_small) >= 3 else t_small
    const = GridFunction(
        rep.u.t_nodes, rep.u.x_nodes, rep.u.v_nodes,
        np.full_like(rep.u.values, float(rep.u.values.mean()) + 1.0),
    )
    mart, control = martingale_residual(
        setup.spec, setup.model_q, (rep.u, const), start, checkpoints,
        n_paths=8000, seed=setup.master_seed + 7919, grid=fresh,
    )
    ok = mart.ok and not control.ok
    return ok, (
        f"max |z| {mart.max_abs_z:.2f} (limit 3), constant control "
        f"{'rejected' if not control.ok else 'NOT rejected'}"
    )


def check_value_bounds(setup: RunSetup, solved: list):
    """Payoff bounds must propagate to the value field when the driver allows."""
    if setup.payoff_band is None:
        return True, "payoff not in [0, bound] form; bound not applicable"
    lo, hi = setup.payoff_band
    if not solved:
        return False, "no solved field available (martingale check crashed)"
    rep = solved[0]
    edge = driver_boundary_check(
        setup.spec, lo, hi,
        np.linspace(setup.t0, setup.t_end, 33),
        np.exp(rep.u.x_nodes), rep.u.v_nodes,
    )
    if not edge["ok"]:
        return True, "driver does not preserve the payoff band; bound not implied"
    band = 3.0 * rep.stderr_floor + setup.tol
    u_min = float(rep.u.values.min())
    u_max = float(rep.u.values.max())
    ok = u_min >= lo - band and u_max <= hi + band
    return ok, f"u range [{u_min:.4g}, {u_max:.4g}] vs [{lo}, {hi}] +/- {band:.2e}"


def check_comparison(setup: RunSetup, other: RunSetup, axes, threads: int):
    """Shared-noise domination between this config (lo) and --compare (hi)."""
    for section in ("model", "grid", "mc"):
        if setup.cfg[section] != other.cfg[section]:
            return False, f"compare config must differ only in market/defaults ({section} differs)"
    t_small, x_nodes, v_nodes, mc = _small_grid(
        setup, axes, 4, min(setup.nx, 11), min(setup.nv, 5), min(setup.n_paths, 8000), threads,
    )
    out = comparison_check(
        setup.spec, other.spec, setup.model_q, t_small, x_nodes, v_nodes, mc,
        tol=setup.tol,
    )
    return out["ok"], f"min value gap {out['min_gap']:.3e} (slack {out['slack']:.3e})"


def run_verify(setup: RunSetup, threads: int, compare: RunSetup = None) -> list:
    """Run every applicable check; order is cheap-to-expensive.

    A config, or a compare config, whose time nodes `solve` would reject
    for their Lipschitz budget raises InvariantError here, before any check
    runs.
    """
    for cfg in (setup,) if compare is None else (setup, compare):
        _slab_partition(cfg.spec, np.linspace(cfg.t0, cfg.t_end, cfg.nt))
    solved = []  # the martingale check's solve, which the bound check reads
    # the configured axes, whose pilot hull is simulated once a run; a raise is
    # not cached, so it FAILs each check that needs them
    axes = cache(lambda: resolve_axes(setup))
    checks = [
        ("gamma_tail_quadrature", check_gamma_tail),
        ("default_clock_identity", check_default_clock, setup),
        ("variance_positivity", check_variance_positivity, setup),
        ("discount_bond", check_discount_bond, setup, threads),
        ("affine_oracle", check_affine_oracle, setup, threads),
        ("martingale_residual", check_martingale, setup, axes, threads, solved),
        ("value_bounds", check_value_bounds, setup, solved),
    ]
    if compare is not None:
        checks.append(("comparison_domination", check_comparison, setup, compare, axes, threads))
    return [_timed(*row) for row in checks]
