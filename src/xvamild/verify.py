"""Desk-scale verification checks behind the `verify` subcommand.

Each check is small enough to run in seconds, exercises one contract of
the pipeline against an independent route (quadrature, closed forms,
fresh-seed resimulation), and returns a CheckResult instead of raising,
so the CLI can print one line per check and exit nonzero iff any failed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .config import RunSetup, _largest_divisor, resolve_axes
from .defaultclock import default_density, survival_curve
from .gridfn import CoverageError, GridFunction
from .mildsolver import McConfig, comparison_check, linear_oracle, picard_solve
from .simulate import TimeGrid
from .special import GammaParams, gamma_survival
from .valuation import (
    MarketSpec,
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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "detail": self.detail,
            "seconds": self.seconds,
        }


def _timed(name, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except CoverageError as exc:
        ok, detail = False, f"state coverage failed: {exc}"
    except Exception as exc:  # a crashed check is a failed check
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(name, bool(ok), detail, time.perf_counter() - start)


# -- individual checks ------------------------------------------------------------


def _quad_tail(shape: float, rate: float, x: float) -> float:
    """Adaptive-quadrature gamma tail, independent of the package's own route."""

    def logdens(y):
        return (
            shape * math.log(rate)
            + (shape - 1.0) * math.log(y)
            - rate * y
            - math.lgamma(shape)
        )

    mode = max((shape - 1.0) / rate, 1e-12)
    peak = logdens(max(x, mode))
    val, _ = integrate.quad(
        lambda y: math.exp(logdens(y) - peak), x, np.inf,
        epsabs=0.0, epsrel=1e-13, limit=300,
    )
    return val * math.exp(peak)


def check_gamma_tail() -> CheckResult:
    """Survival primitive vs adaptive quadrature on a small lattice."""

    def body():
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

    return _timed("gamma_tail_quadrature", body)


def check_default_clock(setup: RunSetup) -> CheckResult:
    """Density identity and joint factorisation for the configured clocks."""

    def body():
        if setup.spec.defaults is None:
            return True, "no default clocks configured; nothing to check"
        # first-passage densities can have a root-like kink at t0, so the
        # identity needs a dense trapezoid grid to reach 1e-6
        grid = TimeGrid(setup.t0, setup.t_end, 20000)
        worst = 0.0
        for party in ("investor", "counterparty"):
            worst = max(worst, abs(default_density(setup.spec.defaults, grid, party).identity_gap))
        worst = max(worst, abs(default_density(setup.spec.defaults, grid).identity_gap))
        curve = survival_curve(setup.spec.defaults, TimeGrid(setup.t0, setup.t_end, 512))
        factorised = np.array_equal(curve.joint, curve.investor * curve.counterparty)
        ok = worst <= 1e-6 and factorised
        return ok, f"max identity gap {worst:.2e}, joint factorisation {'exact' if factorised else 'BROKEN'}"

    return _timed("default_clock_identity", body)


def check_variance_positivity(setup: RunSetup) -> CheckResult:
    """Feller-type condition for the configured variance factor."""

    def body():
        rep = check_positivity(setup.params, horizon=setup.t_end)
        return rep.holds, rep.detail

    return _timed("variance_positivity", body)


def _small_time_axis(setup: RunSetup, max_pieces: int = 4) -> np.ndarray:
    pieces = _largest_divisor(setup.n_steps, max_pieces)
    return np.linspace(setup.t0, setup.t_end, pieces + 1)


def check_discount_bond(setup: RunSetup, threads: int) -> CheckResult:
    """Unit payoff with every rate equal must price to the discount bond."""

    def body():
        r = setup.spec.rate
        bond = MarketSpec(
            rate=r,
            collateral_rate_pos=r, collateral_rate_neg=r,
            funding_rate_pos=r, funding_rate_neg=r,
            hedge_rate_pos=r, hedge_rate_neg=r,
            payoff=constant_payoff(1.0),
            t0=setup.t0,
        )
        x0 = math.log(setup.s0)
        t_nodes = _small_time_axis(setup)
        x_nodes = np.linspace(x0 - 0.5, x0 + 0.5, 7)
        v_nodes = np.linspace(max(0.5 * setup.v0, 1e-8), 1.5 * setup.v0 + 1e-8, 3)
        mc = McConfig(n_paths=4000, n_steps=16, master_seed=setup.master_seed, threads=threads)
        rep = picard_solve(bond, setup.model_q, t_nodes, x_nodes, v_nodes, mc, tol=1e-4)
        expected = np.array([discount(r, t, setup.t_end) for t in t_nodes])
        err = float(np.max(np.abs(rep.u.values - expected[:, None, None])))
        limit = max(1e-3, 3.0 * rep.stderr_floor)
        return err <= limit, f"max |u - discount| {err:.2e} (limit {limit:.2e})"

    return _timed("discount_bond", body)


def check_affine_oracle(setup: RunSetup, threads: int) -> CheckResult:
    """Fixed point vs the closed mild form on an affine driver."""

    def body():
        r = setup.spec.rate
        rate_fn = setup.spec.fn("rate")
        aff = MarketSpec(
            rate=r,
            collateral_rate_pos=r, collateral_rate_neg=r,
            funding_rate_pos=r, funding_rate_neg=r,
            hedge_rate_pos=r, hedge_rate_neg=r,
            dividend=lambda t, s, v: np.full_like(np.asarray(s, dtype=float), 0.01),
            payoff=setup.spec.payoff,
            t0=setup.t0,
        )
        x0 = math.log(setup.s0)
        t_nodes = _small_time_axis(setup)
        x_nodes = np.linspace(x0 - 0.6, x0 + 0.6, 9)
        v_nodes = np.linspace(max(0.5 * setup.v0, 1e-8), 1.5 * setup.v0 + 1e-8, 3)
        mc = McConfig(n_paths=6000, n_steps=16, master_seed=setup.master_seed, threads=threads)
        rep = picard_solve(aff, setup.model_q, t_nodes, x_nodes, v_nodes, mc, tol=1e-4)

        def source(t, s, v):
            return np.full_like(np.asarray(s, dtype=float), 0.01)

        worst = 0.0
        for i, (dx, dv) in enumerate(((0.0, 1.0), (-0.3, 0.8), (0.25, 1.2))):
            point = (setup.t0, x0 + dx, setup.v0 * dv)
            ref, se = linear_oracle(
                setup.model_q, aff.payoff, source, lambda t: -rate_fn(t),
                point, setup.t_end, n_steps=64, n_paths=20000,
                seed=setup.master_seed + 900 + i,
            )
            got = float(rep.u.evaluate_at_time(*point))
            slack = max(1e-3, 3.0 * (se + rep.stderr_floor))
            worst = max(worst, abs(got - ref) - slack)
        return worst <= 0.0, f"worst probe excess over slack {worst:.2e}"

    return _timed("affine_oracle", body)


def check_martingale(setup: RunSetup, threads: int):
    """Solve the configured problem small and test the compensated process.

    Returns (CheckResult, solved report or None) so the bound check can
    reuse the solve.
    """
    holder = {}

    def body():
        t_nodes, x_full, v_full = resolve_axes(setup)
        t_small = _small_time_axis(setup, max_pieces=8)
        # interpolation bias near the payoff kink, not Monte Carlo noise,
        # dominates the residual on coarse value grids; the z score is
        # reproducible across fresh seeds until the x axis resolves it
        x_nodes = np.linspace(x_full[0], x_full[-1], max(setup.nx, 21))
        v_nodes = np.linspace(v_full[0], v_full[-1], min(max(setup.nv, 7), 9))
        mc = McConfig(
            n_paths=min(max(setup.n_paths, 8000), 12000),
            n_steps=_compatible_steps(setup, len(t_small) - 1),
            master_seed=setup.master_seed,
            threads=threads,
        )
        rep = picard_solve(
            setup.spec, setup.model_q, t_small, x_nodes, v_nodes, mc,
            tol=setup.tol, max_sweeps=setup.max_iter,
        )
        holder["rep"] = rep
        start = (math.log(setup.s0), setup.v0)
        fresh = TimeGrid(setup.t0, setup.t_end, 64)
        # the first increment would compare path-averaged planes against the
        # single start node, whose own solve noise is not in the fresh-path
        # stderr; the oracle checks cover point accuracy with honest errors,
        # so the flatness test starts at the first interior checkpoint
        checkpoints = t_small[1:] if len(t_small) >= 3 else t_small
        mart = martingale_residual(
            setup.spec, setup.model_q, rep.u, start, checkpoints,
            n_paths=8000, seed=setup.master_seed + 7919, grid=fresh, threads=threads,
        )
        const = GridFunction(
            rep.u.t_nodes, rep.u.x_nodes, rep.u.v_nodes,
            np.full_like(rep.u.values, float(rep.u.values.mean()) + 1.0),
        )
        control = martingale_residual(
            setup.spec, setup.model_q, const, start, checkpoints,
            n_paths=8000, seed=setup.master_seed + 7919, grid=fresh, threads=threads,
        )
        ok = mart.ok and not control.ok
        return ok, (
            f"max |z| {mart.max_abs_z:.2f} (limit 3), constant control "
            f"{'rejected' if not control.ok else 'NOT rejected'}"
        )

    res = _timed("martingale_residual", body)
    return res, holder.get("rep")


def _compatible_steps(setup: RunSetup, pieces: int) -> int:
    steps = min(setup.n_steps, 32)
    return max(pieces, (steps // pieces) * pieces)


def check_value_bounds(setup: RunSetup, rep) -> CheckResult:
    """Payoff bounds must propagate to the value field when the driver allows."""

    def body():
        pay = setup.cfg["market"]["payoff"]
        if pay["kind"] == "capped_call":
            lo, hi = 0.0, pay["cap"]
        elif pay["kind"] == "constant" and pay["value"] >= 0.0:
            lo, hi = 0.0, pay["value"]
        else:
            return True, "payoff not in [0, bound] form; bound not applicable"
        if rep is None:
            return False, "no solved field available (martingale check crashed)"
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

    return _timed("value_bounds", body)


def check_comparison(setup: RunSetup, other: RunSetup, threads: int) -> CheckResult:
    """Shared-noise domination between this config (lo) and --compare (hi)."""

    def body():
        for section in ("model", "grid", "mc"):
            if setup.cfg[section] != other.cfg[section]:
                return False, f"compare config must differ only in market/defaults ({section} differs)"
        t_nodes, x_full, v_full = resolve_axes(setup)
        t_small = _small_time_axis(setup)
        x_nodes = np.linspace(x_full[0], x_full[-1], min(setup.nx, 11))
        v_nodes = np.linspace(v_full[0], v_full[-1], min(setup.nv, 5))
        mc = McConfig(
            n_paths=min(setup.n_paths, 8000),
            n_steps=_compatible_steps(setup, len(t_small) - 1),
            master_seed=setup.master_seed,
            threads=threads,
        )
        out = comparison_check(
            setup.spec, other.spec, setup.model_q, t_small, x_nodes, v_nodes, mc,
            tol=setup.tol,
        )
        return out["ok"], f"min value gap {out['min_gap']:.3e} (slack {out['slack']:.3e})"

    return _timed("comparison_domination", body)


def run_verify(setup: RunSetup, threads: int, compare: RunSetup = None) -> list:
    """Run every applicable check; order is cheap-to-expensive."""
    results = [
        check_gamma_tail(),
        check_default_clock(setup),
        check_variance_positivity(setup),
        check_discount_bond(setup, threads),
        check_affine_oracle(setup, threads),
    ]
    mart, rep = check_martingale(setup, threads)
    results.append(mart)
    results.append(check_value_bounds(setup, rep))
    if compare is not None:
        results.append(check_comparison(setup, compare, threads))
    return results
