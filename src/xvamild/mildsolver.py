"""Fixed-point solver for the nonlinear value field.

The field solves u = T(u) with

    (T u)(t, x, v) = E[ phi(S_T, V_T) + int_t^T driver(s, S_s, V_s,
                        u(s, X_s, V_s)) ds | X_t = x, V_t = v ]

along pricing-measure paths, discounting living inside the driver's rate
spreads.  T is applied by Monte Carlo on a tensor grid with common random
numbers: all grid nodes ride one increment stream per chunk of paths,
each chunk draws its increments as one block with a row per master-grid
step, so slices starting at different times see the same noise at the
same time, and every sweep reuses the same streams.
Iterates therefore differ smoothly in space and time, the contraction is
visible far below the noise of one sweep, and finite differences across
time slices stay meaningful.  Everything a sweep needs that depends on
time alone (the Euler step table, the driver's rates, fractions and
survival slopes, and the chunk layout) is tabulated once per sweep on
the master nodes; the driver runs when an iterate is given.  When the
driver's value-Lipschitz budget over the horizon exceeds 1/2 the
horizon is split into slabs solved backwards, each slab taking the next
one's first plane as its terminal condition.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .defaultclock import _trapezoid_cumsum
from .gridfn import (  # re-exported: the solver's output container
    CoverageError,
    GridFunction,
    load_grid,
    save_grid,
    sup_diff,
    write_grid_csv,
)
from .simulate import _CHUNK, TimeGrid, _euler_step, _step_table, simulate_paths
from .valuation import MarketSpec, _driver_at, _driver_rates, driver, driver_lipschitz
from .volmodel import InvariantError, VolModel, on_times

_BUDGET_CAP = 0.5  # per-slab integrated Lipschitz bound
_STATE_BUDGET = 500_000  # floats per (nodes x chunk) working set


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo controls shared by every sweep of one solve.

    n_steps counts Euler steps over the full [t0, T] master grid; the
    value grid's time nodes must land on master nodes so that slice
    simulations restart exactly there.
    """

    n_paths: int = 20000
    n_steps: int = 100
    master_seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.n_paths < 2:
            raise InvariantError(f"n_paths must be >= 2, got {self.n_paths}")
        if self.n_steps < 1:
            raise InvariantError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.master_seed < 0:
            raise InvariantError("master_seed must be non-negative")


def _master_indices(t_nodes: np.ndarray, master: TimeGrid) -> list:
    idx = []
    for t in t_nodes:
        k = int(round((t - master.t0) / master.dt))
        if k < 0 or k > master.n_steps or abs(master.t0 + k * master.dt - t) > 1e-9:
            raise InvariantError(
                f"value-grid time {t} does not land on the master simulation grid "
                f"(dt={master.dt})"
            )
        idx.append(k)
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise InvariantError("time nodes must be strictly increasing")
    return idx


def _sweep_slices(
    spec: MarketSpec,
    model: VolModel,
    u_prev: Optional[GridFunction],
    master: TimeGrid,
    starts,
    m_end: int,
    x_flat: np.ndarray,
    v_flat: np.ndarray,
    payoff: Callable,
    mc: McConfig,
    seed_salt: int,
):
    """Estimate (T u_prev) for all (x, v) nodes on the slices that start at
    the master steps ``starts`` and end at m_end.

    Returns (mean, stderr, coverage), with a row per slice.  The step
    table, the driver's time terms and the chunk layout are tabulated once
    on master nodes 0 .. m_end and read by master index.  The driver
    integral is added when u_prev is given; without it a slice estimates
    E[payoff].  All nodes share each chunk's increments; the stream seed
    depends only on (master_seed, salt, chunk), never on the slice or the
    iterate.  Each chunk draws its normals for master steps 0 .. m_end - 1
    in one call; the generator fills the block in order, so step k
    consumes the same numbers no matter where the slice begins.
    """
    nodes = master.nodes
    dt = master.dt
    sq_dt = math.sqrt(dt)
    n_nodes = x_flat.size
    steps = _step_table(model, nodes[:m_end])
    terms = None if u_prev is None else np.stack(_driver_rates(spec, nodes[: m_end + 1]))
    size = max(128, min(_CHUNK, _STATE_BUDGET // max(n_nodes, 1)))
    chunks = [(c, min(size, mc.n_paths - lo)) for c, lo in enumerate(range(0, mc.n_paths, size))]

    def run_chunk(m_start: int, c_idx: int, n_c: int):
        rng = np.random.default_rng(
            np.random.SeedSequence([mc.master_seed, seed_salt, c_idx])
        )
        z = rng.standard_normal((m_end, n_c, 2)) * sq_dt
        x = np.tile(x_flat[:, None], (1, n_c))
        v = np.tile(v_flat[:, None], (1, n_c))
        integral = np.zeros((n_nodes, n_c))
        prev_rate = None
        outside = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(m_start, m_end):
                t = nodes[k]
                if u_prev is not None:
                    xr = x.ravel()
                    vr = v.ravel()
                    outside += int(np.count_nonzero(u_prev.outside(xr, vr)))
                    y = u_prev.evaluate_at_time(t, xr, vr).reshape(x.shape)
                    rate = _driver_at(spec, terms[:, k], t, np.exp(x), v, y)
                    if prev_rate is not None:
                        integral += 0.5 * (prev_rate + rate) * dt
                    prev_rate = rate
                x, v = _euler_step(model, steps, k, t, x, v, dt, z[k, :, 0], z[k, :, 1])
        est = np.asarray(payoff(np.exp(x), v), dtype=float)
        if u_prev is not None:
            rate_end = _driver_at(spec, terms[:, m_end], nodes[m_end], np.exp(x), v, est)
            integral += 0.5 * (prev_rate + rate_end) * dt
            est = est + integral
        if not np.all(np.isfinite(est)):
            raise CoverageError(
                "non-finite Monte Carlo estimate; the model explodes on this grid"
            )
        return est.sum(axis=1), (est * est).sum(axis=1), outside

    mean = np.empty((len(starts), n_nodes))
    stderr = np.zeros((len(starts), n_nodes))
    n_out = 0
    n = float(mc.n_paths)
    for i, m_start in enumerate(starts):
        if m_start == m_end:
            mean[i] = np.asarray(payoff(np.exp(x_flat), v_flat), dtype=float)
            continue
        if mc.threads > 1 and len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=mc.threads) as pool:
                parts = list(pool.map(lambda c: run_chunk(m_start, *c), chunks))
        else:
            parts = [run_chunk(m_start, *c) for c in chunks]
        sums = sum(p[0] for p in parts)
        sqs = sum(p[1] for p in parts)
        n_out += sum(p[2] for p in parts)
        mean[i] = sums / n
        var = np.maximum(sqs - n * mean[i] * mean[i], 0.0) / (n - 1.0)
        stderr[i] = np.sqrt(var / n)
    n_eval = 0 if u_prev is None else mc.n_paths * n_nodes * sum(m_end - m for m in starts)
    return mean, stderr, n_out / n_eval if n_eval else 0.0


def apply_mild_map(
    spec: MarketSpec,
    model: VolModel,
    u_prev: Optional[GridFunction],
    t_nodes,
    x_nodes,
    v_nodes,
    mc: McConfig,
    master: Optional[TimeGrid] = None,
    payoff: Optional[Callable] = None,
    seed_salt: int = 0,
    m_end: Optional[int] = None,
):
    """One Monte Carlo application of the map T on the tensor grid.

    Returns (GridFunction, stderr tensor, coverage fraction).  The driver
    runs when an iterate u_prev is given; with u_prev None this is the
    plain terminal-expectation sweep that seeds the iteration.  The step
    table, the driver's time terms and the chunk layout are tabulated
    once per call on the master nodes and shared by every slice.
    """
    t_nodes = np.asarray(t_nodes, dtype=float)
    x_nodes = np.asarray(x_nodes, dtype=float)
    v_nodes = np.asarray(v_nodes, dtype=float)
    if master is None:
        master = TimeGrid(float(t_nodes[0]), float(t_nodes[-1]), mc.n_steps)
    if payoff is None:
        payoff = spec.payoff
    idx = _master_indices(t_nodes, master)
    if m_end is None:
        m_end = idx[-1]

    xg, vg = np.meshgrid(x_nodes, v_nodes, indexing="ij")
    mean, err, coverage = _sweep_slices(
        spec, model, u_prev, master, idx, m_end, xg.ravel(), vg.ravel(), payoff, mc, seed_salt,
    )
    shape = (len(t_nodes), len(x_nodes), len(v_nodes))
    return GridFunction(t_nodes, x_nodes, v_nodes, mean.reshape(shape)), err.reshape(shape), coverage


# -- contraction budget and slab partition -------------------------------------


def lipschitz_budget(spec: MarketSpec, t_lo: float, t_hi: float, n: int = 129) -> float:
    """Integral of the driver's value-Lipschitz bound over [t_lo, t_hi]."""
    ts = np.linspace(t_lo, t_hi, n)
    return float(np.trapezoid(driver_lipschitz(spec, ts), ts))


def _slab_partition(spec: MarketSpec, t_nodes: np.ndarray) -> list:
    """Backward greedy split keeping each slab's budget at most 1/2.

    Returns indices into t_nodes marking slab boundaries, first to last.
    """
    m = len(t_nodes)
    budgets = [lipschitz_budget(spec, t_nodes[j], t_nodes[j + 1], 33) for j in range(m - 1)]
    for j, b in enumerate(budgets):
        if b > _BUDGET_CAP:
            raise InvariantError(
                f"interval [{t_nodes[j]}, {t_nodes[j + 1]}] alone carries Lipschitz "
                f"budget {b:.3f} > {_BUDGET_CAP}; refine the time nodes"
            )
    bounds = [m - 1]
    acc = 0.0
    for j in range(m - 2, -1, -1):
        if acc + budgets[j] > _BUDGET_CAP + 1e-12:
            bounds.append(j + 1)
            acc = budgets[j]
        else:
            acc += budgets[j]
    bounds.append(0)
    return bounds[::-1]


# -- the solver -----------------------------------------------------------------


@dataclass
class PicardReport:
    """Outcome of one fixed-point solve."""

    u: GridFunction
    converged: bool
    sup_diffs: list
    sweeps_per_slab: list
    slab_bounds: list
    lipschitz_budget: float
    stderr_floor: float
    coverage_fraction: float
    fresh_gap: Optional[float] = None
    fresh_ok: Optional[bool] = None


def picard_solve(
    spec: MarketSpec,
    model: VolModel,
    t_nodes,
    x_nodes,
    v_nodes,
    mc: McConfig,
    tol: float = 1e-3,
    max_sweeps: int = 25,
    validate_fresh: bool = False,
    min_sweeps: int = 1,
) -> PicardReport:
    """Iterate the mild map to its fixed point on the tensor grid.

    model must already carry the pricing-measure drift.  Each slab starts
    from the driver-off terminal sweep and stops once consecutive sweeps
    agree within max(tol, 3 * stderr floor); common random numbers make
    that difference nearly noise-free.  validate_fresh reruns the final
    map once with independent streams and records the gap.  min_sweeps
    keeps each slab iterating past the stop rule, which makes the geometric
    decay of sup_diffs observable instead of stopping at the first pass.
    """
    t_nodes = np.asarray(t_nodes, dtype=float)
    x_nodes = np.asarray(x_nodes, dtype=float)
    v_nodes = np.asarray(v_nodes, dtype=float)
    min_sweeps = min(min_sweeps, max_sweeps)
    spec.validate(horizon=max(float(t_nodes[-1]) - spec.t0, 1e-9))
    master = TimeGrid(float(t_nodes[0]), float(t_nodes[-1]), mc.n_steps)
    idx = _master_indices(t_nodes, master)

    budget = lipschitz_budget(spec, float(t_nodes[0]), float(t_nodes[-1]))
    slab_ix = _slab_partition(spec, t_nodes)

    nt, nx, nv = len(t_nodes), len(x_nodes), len(v_nodes)
    values = np.empty((nt, nx, nv))
    stderr_floor = 0.0
    coverage_num = 0.0
    coverage_den = 0.0
    sup_diffs = []
    sweeps_per_slab = []
    converged = True
    xg, vg = np.meshgrid(x_nodes, v_nodes, indexing="ij")

    terminal = spec.payoff
    for a, b in reversed(list(zip(slab_ix[:-1], slab_ix[1:]))):
        slab_t = t_nodes[a : b + 1]
        m_end = idx[b]
        u_cur, err, cov = apply_mild_map(
            spec, model, None, slab_t, x_nodes, v_nodes, mc,
            master=master, payoff=terminal, m_end=m_end,
        )
        slab_err = float(np.max(err))
        n_sweeps = 0
        slab_ok = False
        for _ in range(max_sweeps):
            u_next, err, cov = apply_mild_map(
                spec, model, u_cur, slab_t, x_nodes, v_nodes, mc,
                master=master, payoff=terminal, m_end=m_end,
            )
            n_sweeps += 1
            slab_err = float(np.max(err))
            gap = sup_diff(u_next, u_cur)
            sup_diffs.append(gap)
            u_cur = u_next
            coverage_num += cov
            coverage_den += 1.0
            if n_sweeps >= min_sweeps and gap <= max(tol, 3.0 * slab_err):
                slab_ok = True
                break
        converged = converged and slab_ok
        sweeps_per_slab.append(n_sweeps)
        stderr_floor = max(stderr_floor, slab_err)
        values[a : b + 1] = u_cur.values
        terminal = _plane_payoff(u_cur, float(t_nodes[a]))

    u = GridFunction(t_nodes, x_nodes, v_nodes, values)
    report = PicardReport(
        u=u,
        converged=converged,
        sup_diffs=sup_diffs,
        sweeps_per_slab=sweeps_per_slab[::-1],
        slab_bounds=[float(t_nodes[j]) for j in slab_ix],
        lipschitz_budget=budget,
        stderr_floor=stderr_floor,
        coverage_fraction=coverage_num / coverage_den if coverage_den else 0.0,
    )
    if validate_fresh:
        u_fresh, err_f, _ = apply_mild_map(
            spec, model, u, t_nodes, x_nodes, v_nodes, mc,
            master=master, payoff=spec.payoff, seed_salt=1,
        )
        gap = sup_diff(u_fresh, u)
        # sup over the grid of independent-noise differences: 5 sigma
        # covers the max of a few hundred gaussians comfortably
        bound = tol + 5.0 * math.sqrt(2.0) * max(stderr_floor, float(np.max(err_f)))
        report.fresh_gap = gap
        report.fresh_ok = bool(gap <= bound)
    return report


def _plane_payoff(u: GridFunction, t: float) -> Callable:
    def phi(s, v):
        return u.evaluate_at_time(t, np.log(s), v)

    return phi


def refine_point(
    spec: MarketSpec,
    model: VolModel,
    u: GridFunction,
    point,
    mc: McConfig,
    n_paths: Optional[int] = None,
    seed_salt: int = 0,
):
    """Re-estimate the solved field at one (t, x, v) point, usually with
    more paths than the grid solve spent per node.

    One extra application of the mild map at a single state: the value is
    E[phi] plus the driver integral along fresh paths with the driver fed
    by the solved field, so the returned stderr prices the point itself
    rather than the whole grid.  Returns (value, stderr).
    """
    t_pt, x_pt, v_pt = (float(p) for p in point)
    t_end = float(u.t_nodes[-1])
    if n_paths is not None:
        mc = replace(mc, n_paths=int(n_paths))
    if t_pt >= t_end - 1e-12:
        val = float(np.asarray(spec.payoff(np.exp(x_pt), v_pt), dtype=float))
        return val, 0.0
    master = TimeGrid(t_pt, t_end, mc.n_steps)
    mean, err, coverage = _sweep_slices(
        spec, model, u, master, [0], mc.n_steps,
        np.array([x_pt]), np.array([v_pt]), spec.payoff, mc, seed_salt,
    )
    if coverage > 0.01:
        raise CoverageError(
            f"{coverage:.1%} of path evaluations fell outside the value "
            "grid hull while refining the point"
        )
    return float(mean[0, 0]), float(err[0, 0])


# -- independent affine-problem oracle ------------------------------------------


def linear_oracle(
    model: VolModel,
    payoff: Callable,
    source: Callable,
    slope,
    point,
    t_end: float,
    n_steps: int,
    n_paths: int,
    seed: int,
):
    """Monte Carlo value of the affine problem at one point.

    For driver a(t, s, v) + m(t) y the field has the closed mild form
    u(t) = E[e^{int_t^T m} phi + int_t^T e^{int_t^s m} a ds]; this prices
    it directly with its own paths, bypassing the fixed-point machinery.
    Returns (estimate, stderr).
    """
    t0, x0, v0 = point
    grid = TimeGrid(float(t0), float(t_end), n_steps)
    paths = simulate_paths(model, (x0, v0), grid, n_paths, seed)
    x = paths.valid_x()
    v = paths.valid_v()
    nodes = grid.nodes
    w = np.exp(_trapezoid_cumsum(on_times(slope, nodes), nodes))
    a_vals = np.empty_like(x)
    for k, t in enumerate(nodes):
        a_vals[:, k] = w[k] * np.asarray(source(t, np.exp(x[:, k]), v[:, k]), dtype=float)
    integral = np.trapezoid(a_vals, nodes, axis=1)
    est = w[-1] * np.asarray(payoff(np.exp(x[:, -1]), v[:, -1]), dtype=float) + integral
    return float(est.mean()), float(est.std(ddof=1) / math.sqrt(len(est)))


# -- pointwise PDE residual ------------------------------------------------------


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
        d = np.diff(ax)
        if not np.allclose(d, d[0], rtol=1e-9, atol=1e-12):
            raise InvariantError(f"{name} nodes must be uniformly spaced")
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
        theta = np.asarray(model.vol_of_price(t, vg), dtype=float)
        zeta = np.asarray(model.drift_v(t, vg), dtype=float)
        eta = np.asarray(model.vol_of_v(t, vg), dtype=float)
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


# -- driver domination / sensitivity check ---------------------------------------


def comparison_check(
    spec_lo: MarketSpec,
    spec_hi: MarketSpec,
    model: VolModel,
    t_nodes,
    x_nodes,
    v_nodes,
    mc: McConfig,
    tol: float = 1e-3,
) -> dict:
    """Solve two problems with shared noise and check value domination.

    When spec_hi's driver dominates spec_lo's pointwise (same payoff or a
    dominating one), the value field must dominate too; shared streams
    make the Monte Carlo difference nearly exact, so the verdict allows
    only the stop tolerance plus three stderr floors of slack.
    """
    rep_lo = picard_solve(spec_lo, model, t_nodes, x_nodes, v_nodes, mc, tol=tol)
    rep_hi = picard_solve(spec_hi, model, t_nodes, x_nodes, v_nodes, mc, tol=tol)
    gap = float(np.min(rep_hi.u.values - rep_lo.u.values))
    slack = 2.0 * tol + 3.0 * max(rep_lo.stderr_floor, rep_hi.stderr_floor)
    return {
        "ok": bool(gap >= -slack),
        "min_gap": gap,
        "slack": slack,
        "lo": rep_lo,
        "hi": rep_hi,
    }


# -- hull selection ---------------------------------------------------------------


def auto_hull(
    model: VolModel,
    start,
    grid: TimeGrid,
    n_paths: int = 4000,
    seed: int = 0,
    q: float = 0.001,
    pad: float = 0.15,
):
    """Padded quantile bounding box of a pilot simulation.

    Returns (x_lo, x_hi, v_lo, v_hi) containing the start state and the
    [q, 1-q] range of every node's cloud, widened by pad times the span.
    """
    paths = simulate_paths(model, start, grid, n_paths, seed)
    x = paths.valid_x()
    v = paths.valid_v()
    x_lo, x_hi = np.quantile(x, [q, 1.0 - q])
    v_lo, v_hi = np.quantile(v, [q, 1.0 - q])
    x_lo = min(float(x_lo), float(start[0]))
    x_hi = max(float(x_hi), float(start[0]))
    v_lo = min(float(v_lo), float(start[1]))
    v_hi = max(float(v_hi), float(start[1]))
    dx = max(x_hi - x_lo, 1e-6)
    dv = max(v_hi - v_lo, 1e-6)
    return (
        x_lo - pad * dx,
        x_hi + pad * dx,
        v_lo - pad * dv,
        v_hi + pad * dv,
    )
