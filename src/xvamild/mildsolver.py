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
the master nodes; the driver runs when an iterate is given.  V is
autonomous and the log-price increment reads V alone, so every x node of
a v column rides one V path: a sweep steps V and its coefficients once
per v node.  The increment never reads x either, so X from x is x plus
X from 0: a sweep steps one log-price shift per v node and path, every x
row reads its start node plus that shift, and when the rows are nodes of
the iterate the gather finds the shift's cells once for all of them.
A sweep cuts the x rows into blocks: one per thread, but no more than
carry ``_MIN_BLOCK`` node·paths of its first chunk each, and one per row
when rows are fewer, so a small sweep is one block at any thread count,
and so is a terminal sweep, which steps only the (v node, path) planes.
``_run_blocks`` runs block 0 on the calling thread and every other block
on a thread of its own; the sweep is the only code in the package that
starts threads.  A block draws each chunk's normals itself and
walks the chunks in order on three state arrays over its rows and a few
(v node, path) planes, allocated once per block, so a step allocates no
array over the rows.  Each node's sums reduce along its own paths
and are added, chunk after chunk, into that node's place in one array,
so neither the blocks nor the thread count change a bit.
When the driver's value-Lipschitz budget over the horizon exceeds 1/2
the horizon is split into slabs solved backwards, each slab taking the
next one's first plane as its terminal condition.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .defaultclock import _trapezoid_cumsum
from .gridfn import CoverageError, GridFunction, _check_uniform, sup_diff
from .simulate import (
    _CHUNK,
    TimeGrid,
    _check_path_budget,
    _euler_step,
    _finite_rows,
    _path_chunks,
    _step_table,
    simulate_paths,
)
from .special import DomainError
from .valuation import MarketSpec, _driver_at, _driver_rates, driver, driver_lipschitz
from .volmodel import WORK_PLANES, InvariantError, VolModel, on_times

_BUDGET_CAP = 0.5  # per-slab integrated Lipschitz bound
_STATE_BUDGET = 500_000  # floats in one of a one-thread block's three state arrays, nodes x chunk paths
# node·paths of its first chunk a sweep's block must carry to get a thread of
# its own: every block re-draws the chunk's normals and re-steps the same
# variance planes, which below about 100k on two cores costs more than the
# thread saves (the crossover scan in BENCH_27.json)
_MIN_BLOCK = 100_000
_HULL_Q = 0.001  # pilot-cloud quantile kept inside the auto hull, at each end
_HULL_PAD = 0.15  # auto hull widening, as a fraction of its span


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


def _node_blocks(n_rows: int, threads: int) -> list:
    """[lo, hi) ranges of x rows covering 0 .. n_rows in order: min(threads,
    n_rows) blocks, at least one, whose sizes differ by at most one row, so
    a grid with fewer rows than threads gets one block per row.  A sweep
    passes its thread count already capped by its work (``_sweep_slices``)."""
    n = max(1, min(threads, n_rows))
    cuts = [i * n_rows // n for i in range(n + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _run_blocks(fn, blocks) -> list:
    """fn over blocks, results in block order.  Block 0 runs on the calling
    thread, which works rather than waits, so its malloc arena, already
    grown, holds block 0's working set instead of a fresh worker arena;
    every other block runs on a pool worker of its own."""
    if len(blocks) == 1:
        return [fn(blocks[0])]
    with ThreadPoolExecutor(max_workers=len(blocks) - 1) as pool:
        rest = [pool.submit(fn, block) for block in blocks[1:]]
        first = fn(blocks[0])
    return [first] + [future.result() for future in rest]


def _check_shift_prices(x_lo, x_hi, d: np.ndarray) -> None:
    """Raise DomainError unless exp(x + d) is positive and finite for every row
    start x in [x_lo, x_hi] and every shift d of the plane: fl(x + d) is
    monotone in both, so the plane's extremes give the verdict that a check
    of every row's price would give.  A NaN in d fails."""
    with np.errstate(over="ignore", under="ignore"):
        ok = np.exp(x_lo + d.min()) > 0.0 and np.exp(x_hi + d.max()) < math.inf
    if not ok:
        raise DomainError("price s must be positive and finite")


def _sweep_slices(
    spec: MarketSpec,
    model: VolModel,
    u_prev: Optional[GridFunction],
    master: TimeGrid,
    starts,
    m_end: int,
    x_nodes: np.ndarray,
    v_nodes: np.ndarray,
    payoff: Callable,
    mc: McConfig,
    seed_salt: int,
):
    """Estimate (T u_prev) on the x_nodes x v_nodes grid on the slices
    that start at the master steps ``starts`` and end at m_end.

    Returns (mean, stderr, coverage), with a row per slice and a column
    per node, x-major.  The step table, the driver's time terms and the
    chunk layout are tabulated once on master nodes 0 .. m_end and read
    by master index.  The driver integral is added when u_prev is given;
    without it a slice estimates E[payoff].  All nodes share each chunk's
    increments; the stream seed depends only on (master_seed, salt,
    chunk), never on the slice or the iterate, and the chunk size on the
    node count alone.  Each chunk draws its normals for master steps
    0 .. m_end - 1 in one call; the generator fills the block in order,
    so step k consumes the same numbers no matter where the slice begins.

    The sweep's work is x nodes x v nodes x the first chunk's paths, and
    a driver sweep takes min(threads, work // _MIN_BLOCK) blocks, at least
    one: ``_node_blocks`` cuts the x rows into that many, one per row when
    rows are fewer, and ``_run_blocks`` runs each block on its own thread.
    A smaller block would spend more re-drawing the normals and re-stepping
    the planes than a thread saves, so a small sweep runs on the calling
    thread alone.  A terminal sweep (no u_prev) steps only the planes, so
    it is one block at any thread count.  A block allocates its arrays
    once, sized for the first (largest) chunk, and each chunk takes
    C-contiguous views of their fronts.  A block walks the chunks in order; for each it draws the
    chunk's normals itself and sweeps every slice with m_start < m_end in
    order through the same arrays.  The Euler step moves v, its work
    planes and the log-price shift d, all (nv, paths), so V and its
    coefficients run once per v node.  A step keeps three state arrays
    of shape (rows, nv, paths): x, the integral and y.  The rows' x is
    formed as start node plus d once per driver step, for ``outside``,
    and then overwritten by the driver's price s = exp(x).  When every x
    row is a node of u_prev, the gather gets d and the rows' node indices,
    so it finds its cells once per (v node, path); otherwise it reads the
    full x before s overwrites it.  The gather writes u_prev into y.  The
    price is checked after the gather and before s is formed, on the
    shift plane alone (``_check_shift_prices``), which gives the verdict of a
    check of every row's price.  The driver writes its rate over the spent
    price s and uses the spent y as its work; when u_prev has no negative
    value, every gathered y is non-negative and the driver takes its
    affine branch base + y m+, while the slice-end call, whose y is the
    payoff, takes the two-slope form.  The driver integral is a running
    sum of the rates, end points halved, times dt once per slice; at the
    slice end the payoff reads s, and the sum of squares goes into the
    spent y.  Each node's sums reduce along its own paths and are added,
    chunk after chunk, into the block's own columns of one (2, slices,
    nodes) array; blocks own disjoint columns, so they need no lock and no
    merge, and every node gets, slice by slice, the same bits at any
    thread count.
    """
    nodes = master.nodes
    dt = master.dt
    sq_dt = math.sqrt(dt)
    nv = v_nodes.size
    n_nodes = x_nodes.size * nv
    steps = _step_table(model, nodes[:m_end])
    terms = None if u_prev is None else np.stack(_driver_rates(spec, nodes[: m_end + 1]))
    size = max(128, min(_CHUNK, _STATE_BUDGET // max(n_nodes, 1)))
    chunks = [(c, min(size, mc.n_paths - lo)) for c, lo in enumerate(range(0, mc.n_paths, size))]

    def terminal(s, v):
        # the payoff at the (s, v) broadcast shape, also one that reads v alone,
        # never sharing memory with s, which the driver then overwrites
        phi = np.asarray(payoff(s, v), dtype=float)
        phi = phi.copy() if np.may_share_memory(phi, s) else phi
        return np.ascontiguousarray(np.broadcast_to(phi, np.broadcast_shapes(s.shape, v.shape)))

    at = None  # the x rows as node indices of u_prev, when every row is a node
    if u_prev is not None and np.isin(x_nodes, u_prev.x_nodes).all():
        at = np.searchsorted(u_prev.x_nodes, x_nodes).tolist()
    # a gather from a non-negative iterate is a convex combination of its values
    y_nonneg = u_prev is not None and bool(u_prev.values.min() >= 0.0)

    def run_slice(m_start: int, z: np.ndarray, lo: int, hi: int, rows, planes):
        # rows: x (then s, then the driver's rate), the integral and y (the
        # gather's output, then the driver's work); planes: the shift d, v and
        # the step's work; all reused
        (x, integral, y), (d, v), work = rows, planes[:2], planes[2:]
        starts_x = x_nodes[lo:hi, None, None]
        x_lo, x_hi = x_nodes[lo:hi].min(), x_nodes[lo:hi].max()
        block_rows = None if at is None else at[lo:hi]
        query = x if at is None else d  # the gather reads the full x or the rows' shared shift
        d.fill(0.0)
        v[...] = v_nodes[:, None]
        integral.fill(0.0)
        outside = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(m_start, m_end):
                t = nodes[k]
                if u_prev is not None:
                    np.add(starts_x, d, out=x)
                    outside += int(np.count_nonzero(u_prev.outside(x, v)))
                    u_prev.evaluate_at_time(t, query, v, rows=block_rows, out=y)
                    _check_shift_prices(x_lo, x_hi, d)
                    s = np.exp(x, out=x)
                    rate = _driver_at(spec, terms[:, k], t, s, v, y, out=s, work=y,
                                      y_nonneg=y_nonneg)
                    if k == m_start:
                        rate *= 0.5
                    integral += rate
                _euler_step(model, steps, k, t, d, v, dt, z[k, :, 0], z[k, :, 1], work)
        np.add(starts_x, d, out=x)
        s = np.exp(x, out=x)
        est = terminal(s, v)
        if u_prev is not None:
            _check_shift_prices(x_lo, x_hi, d)
            rate = _driver_at(spec, terms[:, m_end], nodes[m_end], s, v, est, out=s, work=y)
            rate *= 0.5
            integral += rate
            integral *= dt
            integral += est
            est = integral
        if not np.all(np.isfinite(est)):
            raise CoverageError(
                "non-finite Monte Carlo estimate; the model explodes on this grid"
            )
        return est.sum(axis=2).ravel(), np.multiply(est, est, out=y).sum(axis=2).ravel(), outside

    mean = np.empty((len(starts), n_nodes))
    stderr = np.zeros((len(starts), n_nodes))
    n = float(mc.n_paths)
    swept = []
    for i, m_start in enumerate(starts):
        if m_start == m_end:
            mean[i] = terminal(np.exp(x_nodes[:, None]), v_nodes).ravel()
        else:
            swept.append(i)
    sums = np.zeros((2, len(swept), n_nodes))  # (sum, sum of squares) per swept slice and node

    def run_block(block):
        lo, hi = block
        outside = 0
        # one buffer each for the rows and the planes, sized for the first
        # (largest) chunk; each chunk takes a C-contiguous view of its front
        row_buf = np.empty(3 * (hi - lo) * nv * chunks[0][1])
        plane_buf = np.empty((2 + WORK_PLANES) * nv * chunks[0][1])
        for c_idx, n_c in chunks:  # in chunk order, so each node adds its chunks in order
            rng = np.random.default_rng(
                np.random.SeedSequence([mc.master_seed, seed_salt, c_idx])
            )
            z = rng.standard_normal((m_end, n_c, 2))
            z *= sq_dt
            rows = row_buf[: 3 * (hi - lo) * nv * n_c].reshape(3, hi - lo, nv, n_c)
            planes = plane_buf[: (2 + WORK_PLANES) * nv * n_c].reshape(2 + WORK_PLANES, nv, n_c)
            for col, i in enumerate(swept):
                total, squares, out = run_slice(starts[i], z, lo, hi, rows, planes)
                sums[:, col, lo * nv : hi * nv] += (total, squares)
                outside += out
        return outside

    # a terminal sweep's steps touch only the planes, which every block would re-step
    threads = 1 if u_prev is None else min(mc.threads, n_nodes * chunks[0][1] // _MIN_BLOCK)
    blocks = _node_blocks(x_nodes.size, threads)
    n_out = sum(_run_blocks(run_block, blocks)) if swept else 0
    mean[swept] = sums[0] / n
    var = np.maximum(sums[1] - n * mean[swept] * mean[swept], 0.0) / (n - 1.0)
    stderr[swept] = np.sqrt(var / n)
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
    mean, err, coverage = _sweep_slices(
        spec, model, u_prev, master, idx, idx[-1], x_nodes, v_nodes, payoff, mc, seed_salt,
    )
    shape = (len(t_nodes), len(x_nodes), len(v_nodes))
    return GridFunction(t_nodes, x_nodes, v_nodes, mean.reshape(shape)), err.reshape(shape), coverage


# -- contraction budget and slab partition -------------------------------------


def lipschitz_budget(spec: MarketSpec, t_lo: float, t_hi: float) -> float:
    """Integral of the driver's value-Lipschitz bound over [t_lo, t_hi]."""
    ts = np.linspace(t_lo, t_hi, 129)
    return float(np.trapezoid(driver_lipschitz(spec, ts), ts))


def _interval_budgets(spec: MarketSpec, t_nodes: np.ndarray) -> list:
    """Each interval's Lipschitz budget, by trapezoid on 33 points; the grid
    is made contiguous so that each row sums as a 1-D trapezoid would."""
    ts = np.ascontiguousarray(np.linspace(t_nodes[:-1], t_nodes[1:], 33, axis=-1))
    return np.trapezoid(driver_lipschitz(spec, ts), ts, axis=-1).tolist()


def _slab_partition(spec: MarketSpec, t_nodes: np.ndarray) -> list:
    """Backward greedy split keeping each slab's budget at most 1/2.

    Returns indices into t_nodes marking slab boundaries, first to last.
    """
    m = len(t_nodes)
    budgets = _interval_budgets(spec, t_nodes)
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
    _master_indices(t_nodes, master)  # off-grid time nodes fail before any budget work

    budget = lipschitz_budget(spec, float(t_nodes[0]), float(t_nodes[-1]))
    slab_ix = _slab_partition(spec, t_nodes)

    nt, nx, nv = len(t_nodes), len(x_nodes), len(v_nodes)
    values = np.empty((nt, nx, nv))
    stderr_floor = 0.0
    coverages = []
    sup_diffs = []
    sweeps_per_slab = []
    converged = True

    terminal = spec.payoff
    for a, b in reversed(list(zip(slab_ix[:-1], slab_ix[1:]))):
        slab_t = t_nodes[a : b + 1]
        u_cur, err, cov = apply_mild_map(
            spec, model, None, slab_t, x_nodes, v_nodes, mc,
            master=master, payoff=terminal,
        )
        slab_err = float(np.max(err))
        n_sweeps = 0
        slab_ok = False
        for _ in range(max_sweeps):
            u_next, err, cov = apply_mild_map(
                spec, model, u_cur, slab_t, x_nodes, v_nodes, mc,
                master=master, payoff=terminal,
            )
            n_sweeps += 1
            slab_err = float(np.max(err))
            gap = sup_diff(u_next, u_cur)
            sup_diffs.append(gap)
            u_cur = u_next
            coverages.append(cov)
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
        coverage_fraction=sum(coverages) / len(coverages) if coverages else 0.0,
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
    The paths are walked chunk by chunk and only one estimate per path is
    kept.  Returns (estimate, stderr); raises InvalidPathBudgetError as
    ``simulate_paths`` does.
    """
    t0, x0, v0 = point
    grid = TimeGrid(float(t0), float(t_end), n_steps)
    nodes = grid.nodes
    w = np.exp(_trapezoid_cumsum(on_times(slope, nodes), nodes))
    # trapezoid sums each row of a contiguous table on its own, so a path's
    # estimate does not depend on which chunk carried it
    ests = []
    n_invalid = 0
    for _, x, v in _path_chunks(model, (x0, v0), grid, n_paths, seed):
        ok = _finite_rows(x, v)
        if not ok.all():
            n_invalid += int((~ok).sum())
            x, v = x[ok], v[ok]
        a_vals = np.empty_like(x)
        for k, t in enumerate(nodes):
            a_vals[:, k] = w[k] * np.asarray(source(t, np.exp(x[:, k]), v[:, k]), dtype=float)
        integral = np.trapezoid(a_vals, nodes, axis=1)
        ests.append(w[-1] * np.asarray(payoff(np.exp(x[:, -1]), v[:, -1]), dtype=float) + integral)
    _check_path_budget(n_invalid, n_paths)
    est = np.concatenate(ests)
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
):
    """Padded quantile bounding box of a pilot simulation.

    Returns (x_lo, x_hi, v_lo, v_hi) containing the start state and the
    [_HULL_Q, 1 - _HULL_Q] range of every node's cloud, widened by _HULL_PAD
    times the span.
    """
    paths = simulate_paths(model, start, grid, n_paths, seed)
    x = paths.valid_x()
    v = paths.valid_v()
    x_lo, x_hi = np.quantile(x, [_HULL_Q, 1.0 - _HULL_Q])
    v_lo, v_hi = np.quantile(v, [_HULL_Q, 1.0 - _HULL_Q])
    x_lo = min(float(x_lo), float(start[0]))
    x_hi = max(float(x_hi), float(start[0]))
    v_lo = min(float(v_lo), float(start[1]))
    v_hi = max(float(v_hi), float(start[1]))
    dx = max(x_hi - x_lo, 1e-6)
    dv = max(v_hi - v_lo, 1e-6)
    return (
        x_lo - _HULL_PAD * dx,
        x_hi + _HULL_PAD * dx,
        v_lo - _HULL_PAD * dv,
        v_hi + _HULL_PAD * dv,
    )
