"""Euler path engine for the two-factor dynamics.

Paths are driven by two independent Brownian increments per step; the
noise of path i is derived from (master_seed, i) alone, so results are
reproducible path-by-path regardless of chunking, and a run with fewer
paths is a prefix of a longer one.  Path i's normals are exactly numpy's
``default_rng(SeedSequence([master_seed, i]))`` stream; each chunk of
paths produces them with one vectorised seed hash and one PCG64 that it
reseeds per path, not with a generator per path.  The chunks run one
after another on the calling thread: that per-path reseeding holds the
interpreter lock, so worker threads would buy almost nothing.
``simulate_paths`` gathers the chunks into full path tables; a consumer
that needs only one number per path (the linear oracle) walks the same
chunks with ``_path_chunks`` and keeps no tables.  A chunk's normals share
the buffer of its path tables, so it holds no noise block beside them.
Coefficients are evaluated through the model's own full-line extension,
so no state truncation happens here: a variance excursion below zero is
handled by the coefficients, not the stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .volmodel import WORK_PLANES, InvariantError, VolModel, on_times

_CHUNK = 4096  # paths per chunk here; the cap on paths per noise stream in the mild-map sweep
_INVALID_BUDGET = 1e-3

# numpy's SeedSequence hash and PCG64 seeding constants, which numpy keeps
# stream-compatible across releases (see _seed_words and _fill_noise).
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 2549297995355413924 << 64 | 4865540595714422341


class InvalidPathBudgetError(RuntimeError):
    """More than the tolerated share of paths produced non-finite states."""

    def __init__(self, n_invalid: int, n_paths: int):
        super().__init__(
            f"{n_invalid} of {n_paths} paths are non-finite "
            f"(budget {_INVALID_BUDGET:.1%})"
        )
        self.n_invalid = n_invalid
        self.n_paths = n_paths


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t0, horizon] with n_steps steps."""

    t0: float
    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (self.horizon > self.t0):
            raise InvariantError(f"horizon must exceed t0, got [{self.t0}, {self.horizon}]")
        if self.n_steps < 1:
            raise InvariantError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return (self.horizon - self.t0) / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.t0, self.horizon, self.n_steps + 1)


@dataclass
class PathSet:
    """Simulated trajectories on the grid nodes.

    x and v have shape [n_paths, n_steps + 1]; row i starts at the common
    initial state and was driven by noise derived from (master_seed, i).
    invalid marks rows that left the finite range at some node.
    """

    grid: TimeGrid
    x: np.ndarray
    v: np.ndarray
    master_seed: int
    invalid: np.ndarray = field(default=None)

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]

    @property
    def n_invalid(self) -> int:
        return int(self.invalid.sum())

    def valid_x(self) -> np.ndarray:
        """The rows of x that stayed finite.  With no invalid row this is x
        itself, not a copy, so the result must not be written."""
        return self.x[~self.invalid] if self.invalid.any() else self.x

    def valid_v(self) -> np.ndarray:
        """The rows of v that stayed finite; read-only, as for ``valid_x``."""
        return self.v[~self.invalid] if self.invalid.any() else self.v


def path_increments(grid: TimeGrid, master_seed: int, path_id: int):
    """Re-derive the (dW, dW~) increments the engine used for one path.

    This stays numpy-native, a generator seeded from [master_seed, path_id],
    so it is the reference the engine's own seed hash is checked against.
    """
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, path_id]))
    z = rng.standard_normal((grid.n_steps, 2))
    scale = math.sqrt(grid.dt)
    return z[:, 0] * scale, z[:, 1] * scale


class _Hash:
    """One of SeedSequence's running hashes, applied to uint32 arrays: each
    call xors the value with the hash constant, steps the constant, then
    multiplies by it and folds the high half down."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ self.const
        self.const = self.const * self.mult & _MASK32
        value *= self.const
        value ^= value >> 16
        return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L
    r -= y * _MIX_MULT_R
    r ^= r >> 16
    return r


def _seed_words(master_seed: int, lo: int, n: int) -> list:
    """The four uint64 words of ``SeedSequence([master_seed, i])
    .generate_state(4, np.uint64)`` for each path id i in [lo, lo + n), as
    four lists.

    This is numpy's SeedSequence with its default 4-word pool, run on
    uint32 arrays with one entry per path, so the whole chunk is hashed in
    one pass.  The entropy is the 32-bit words of master_seed, least
    significant first, then the path id, which fits one word.
    """
    seed = int(master_seed)
    entropy = [np.full(n, seed >> s & _MASK32, dtype=np.uint32)
               for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.arange(lo, lo + n, dtype=np.uint32))
    hashmix = _Hash(_INIT_A, _MULT_A)
    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:  # entropy past the pool mixes into every pool word
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out_hash = _Hash(_INIT_B, _MULT_B)
    state = [out_hash(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return [(state[2 * k] | state[2 * k + 1] << 32).tolist() for k in range(4)]


def _fill_noise(out: np.ndarray, master_seed: int, lo: int) -> None:
    """Row j gets path lo + j's normals: exactly the stream of
    ``np.random.default_rng(np.random.SeedSequence([master_seed, lo + j]))``,
    as ``path_increments`` draws it.

    The chunk hashes all its seeds in one vectorised pass (``_seed_words``)
    and owns one PCG64 and one Generator.  Each row sets the PCG64 state its
    seed leads to, as PCG64's seeding computes it: the seed words are
    (initstate high, low, initseq high, low), inc = 2 * initseq + 1, and
    the state is (inc + initstate) * multiplier + inc mod 2**128.
    """
    bit_gen = np.random.PCG64(0)  # its state is set per row below
    gen = np.random.Generator(bit_gen)
    row_state = {"state": 0, "inc": 0}
    full_state = {"bit_generator": "PCG64", "state": row_state, "has_uint32": 0, "uinteger": 0}
    for j, (s_hi, s_lo, q_hi, q_lo) in enumerate(zip(*_seed_words(master_seed, lo, out.shape[0]))):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        row_state["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        row_state["inc"] = inc
        bit_gen.state = full_state
        gen.standard_normal(out=out[j])


def _step_table(model: VolModel, times):
    """(b, rho, sqrt(1 - rho^2)) at the step start times; rejects |rho| >= 1."""
    rhos = on_times(model.correlation, times)
    if np.any(np.abs(rhos) >= 1.0):
        raise InvariantError("correlation must stay inside (-1, 1) on the grid")
    bs = on_times(model.drift_b, times)
    return bs, rhos, np.sqrt(1.0 - rhos**2)


def _euler_step(model: VolModel, table, k: int, t: float, x, v, dt: float, dw, dwt, work) -> None:
    """One Euler step of the float arrays (x, v), in place, from time t with
    row k of the step table.

    work holds ``WORK_PLANES`` planes of x's shape; the model's
    coefficient function may fill work[0:3], and work[3] and work[4] carry
    the increments, so a step allocates no plane.  Each update adds its
    terms in the order of x + drift * dt + diffusion.
    """
    b, rho, c_w = table[0][k], table[1][k], table[2][k]
    theta, zeta, eta = model.coefficients(t, v, work)
    dv, inc = work[3], work[4]
    np.multiply(eta, dwt, out=dv)  # before v moves: a custom eta may be v itself
    np.multiply(0.5, theta, out=inc)
    inc *= theta
    np.subtract(b, inc, out=inc)
    inc *= dt
    x += inc
    x += np.multiply(theta, c_w * dw + rho * dwt, out=inc)
    v += np.multiply(zeta, dt, out=inc)
    v += dv


def _finite_rows(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows of the path tables x and v that stayed finite at every node."""
    return np.isfinite(x).all(axis=1) & np.isfinite(v).all(axis=1)


def _check_path_budget(n_invalid: int, n_paths: int) -> None:
    """Raise InvalidPathBudgetError when more than 0.1% of paths went non-finite."""
    if n_invalid > _INVALID_BUDGET * n_paths:
        raise InvalidPathBudgetError(n_invalid, n_paths)


def _simulate_chunk(model: VolModel, table, grid: TimeGrid, start, master_seed: int,
                    lo: int, n_c: int):
    """Paths lo .. lo + n_c - 1 as (lo, x, v), x and v of shape
    (n_c, n_steps + 1): strided views of one (n_c, n_steps + 1, 2) table.

    The noise shares that table: node k + 1 holds step k's two normals until
    the step reads them and overwrites them with its (x, v).
    """
    nodes = grid.nodes
    dt = grid.dt
    xv = np.empty((n_c, grid.n_steps + 1, 2))
    noise = xv[:, 1:]
    _fill_noise(noise, master_seed, lo)
    noise *= math.sqrt(dt)
    x = np.full(n_c, start[0])
    v = np.full(n_c, start[1])
    work = np.empty((WORK_PLANES, n_c))
    xv[:, 0] = start
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.n_steps):
            _euler_step(model, table, k, nodes[k], x, v, dt, xv[:, k + 1, 0], xv[:, k + 1, 1], work)
            xv[:, k + 1, 0] = x
            xv[:, k + 1, 1] = v
    return lo, xv[..., 0], xv[..., 1]


def _path_chunks(model: VolModel, start, grid: TimeGrid, n_paths: int, master_seed: int):
    """Validate the run, then walk its paths in chunks of at most _CHUNK.

    Returns an iterator of (lo, x, v): x and v hold rows lo, lo + 1, ... of
    the tables ``simulate_paths`` returns, bit for bit.  A consumer that
    keeps only per-path summaries holds one chunk's tables at a time.
    """
    x0, v0 = float(start[0]), float(start[1])
    if not (math.isfinite(x0) and math.isfinite(v0)):
        raise InvariantError(f"start state must be finite, got {start!r}")
    if n_paths < 1:
        raise InvariantError(f"n_paths must be >= 1, got {n_paths}")
    if master_seed < 0:
        raise InvariantError(f"master_seed must be non-negative, got {master_seed}")
    table = _step_table(model, grid.nodes[:-1])
    return (
        _simulate_chunk(model, table, grid, (x0, v0), master_seed, lo, min(_CHUNK, n_paths - lo))
        for lo in range(0, n_paths, _CHUNK)
    )


def simulate_paths(
    model: VolModel,
    start,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
) -> PathSet:
    """Euler-step n_paths trajectories of (X, V) from start = (x0, v0).

    Raises InvalidPathBudgetError when more than 0.1% of paths go
    non-finite.  Identical inputs reproduce the PathSet bitwise, and the
    first n rows do not depend on n_paths.
    """
    chunks = _path_chunks(model, start, grid, n_paths, master_seed)  # validates first
    xs = np.empty((n_paths, grid.n_steps + 1))
    vs = np.empty((n_paths, grid.n_steps + 1))
    for lo, x, v in chunks:
        xs[lo:lo + len(x)] = x
        vs[lo:lo + len(v)] = v
    invalid = ~_finite_rows(xs, vs)
    _check_path_budget(int(invalid.sum()), n_paths)
    return PathSet(grid=grid, x=xs, v=vs, master_seed=master_seed, invalid=invalid)


def exact_price(grid: TimeGrid, v_path, dw_hat, drift_b, theta_fn, s0: float) -> np.ndarray:
    """Stochastic-exponential price along one trajectory.

    v_path holds V on the grid nodes, dw_hat the n_steps combined price
    increments.  The recursion S_{k+1} = S_k exp(theta dw + (b - theta^2/2) dt)
    matches exp(X) node-for-node when driven by the same increments.
    """
    v_path = np.asarray(v_path, dtype=float)
    dw_hat = np.asarray(dw_hat, dtype=float)
    if v_path.shape[0] != grid.n_steps + 1 or dw_hat.shape[0] != grid.n_steps:
        raise InvariantError("v_path/dw_hat lengths do not match the grid")
    nodes = grid.nodes
    dt = grid.dt
    out = np.empty(grid.n_steps + 1)
    out[0] = s0
    log_s = math.log(s0)
    for k in range(grid.n_steps):
        t = nodes[k]
        th = float(theta_fn(t, v_path[k]))
        b = float(drift_b(t))
        log_s += th * dw_hat[k] + (b - 0.5 * th * th) * dt
        out[k + 1] = math.exp(log_s)
    return out


@dataclass(frozen=True)
class MomentReport:
    """Sampled moment envelopes versus their model bounds."""

    v_mean_abs: np.ndarray
    v_bound: np.ndarray
    v_stderr: np.ndarray
    v_violations: int
    x_sup_mean: float
    x_sup_stderr: float
    x_bound: float
    ok: bool


def moment_report(paths: PathSet, model: VolModel) -> MomentReport:
    """Check sampled E|V_t| and E[sup |X|] against the coefficient envelopes.

    Needs the model's drift and theta envelopes; violations beyond three
    standard errors clear the ok flag.
    """
    if model.drift_envelope is None or model.theta_envelope is None:
        raise InvariantError("model carries no moment envelopes")
    k_zeta, l_zeta = model.drift_envelope
    k_theta, lam_theta = model.theta_envelope
    grid = paths.grid
    nodes = grid.nodes
    v = paths.valid_v()
    x = paths.valid_x()
    n = v.shape[0]

    av = np.abs(v)
    v_mean = av.mean(axis=0)
    v_stderr = av.std(axis=0, ddof=1) / math.sqrt(n)

    # E|V_t| <= e^{int l} |v0| + int_t0^t e^{int_s^t l} k(s) ds, trapezoid in s.
    l_vals = on_times(l_zeta, nodes)
    k_vals = on_times(k_zeta, nodes)
    cum_l = np.concatenate([[0.0], np.cumsum((l_vals[1:] + l_vals[:-1]) * 0.5 * grid.dt)])
    v_bound = np.empty_like(v_mean)
    for i in range(len(nodes)):
        decay = np.exp(cum_l[i] - cum_l[: i + 1])
        integ = np.trapezoid(decay * k_vals[: i + 1], nodes[: i + 1]) if i > 0 else 0.0
        v_bound[i] = math.exp(cum_l[i]) * v_mean[0] + integ
    v_violations = int(np.sum(v_mean > v_bound + 3.0 * v_stderr + 1e-12))

    sup_x = np.abs(x).max(axis=1)
    x_sup_mean = float(sup_x.mean())
    x_sup_stderr = float(sup_x.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    b_abs = np.abs(on_times(model.drift_b, nodes))
    kt = on_times(k_theta, nodes)
    lt = on_times(lam_theta, nodes)
    int_b_kt2 = float(np.trapezoid(b_abs + kt**2, nodes))
    int_kt2 = float(np.trapezoid(kt**2, nodes))
    int_lt2 = float(np.trapezoid(lt**2, nodes))
    c0 = int_b_kt2 + 2.0 * math.sqrt(int_kt2) + math.sqrt(int_lt2)
    c1 = int_lt2 + math.sqrt(int_lt2)
    x_bound = abs(float(x[0, 0])) + c0 + c1 * float(v_mean.max())
    ok = v_violations == 0 and x_sup_mean <= x_bound + 3.0 * x_sup_stderr
    return MomentReport(
        v_mean_abs=v_mean,
        v_bound=v_bound,
        v_stderr=v_stderr,
        v_violations=v_violations,
        x_sup_mean=x_sup_mean,
        x_sup_stderr=x_sup_stderr,
        x_bound=x_bound,
        ok=ok,
    )


@dataclass(frozen=True)
class PositivityPathReport:
    min_v: float
    frac_nonpositive: float
    n_paths: int
    n_steps: int


def positivity_report(paths: PathSet) -> PositivityPathReport:
    """Minimum simulated variance and the share of (path, node) pairs <= 0."""
    v = paths.valid_v()
    return PositivityPathReport(
        min_v=float(v.min()),
        frac_nonpositive=float((v <= 0.0).mean()),
        n_paths=int(v.shape[0]),
        n_steps=paths.grid.n_steps,
    )
