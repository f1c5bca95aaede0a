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
    """Row j gets path lo + j's normals: exactly what ``standard_normal``
    draws from numpy's ``default_rng(SeedSequence([master_seed, lo + j]))``.

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
