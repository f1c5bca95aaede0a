"""The pinned inputs of the benchmark.

Two problems are used:

* the README config book (``book.json``, a verbatim copy of the config
  example in the top-level README), run through the ``xvamild`` command
  line by the ``desk_cli`` and ``verify_desk`` workloads;
* the acceptance ``xva_solution`` problem of ``tests/test_acceptance.py``
  (full XVA spec with both gamma-threshold default clocks, Heston under the
  pricing measure, 9 x 21 x 9 nodes, 32 Euler steps), solved in-process by
  ``grid_solve`` with fewer paths so that one solve fits a benchmark run.

A run derives the Monte Carlo master seed of each operation from its
``--seed`` (``op_seeds``).  Seeds are drawn from a fixed pool so that every
operation has a stored reference result in ``reference.json``.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
BOOK = HERE / "book.json"

SEED_POOL = 16  # master seeds 0 .. SEED_POOL-1 carry stored references

# -- grid_solve: the acceptance fixture, path count cut to fit a run ----------------

GRID_PATHS = 600
GRID_STEPS = 32
GRID_TOL = 1e-4
GRID_RATE = 0.03
GRID_T_END = 0.5
GRID_HULL = (4.0220, 5.0441, 1e-4, 0.2065)  # as in tests/test_acceptance.py
GRID_SHAPE = (9, 21, 9)

CAP = 30.0  # both problems price a call on 100 capped at 30


def op_seeds(workload: str, seed: int, count: int) -> list:
    """Master seeds of the first ``count`` operations of one run.

    Consecutive operations walk the pool from a start chosen by the seed,
    so a run never repeats a seed before it has used the whole pool.
    """
    start = random.Random(f"{workload}:{seed}").randrange(SEED_POOL)
    return [(start + i) % SEED_POOL for i in range(count)]


def load_book() -> dict:
    with open(BOOK, encoding="utf-8") as fh:
        return json.load(fh)


def grid_problem(master_seed: int, n_paths: int = GRID_PATHS, threads: int = 1):
    """(spec, model, t_nodes, x_nodes, v_nodes, mc) of the acceptance fixture."""
    import numpy as np

    from xvamild.defaultclock import DefaultSpec, PartyDefault
    from xvamild.mildsolver import McConfig
    from xvamild.special import GammaParams
    from xvamild.valuation import MarketSpec, capped_call
    from xvamild.volmodel import build_power_model, heston_params, measure_change

    spec = MarketSpec(
        rate=GRID_RATE,
        collateral_rate_pos=0.035, collateral_rate_neg=0.025,
        funding_rate_pos=0.05, funding_rate_neg=0.02,
        hedge_rate_pos=GRID_RATE, hedge_rate_neg=GRID_RATE,
        collateral_frac=0.5, closeout_frac=1.0,
        lgd_investor=0.6, lgd_counterparty=0.4,
        payoff=capped_call(100.0, CAP),
        defaults=DefaultSpec(
            investor=PartyDefault(0.10, GammaParams(1.0, 1.0)),
            counterparty=PartyDefault(lambda t: 0.15 + 0.1 * t, GammaParams(1.5, 1.0)),
        ),
    )
    phys = build_power_model(
        heston_params(k=0.05, l0=1.0, lam=0.3, rho=-0.5), horizon=GRID_T_END
    )
    model = measure_change(phys, GRID_RATE, 0.0, horizon=GRID_T_END)
    nt, nx, nv = GRID_SHAPE
    t_nodes = np.linspace(0.0, GRID_T_END, nt)
    x_nodes = np.linspace(GRID_HULL[0], GRID_HULL[1], nx)
    v_nodes = np.linspace(GRID_HULL[2], GRID_HULL[3], nv)
    mc = McConfig(n_paths=n_paths, n_steps=GRID_STEPS, master_seed=master_seed, threads=threads)
    return spec, model, t_nodes, x_nodes, v_nodes, mc


def sweep_work(rep, n_paths: int, n_steps: int) -> int:
    """Node-path-steps one picard_solve spent, from its PicardReport.

    Per slab: nodes x paths x (sum of slice lengths in master steps) x
    (1 terminal sweep + the driver sweeps the slab ran).
    """
    t_nodes = [float(t) for t in rep.u.t_nodes]
    t0, t1 = t_nodes[0], t_nodes[-1]
    dt = (t1 - t0) / n_steps
    idx = [int(round((t - t0) / dt)) for t in t_nodes]
    n_xv = len(rep.u.x_nodes) * len(rep.u.v_nodes)
    bounds = [int(round((b - t0) / dt)) for b in rep.slab_bounds]
    total = 0
    for (lo, hi), sweeps in zip(zip(bounds[:-1], bounds[1:]), rep.sweeps_per_slab):
        slice_steps = sum(hi - k for k in idx if lo <= k <= hi)
        total += n_xv * n_paths * slice_steps * (1 + sweeps)
    return total


def finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)
