import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from xvamild import simulate
from xvamild.simulate import (
    _CHUNK,
    InvalidPathBudgetError,
    PathSet,
    TimeGrid,
    positivity_report,
    simulate_paths,
)
from xvamild.volmodel import (
    WORK_PLANES,
    InvariantError,
    PowerParams,
    VolModel,
    as_time_fn,
    black_scholes_params,
    build_power_model,
    garch_params,
    heston_params,
    measure_change,
    on_times,
    sampled_sup,
)
from paper_refs import power_envelopes

X0 = math.log(100.0)


def bs_model(b=0.0):
    return build_power_model(black_scholes_params(drift_b=b))


def heston_model(rho=0.0):
    return build_power_model(heston_params(k=0.08, l0=2.0, lam=0.3, rho=rho))


def test_time_grid_validation():
    with pytest.raises(InvariantError, match="horizon"):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(InvariantError, match="n_steps"):
        TimeGrid(0.0, 1.0, 0)
    g = TimeGrid(0.0, 2.0, 8)
    assert g.dt == 0.25
    assert len(g.nodes) == 9


def test_degenerate_model_terminal_law():
    # V frozen, X_T ~ N(x0 - v0/2 * T, v0 * T); KS and moment checks.
    grid = TimeGrid(0.0, 1.0, 50)
    ps = simulate_paths(bs_model(), (X0, 0.04), grid, 20_000, master_seed=101)
    assert ps.n_invalid == 0
    assert np.all(ps.v == 0.04)
    xt = ps.x[:, -1]
    n = len(xt)
    assert xt.mean() == pytest.approx(X0 - 0.02, abs=3 * 0.2 / math.sqrt(n))
    ks = stats.kstest(xt, "norm", args=(X0 - 0.02, 0.2)).statistic
    assert ks <= 0.02


def test_zero_noise_is_the_ode():
    grid = TimeGrid(0.0, 1.0, 40)
    model = build_power_model(
        dataclasses.replace(black_scholes_params(drift_b=0.07), theta1=0.0)
    )
    ps = simulate_paths(model, (1.0, 0.0), grid, 3, master_seed=0)
    assert np.allclose(ps.x, 1.0 + 0.07 * grid.nodes, atol=1e-12)
    assert np.allclose(ps.v, 0.0)


def test_bitwise_determinism_across_threads_and_prefix():
    grid = TimeGrid(0.0, 1.0, 30)
    a = simulate_paths(heston_model(), (X0, 0.04), grid, 9000, master_seed=5)
    c = simulate_paths(heston_model(), (X0, 0.04), grid, 123, master_seed=5)
    assert np.array_equal(a.x[:123], c.x)
    d = simulate_paths(heston_model(), (X0, 0.04), grid, 9000, master_seed=6)
    assert not np.array_equal(a.x, d.x)


def _path_increments(grid: TimeGrid, master_seed: int, path_id: int):
    """Re-derive the (dW, dW~) increments the engine used for one path.

    This stays numpy-native, a generator seeded from [master_seed, path_id],
    so it is the reference the engine's own seed hash is checked against.
    """
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, path_id]))
    z = rng.standard_normal((grid.n_steps, 2))
    scale = math.sqrt(grid.dt)
    return z[:, 0] * scale, z[:, 1] * scale


def test_path_increments_reproduce_the_engine():
    grid = TimeGrid(0.0, 0.5, 25)
    model = heston_model(rho=-0.4)
    ps = simulate_paths(model, (X0, 0.04), grid, 3, master_seed=77)
    for i in range(3):
        dw, dwt = _path_increments(grid, 77, i)
        x, v = X0, 0.04
        for k in range(grid.n_steps):
            t = grid.nodes[k]
            th = float(model.vol_of_price(t, v))
            rho = model.correlation(t)
            x = x + (0.0 - 0.5 * th * th) * grid.dt + th * (
                math.sqrt(1 - rho * rho) * dw[k] + rho * dwt[k]
            )
            v = (
                v
                + float(model.drift_v(t, v)) * grid.dt
                + float(model.vol_of_v(t, v)) * dwt[k]
            )
        assert x == pytest.approx(ps.x[i, -1], rel=1e-12)
        assert v == pytest.approx(ps.v[i, -1], rel=1e-12)


@pytest.mark.parametrize("seed", [0, 77, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 7])
def test_engine_streams_match_list_seeding_bit_for_bit(monkeypatch, seed):
    # The engine hashes a chunk's seeds itself; numpy seeds path i from the
    # list [seed, i].  2**100 + 7 has four words, so with the path id the
    # entropy runs past SeedSequence's 4-word pool.  A uint32 overflow in a
    # scalar, not an array, would warn, and the warning fails the test.
    grid = TimeGrid(0.0, 0.5, 3)
    filled = {}
    real_fill = simulate._fill_noise

    def keep(out, master_seed, lo):
        real_fill(out, master_seed, lo)
        filled[lo] = out.copy()  # the engine scales out in place into the increments

    def numpy_rows(ids):
        return [np.random.default_rng(np.random.SeedSequence([seed, i]))
                .standard_normal((grid.n_steps, 2)) for i in ids]

    monkeypatch.setattr(simulate, "_fill_noise", keep)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate_paths(bs_model(), (X0, 0.04), grid, _CHUNK + 2, master_seed=seed)
        top = np.empty((3, grid.n_steps, 2))
        real_fill(top, seed, 2**32 - 3)  # the largest path ids one uint32 word holds
    assert sorted(filled) == [0, _CHUNK]
    edges = (0, 1, _CHUNK - 2, _CHUNK - 1, _CHUNK, _CHUNK + 1)
    for path_id, row in zip(edges, numpy_rows(edges)):
        assert np.array_equal(filled[path_id // _CHUNK * _CHUNK][path_id % _CHUNK], row)
    for j, row in enumerate(numpy_rows(range(2**32 - 3, 2**32))):
        assert np.array_equal(top[j], row)


@pytest.mark.parametrize("n_chunks", [1, 2])
def test_no_generator_per_path(monkeypatch, n_chunks):
    calls = []
    for name in ("SeedSequence", "default_rng", "PCG64", "Generator"):
        real = getattr(np.random, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counted)
    n_paths = (n_chunks - 1) * _CHUNK + 904
    simulate_paths(bs_model(), (X0, 0.04), TimeGrid(0.0, 0.5, 4), n_paths, 3)
    for name in ("SeedSequence", "default_rng", "PCG64", "Generator"):
        assert calls.count(name) <= n_chunks, name


def test_valid_rows_are_the_arrays_themselves_unless_a_row_is_invalid():
    grid = TimeGrid(0.0, 1.0, 2)
    x = np.arange(12.0).reshape(4, 3)
    v = -x
    clean = PathSet(grid, x, v, 0, invalid=np.zeros(4, dtype=bool))
    assert clean.valid_x() is x and clean.valid_v() is v
    masked = PathSet(grid, x, v, 0, invalid=np.array([False, True, False, False]))
    assert np.array_equal(masked.valid_x(), x[[0, 2, 3]])
    assert np.array_equal(masked.valid_v(), v[[0, 2, 3]])
    assert not np.shares_memory(masked.valid_x(), x)


def _exact_price(grid: TimeGrid, v_path, dw_hat, drift_b, theta_fn, s0: float) -> np.ndarray:
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


def test_exact_price_matches_exp_x():
    grid = TimeGrid(0.0, 1.0, 60)
    model = heston_model(rho=0.3)
    ps = simulate_paths(model, (X0, 0.04), grid, 4, master_seed=9)
    for i in range(4):
        dw, dwt = _path_increments(grid, 9, i)
        rho = 0.3
        dw_hat = math.sqrt(1 - rho * rho) * dw + rho * dwt
        s = _exact_price(grid, ps.v[i], dw_hat, model.drift_b, model.vol_of_price, 100.0)
        assert np.allclose(s, np.exp(ps.x[i]), rtol=1e-12)


def test_exact_price_zero_vol_is_deterministic():
    grid = TimeGrid(0.0, 2.0, 10)
    s = _exact_price(
        grid,
        np.zeros(11),
        np.zeros(10),
        lambda t: 0.03,
        lambda t, v: 0.0,
        50.0,
    )
    assert np.allclose(s, 50.0 * np.exp(0.03 * grid.nodes), rtol=1e-12)


def test_driftless_price_mean_preserved():
    grid = TimeGrid(0.0, 1.0, 100)
    ps = simulate_paths(bs_model(b=0.0), (X0, 0.04), grid, 40_000, master_seed=21)
    st = np.exp(ps.x[:, -1])
    stderr = st.std(ddof=1) / math.sqrt(len(st))
    assert st.mean() == pytest.approx(100.0, abs=3 * stderr)


def test_square_root_variance_mean_matches_ode():
    # E[V_T] = v0 e^{-l0 T} + (k/l0)(1 - e^{-l0 T}); frozen 0.042706705664732254
    grid = TimeGrid(0.0, 1.0, 500)
    ps = simulate_paths(heston_model(), (0.0, 0.06), grid, 50_000, master_seed=3)
    vt = ps.v[:, -1]
    stderr = vt.std(ddof=1) / math.sqrt(len(vt))
    assert vt.mean() == pytest.approx(0.042706705664732254, abs=3 * stderr)


def test_increment_correlation_recovered():
    # Constant-coefficient model so the increments can be inverted exactly.
    rho = 0.6
    model = VolModel(
        drift_b=lambda t: 0.0,
        coefficients=lambda t, v, work=None: (0.3, 0.0, 0.2),
        correlation=lambda t: rho,
    )
    grid = TimeGrid(0.0, 1.0, 20)
    ps = simulate_paths(model, (0.0, 1.0), grid, 4000, master_seed=13)
    dx = np.diff(ps.x, axis=1)
    dv = np.diff(ps.v, axis=1)
    dw_hat = (dx + 0.5 * 0.09 * grid.dt) / 0.3
    dwt = dv / 0.2
    r = np.corrcoef(dw_hat.ravel(), dwt.ravel())[0, 1]
    n = dw_hat.size
    assert r == pytest.approx(rho, abs=3.0 * (1 - rho**2) / math.sqrt(n))


def test_positivity_report_square_root_model():
    grid = TimeGrid(0.0, 1.0, 500)
    ps = simulate_paths(heston_model(), (0.0, 0.04), grid, 5000, master_seed=7)
    rep = positivity_report(ps)
    assert rep.frac_nonpositive <= 0.01
    # no-noise variance never leaves v0
    ps2 = simulate_paths(bs_model(), (0.0, 0.04), grid, 100, master_seed=7)
    assert positivity_report(ps2).frac_nonpositive == 0.0
    assert positivity_report(ps2).min_v == 0.04


@dataclasses.dataclass(frozen=True)
class _MomentReport:
    """Sampled moment envelopes versus their model bounds."""

    v_mean_abs: np.ndarray
    v_bound: np.ndarray
    v_stderr: np.ndarray
    v_violations: int
    x_sup_mean: float
    x_sup_stderr: float
    x_bound: float
    ok: bool


def _moment_report(paths: PathSet, model: VolModel, drift_envelope, theta_envelope) -> _MomentReport:
    """Check sampled E|V_t| and E[sup |X|] against the coefficient envelopes.

    drift_envelope (k, l) bounds sgn(v) zeta(t, v) <= k(t) + l(t)|v| and
    theta_envelope (k, lam) bounds |theta(t, v)| <= k(t) + lam(t) sqrt(v+),
    as ``power_envelopes`` states them; violations beyond three standard
    errors clear the ok flag.
    """
    if drift_envelope is None or theta_envelope is None:
        raise InvariantError("model carries no moment envelopes")
    k_zeta, l_zeta = drift_envelope
    k_theta, lam_theta = theta_envelope
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
    return _MomentReport(
        v_mean_abs=v_mean,
        v_bound=v_bound,
        v_stderr=v_stderr,
        v_violations=v_violations,
        x_sup_mean=x_sup_mean,
        x_sup_stderr=x_sup_stderr,
        x_bound=x_bound,
        ok=ok,
    )


HESTON_ENVELOPES = power_envelopes(heston_params(k=0.08, l0=2.0, lam=0.3), 0.0)


def test_moment_report_bounds_hold():
    grid = TimeGrid(0.0, 1.0, 200)
    ps = simulate_paths(heston_model(), (X0, 0.04), grid, 5000, master_seed=15)
    rep = _moment_report(ps, heston_model(), *HESTON_ENVELOPES)
    assert rep.ok
    assert rep.v_violations == 0
    assert rep.x_sup_mean <= rep.x_bound


def test_moment_report_flags_a_wrong_envelope():
    grid = TimeGrid(0.0, 1.0, 100)
    model = heston_model()
    ps = simulate_paths(model, (X0, 0.04), grid, 5000, master_seed=15)
    # understate the drift envelope: k = 0 forces a decaying bound
    broken = (lambda t: 0.0, lambda t: -2.0)
    rep = _moment_report(ps, model, broken, HESTON_ENVELOPES[1])
    assert rep.v_violations > 0 and not rep.ok


def test_moment_report_requires_envelopes():
    grid = TimeGrid(0.0, 1.0, 10)
    model = heston_model()
    ps = simulate_paths(model, (X0, 0.04), grid, 50, master_seed=1)
    with pytest.raises(InvariantError, match="envelope"):
        _moment_report(ps, model, None, HESTON_ENVELOPES[1])


def test_invalid_path_budget_enforced():
    model = VolModel(
        drift_b=lambda t: 0.0,
        coefficients=lambda t, v, work=None: (1e200, 0.0, 0.0),
        correlation=lambda t: 0.0,
    )
    with pytest.raises(InvalidPathBudgetError):
        simulate_paths(model, (0.0, 1.0), TimeGrid(0.0, 1.0, 5), 100, master_seed=2)


def test_start_state_validation():
    with pytest.raises(InvariantError, match="start"):
        simulate_paths(bs_model(), (math.nan, 0.04), TimeGrid(0.0, 1.0, 5), 10, 1)
    with pytest.raises(InvariantError, match="master_seed"):
        simulate_paths(bs_model(), (0.0, 0.04), TimeGrid(0.0, 1.0, 5), 10, -4)


# -- the power family's coefficient function against its formulas -----------------

STEP_PARAMS = {
    "heston": heston_params(k=0.05, l0=1.0, lam=0.3, rho=-0.5, drift_b=0.02),
    "garch": garch_params(k=0.04, l0=0.8, lam=0.5, rho=0.3),
    "black_scholes": black_scholes_params(drift_b=0.01),
    # a negative lam makes eta -0.0 at v = 0 unless its sum starts from +0.0
    "negative_lam": PowerParams(k=0.04, l0=0.5, lam=(-0.3,), beta=(0.5,), rho=0.2),
    "two_terms": PowerParams(
        k=lambda t: 0.05 + 0.02 * t, l0=0.7, l=(-0.3, lambda t: -0.1 - 0.05 * t),
        alpha=(1.0, 1.5), lam=(0.3, lambda t: 0.1 + 0.2 * t), beta=(0.5, 0.75),
        theta0=0.01, theta1=lambda t: 1.0 + 0.5 * t, drift_b=0.02, rho=-0.4,
    ),
}

# negatives, both zeros, subnormals, the largest floats, infinities and NaN
V_EDGE = np.array([
    -1.0, -0.04, -0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-300, 0.04, 0.25,
    3.0, 1e154, 1.7e308, -1.7e308, np.inf, -np.inf, np.nan,
])


def reference_coefficients(params, gamma=None):
    """(theta, zeta, eta) of the power family as three functions of (t, v),
    one numpy expression per PowerParams formula, plus the vol-of-vol
    premium -gamma(t) eta(t, v+) theta(t, v+) in zeta when gamma is given.
    The model's coefficient function must give these bits."""
    k, l0 = as_time_fn(params.k), as_time_fn(params.l0)
    ls = [as_time_fn(li) for li in params.l]
    alphas = [float(a) for a in params.alpha]
    lams = [as_time_fn(li) for li in params.lam]
    betas = [float(b) for b in params.beta]
    theta0, theta1 = as_time_fn(params.theta0), as_time_fn(params.theta1)

    def zeta(t, v):
        vp = np.maximum(v, 0.0)
        out = k(t) - l0(t) * vp
        for li, a in zip(ls, alphas):
            out = out + li(t) * vp**a
        return out

    def eta(t, v):
        av = np.abs(v)
        out = 0.0
        for li, b in zip(lams, betas):
            out = out + li(t) * av**b
        return out if lams else np.zeros_like(np.asarray(v, dtype=float))

    def theta(t, v):
        return theta0(t) + theta1(t) * np.sqrt(np.abs(v))

    if gamma is None:
        return theta, zeta, eta
    gamma_fn = as_time_fn(gamma)

    def zeta_q(t, v):
        out, g = zeta(t, v), gamma_fn(t)
        if g != 0.0:
            vp = np.maximum(v, 0.0)
            out = out - g * eta(t, vp) * theta(t, vp)
        return out

    return theta, zeta_q, eta


def priced(name, gamma):
    """The STEP_PARAMS model under measure_change at rate 0.03, its theta
    asserted to vanish at v = 0 so that every member takes a premium."""
    model = build_power_model(STEP_PARAMS[name], horizon=1.0)
    model = dataclasses.replace(model, theta_vanishes_at_zero=True)
    return measure_change(model, 0.03, gamma, horizon=1.0)


def step_states(seed=5):
    rng = np.random.default_rng(seed)
    v = np.stack([V_EDGE, np.abs(rng.standard_normal(V_EDGE.size)) * 0.05,
                  rng.standard_normal(V_EDGE.size) * 0.05])
    x = X0 + 0.1 * rng.standard_normal(v.shape)
    dw, dwt = (rng.standard_normal(V_EDGE.size) * 0.1 for _ in range(2))
    return x, v, dw, dwt


def reference_step(reference, table, k, t, x, v, dt, dw, dwt):
    """The Euler step through the reference coefficients, as one expression per state."""
    b, rho, c_w = table[0][k], table[1][k], table[2][k]
    theta, zeta, eta = (f(t, v) for f in reference)
    return (x + (b - 0.5 * theta * theta) * dt + theta * (c_w * dw + rho * dwt),
            v + zeta * dt + eta * dwt)


def stepped(model, reference, t_steps, dt=0.01):
    """Each step of _euler_step and of reference_step from the same states,
    at each time, as bytes."""
    x0, v0, dw, dwt = step_states()
    table = simulate._step_table(model, t_steps)
    work = np.empty((WORK_PLANES,) + x0.shape)
    out, ref = [], []
    with np.errstate(all="ignore"):
        for k, t in enumerate(t_steps):
            x, v = x0.copy(), v0.copy()
            simulate._euler_step(model, table, k, t, x, v, dt, dw, dwt, work)
            out.append(x.tobytes() + v.tobytes())
            xr, vr = reference_step(reference, table, k, t, x0, v0, dt, dw, dwt)
            ref.append(xr.tobytes() + vr.tobytes())
    return out, ref


T_STEPS = np.array([0.0, 0.1875, 0.5, 0.9])


@pytest.mark.parametrize("name", sorted(STEP_PARAMS))
@pytest.mark.parametrize("pricing", [False, True])
def test_joint_coefficients_step_bit_for_bit_like_the_callables(name, pricing):
    # pricing: under measure_change, without and with a vol-of-vol premium
    models = ([(priced(name, g), g) for g in (0.0, 0.2)] if pricing
              else [(build_power_model(STEP_PARAMS[name], horizon=1.0), None)])
    _, v, _, _ = step_states()
    work = np.empty((WORK_PLANES,) + v.shape)
    for model, gamma in models:
        reference = reference_coefficients(STEP_PARAMS[name], gamma)
        out, ref = stepped(model, reference, T_STEPS)
        assert out == ref
        with np.errstate(all="ignore"):
            for t in T_STEPS:
                want = [f(t, v) for f in reference]
                methods = (model.vol_of_price(t, v), model.drift_v(t, v), model.vol_of_v(t, v))
                for got in (model.coefficients(t, v, work), model.coefficients(t, v), methods):
                    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_a_premium_between_the_sampled_times_reaches_the_joint_route():
    # gamma is zero on [0, 0.5], where measure_change samples it, yet the
    # premium acts in the step at t = 0.9
    params = STEP_PARAMS["heston"]
    model = build_power_model(params, horizon=1.0)

    def late_gamma(t):
        return np.where(np.asarray(t) > 0.5, 0.4, 0.0)

    late = measure_change(model, 0.03, late_gamma, horizon=0.5)
    assert sampled_sup(late_gamma, 0.5) == 0.0
    out, ref = stepped(late, reference_coefficients(params, late_gamma), T_STEPS)
    assert out == ref
    plain = measure_change(model, 0.03, 0.0, horizon=0.5)
    assert out[-1] != stepped(plain, reference_coefficients(params, 0.0), T_STEPS)[0][-1]


def test_a_premium_or_a_replaced_coefficient_steps_through_the_callables():
    params = STEP_PARAMS["heston"]
    model = measure_change(build_power_model(params), 0.03, 0.0)
    plain_out = stepped(model, reference_coefficients(params, 0.0), T_STEPS)[0]
    premium = measure_change(build_power_model(params), 0.03, 0.2)

    def flat_theta(t, v):
        return 0.25 + 0.0 * np.abs(v)

    def flat_coefficients(t, v, work=None):
        _, zeta, eta = model.coefficients(t, v, work)
        return flat_theta(t, v), zeta, eta

    flat = dataclasses.replace(model, coefficients=flat_coefficients)
    _, zeta, eta = reference_coefficients(params, 0.0)
    for other, reference in ((premium, reference_coefficients(params, 0.2)),
                             (flat, (flat_theta, zeta, eta))):
        out, ref = stepped(other, reference, T_STEPS)
        assert out == ref
        assert all(a != b for a, b in zip(out, plain_out))
