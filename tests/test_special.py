import itertools
import math

import numpy as np
import pytest
from scipy import integrate, special as sp

from xvamild.special import (
    DomainError,
    GammaParams,
    SingularInputError,
    _log_q,
    gamma_hazard_factor,
    gamma_survival,
)
from xvamild.verify import _quad_tail

# Frozen quadrature values (scipy.integrate.quad on the defining integrals).
UPPER_25_13 = 1.0121136007032032
SURV_2_3_07 = 0.3796149275842439


def log_ugamma(shape, x):
    # log ugamma(shape, x) = log Gamma(shape) + log Q(shape, x), assembled from
    # the module's log Q as the hazard factor assembles it.
    return math.lgamma(shape) + float(_log_q(shape, np.array([float(x)]))[0][0])


def ugamma(shape, x):
    return math.exp(log_ugamma(shape, x))


def quad_survival(shape, rate, x):
    # Independent oracle: adaptive quadrature of the Gamma(shape, rate) density.
    # The density peak is factored out so quad works in relative mode even
    # when the tail mass underflows epsabs territory.
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


def test_frozen_upper_value():
    assert ugamma(2.5, 1.3) == pytest.approx(UPPER_25_13, rel=1e-10)


def test_frozen_survival_value():
    assert gamma_survival(GammaParams(2.0, 3.0), 0.7) == pytest.approx(
        SURV_2_3_07, rel=1e-10
    )


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 5.0, 50.0, 200.0])
def test_exponential_case_exact(x):
    assert ugamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-14)


@pytest.mark.parametrize("shape", [0.1, 0.7, 1.0, 2.5, 7.0, 30.0, 50.0])
def test_zero_argument_gives_gamma(shape):
    assert ugamma(shape, 0.0) == pytest.approx(
        math.exp(math.lgamma(shape)), rel=1e-13
    )
    assert gamma_survival(GammaParams(shape, 2.0), 0.0) == 1.0


@pytest.mark.parametrize("shape", [0.3, 1.0, 2.5, 12.0, 45.0])
@pytest.mark.parametrize("x", [1e-3, 0.4, 1.7, 6.0, 30.0, 90.0])
def test_against_quadrature(shape, x):
    oracle = quad_survival(shape, 1.0, x)
    mine = gamma_survival(GammaParams(shape, 1.0), x)
    assert mine == pytest.approx(oracle, rel=1e-10, abs=1e-300)


def test_against_scipy_random_points():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = float(rng.uniform(0.1, 50.0))
        x = float(rng.uniform(0.0, 200.0))
        ref = float(sp.gammaincc(a, x)) * math.exp(math.lgamma(a))
        if ref == 0.0:
            continue
        assert ugamma(a, x) == pytest.approx(ref, rel=1e-11)


# The verify check's own lattice, and a wider one around it.
CHECK_LATTICE = ((0.5, 1.0, 1.7, 2.5, 6.0), (0.4, 2.0), (0.05, 0.5, 1.8, 7.0))
WIDE_LATTICE = ((0.3, 0.5, 1.0, 1.7, 2.5, 6.0, 12.0), (0.1, 0.4, 2.0, 5.0),
                (0.01, 0.05, 0.5, 1.8, 7.0, 20.0))


@pytest.mark.parametrize("lattice, bound", [(CHECK_LATTICE, 1e-14), (WIDE_LATTICE, 1e-13)],
                         ids=["check", "wide"])
def test_verify_gauss_legendre_tail_matches_adaptive_quadrature(lattice, bound):
    # verify's fixed rule stands in for quad at run time; quad stays the oracle here.
    refs = {p: quad_survival(*p) for p in itertools.product(*lattice)}
    worst = max(abs(_quad_tail(*p) - ref) / ref for p, ref in refs.items())
    assert worst <= bound


def test_completeness_upper_plus_lower():
    # ugamma(a, x) + int_0^x y^(a-1) e^-y dy == Gamma(a)
    for a in (0.5, 1.0, 3.3, 20.0):
        for x in (0.2, 1.0, 4.0, 25.0):
            lower, _ = integrate.quad(
                lambda y: y ** (a - 1.0) * math.exp(-y), 0.0, x,
                epsabs=1e-14, epsrel=1e-13,
            )
            total = ugamma(a, x) + lower
            assert total == pytest.approx(math.gamma(a), rel=1e-10)


@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0, 5.0])
def test_survival_monotone_and_bounded(shape):
    params = GammaParams(shape, 1.7)
    xs = np.linspace(0.0, 40.0, 1000)
    g = gamma_survival(params, xs)
    assert g.shape == xs.shape
    assert np.all(g <= 1.0) and np.all(g >= 0.0)
    assert np.all(np.diff(g) <= 1e-15)


def test_log_space_branch_joins_smoothly():
    # Values just either side of the log-space switch must agree with scipy.
    for a in (29.9, 30.1, 42.0):
        for x in (3.0, 28.0, 70.0):
            ref = float(sp.gammaincc(a, x)) * math.exp(math.lgamma(a))
            assert ugamma(a, x) == pytest.approx(ref, rel=1e-11)
            assert log_ugamma(a, x) == pytest.approx(
                math.log(ref), rel=1e-11
            )


def test_hazard_factor_frozen_value():
    # shape 2, rate 1 at x=1: e^-1 / ugamma(2, 1) = 1/2 exactly.
    assert gamma_hazard_factor(GammaParams(2.0, 1.0), 1.0) == pytest.approx(
        0.5, rel=1e-12
    )


@pytest.mark.parametrize("shape,rate", [(0.7, 2.0), (1.0, 0.5), (2.0, 1.0), (5.5, 3.0)])
def test_hazard_matches_log_survival_slope(shape, rate):
    # Finite-difference oracle: factor == -d/dx log G(x).
    params = GammaParams(shape, rate)
    h = 1e-5
    for x in (0.2, 0.9, 2.4, 7.0):
        lo = math.log(gamma_survival(params, x - h))
        hi = math.log(gamma_survival(params, x + h))
        fd = -(hi - lo) / (2.0 * h)
        assert gamma_hazard_factor(params, x) == pytest.approx(fd, rel=1e-6)


def test_hazard_tends_to_rate():
    params = GammaParams(3.0, 2.5)
    assert gamma_hazard_factor(params, 80.0) == pytest.approx(2.5, rel=1e-2)


def test_hazard_boundary_conventions():
    assert gamma_hazard_factor(GammaParams(2.0, 3.0), 0.0) == 0.0
    assert gamma_hazard_factor(GammaParams(1.0, 3.0), 0.0) == 3.0
    with pytest.raises(SingularInputError):
        gamma_hazard_factor(GammaParams(0.5, 3.0), 0.0)


def test_domain_errors_name_the_argument():
    with pytest.raises(DomainError, match="shape"):
        GammaParams(-1.0, 2.0)
    with pytest.raises(DomainError, match="rate"):
        GammaParams(1.0, 0.0)
    with pytest.raises(DomainError, match="x"):
        gamma_survival(GammaParams(2.0, 1.0), -1.0)


@pytest.mark.parametrize("shape,rate", [(0.4, 1.3), (1.0, 0.8), (2.5, 2.0), (45.0, 1.0)])
@pytest.mark.parametrize("fn", [gamma_survival, gamma_hazard_factor])
def test_array_matches_elementwise_scalar_calls(fn, shape, rate):
    params = GammaParams(shape, rate)
    xs = np.array([[1e-3, 0.4, 1.7], [6.0, 30.0, 900.0]])
    got = fn(params, xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    scalars = [fn(params, float(x)) for x in xs.ravel()]
    assert all(isinstance(s, float) for s in scalars)
    np.testing.assert_array_equal(got.ravel(), scalars)


@pytest.mark.parametrize("u", [800.0, 2000.0])
def test_underflow_fallback_matches_closed_form(u):
    # ugamma(2, u) = (u + 1) e^-u, far below the smallest normal double here.
    assert sp.gammaincc(2.0, u) < 1e-300
    assert log_ugamma(2.0, u) == pytest.approx(
        math.log(u + 1.0) - u, rel=1e-14
    )
    params = GammaParams(2.0, 1.0)
    expect = u / (u + 1.0)
    assert gamma_hazard_factor(params, u) == pytest.approx(expect, rel=1e-13)
    arr = gamma_hazard_factor(params, np.array([1.0, u]))
    assert arr[0] == pytest.approx(0.5, rel=1e-12)
    assert arr[1] == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("shape", [0.3, 0.5, 0.99])
def test_hazard_singular_for_array_containing_zero(shape):
    params = GammaParams(shape, 2.0)
    with pytest.raises(SingularInputError, match="x=0"):
        gamma_hazard_factor(params, np.array([0.5, 0.0, 3.0]))
    assert np.all(np.isfinite(gamma_hazard_factor(params, np.array([0.5, 3.0]))))


def deep_points(shape):
    # At least 1000 abscissae from the first u where gammaincc underflows
    # below 1e-300 up to 1e8: dense just past the switch, geometric beyond.
    grid = np.geomspace(1.0, 1e8, 400_001)
    first = grid[sp.gammaincc(shape, grid) < 1e-300][0]
    u = np.unique(np.concatenate([np.linspace(first, first + 300.0, 500),
                                  np.geomspace(first, 1e8, 1000)]))
    assert np.all(sp.gammaincc(shape, u) < 1e-300) and u.size >= 1000
    return u


@pytest.mark.parametrize("n", [2, 3, 6])
def test_deep_tail_matches_integer_shape_closed_form(n):
    # ugamma(n, u) = (n-1)! e^-u sum_{k<n} u^k/k!, so with
    # S = sum_j (n-1)!/(n-1-j)! u^-j the hazard is rate / S and
    # log Q = -u + (n-1) log u - lgamma(n) + log S.
    u = deep_points(float(n))
    j = np.arange(n)
    coef = np.array([math.factorial(n - 1) / math.factorial(n - 1 - k) for k in j])
    s = (coef * u[:, None] ** -j).sum(axis=1)
    rate = 2.0
    hazard = gamma_hazard_factor(GammaParams(float(n), rate), u / rate)
    np.testing.assert_allclose(hazard, rate / s, rtol=1e-13, atol=0.0)
    log_q = -u + (n - 1) * np.log(u) - math.lgamma(n) + np.log(s)
    np.testing.assert_allclose(_log_q(float(n), u)[0], log_q, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("shape", [0.3, 2.5, 150.0])
def test_deep_tail_matches_gauss_laguerre_oracle(shape):
    # U(1, 1 + a, u) = u^-1 int_0^inf (1 + s/u)^(a-1) e^-s ds on 40 Laguerre
    # nodes; ugamma(a, u) = e^-u u^a U makes the hazard rate / (u U).
    u = deep_points(shape)
    s, w = np.polynomial.laguerre.laggauss(40)
    tricomi = (w * np.exp((shape - 1.0) * np.log1p(s / u[:, None]))).sum(axis=1) / u
    rate = 0.5
    hazard = gamma_hazard_factor(GammaParams(shape, rate), u / rate)
    np.testing.assert_allclose(hazard, rate / (u * tricomi), rtol=1e-12, atol=0.0)
    log_q = np.log(tricomi) + shape * np.log(u) - u - math.lgamma(shape)
    np.testing.assert_allclose(_log_q(shape, u)[0], log_q, rtol=1e-14, atol=0.0)
    # Monotone toward the rate: from below for shape > 1, from above below 1.
    gap = (rate - hazard) * np.sign(shape - 1.0)
    assert np.all(gap > 0.0) and np.all(np.diff(gap) < 0.0)
