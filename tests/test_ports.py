"""The numpy PCHIP, the Brent port and the IPV anchor, against their oracles.

The package imports only ``scipy.special`` from scipy.  Its interpolant
(``equilibrium._pchip`` and ``_ppoly``) must equal scipy's
``PchipInterpolator`` bit for bit, its root finder (``values._brentq``) must
equal ``scipy.optimize.brentq`` bit for bit, errors included, and the
independent-values anchor ``ipv_bid`` must agree with a 40-digit mpmath
quadrature.  scipy and mpmath stay in the tests as the oracles.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.special import ndtri

from mevauction import DEFAULT_EPSILON_GRID, equilibrium, ipv_bid, top_value_quantile, values
from mevauction.equilibrium import IndifferenceLevel, _pchip, _ppoly
from mevauction.errors import DomainError, ParameterError
from mevauction.profiles import MevType
from mevauction.values import _brentq

from conftest import MU, curve_for, make_profile

# the six profiles of scripts/compare_outputs.py: the benchmark's four theory
# profiles, rho = 0, and gamma = 0.32 (gamma*v crosses the bid in the bulk)
PROFILES = {
    "flagship": make_profile(),
    "all_binding": make_profile(n=3, rho=0.2, gamma=0.998, tau=MevType.SANDWICH),
    "never_binding": make_profile(n=10, rho=0.4, gamma=0.05, sigma=0.5,
                                  tau=MevType.LIQUIDATION),
    "n50": make_profile(n=50),
    "rho0": make_profile(rho=0.0),
    "gamma032": make_profile(gamma=0.32),
}
RATES = sorted({*DEFAULT_EPSILON_GRID, 0.0, 0.2, 0.5, 0.97})
DERIVATIVE = np.array([[3.0], [2.0], [1.0]])


def probe_points(x, seed=0, inside=200_000):
    """Nodes, midpoints, random points inside, both ends and points outside."""
    rng = np.random.default_rng(seed)
    span = x[-1] - x[0]
    return np.concatenate([
        x, 0.5 * (x[:-1] + x[1:]), rng.uniform(x[0], x[-1], inside),
        [x[0], x[-1], x[0] - 0.5 * span, x[0] - 1e-9 * span, x[-1] + 1e-9 * span,
         x[-1] + 2.0 * span],
    ])


def assert_pchip_matches(x, y, points):
    coef = _pchip(x, y)
    with np.errstate(over="ignore"):  # scipy warns where a secant is near 1e-308
        ref = PchipInterpolator(x, y)
    np.testing.assert_array_equal(_ppoly(x, coef, points), ref(points))
    np.testing.assert_array_equal(_ppoly(x, coef[:-1] * DERIVATIVE, points),
                                  ref.derivative()(points))


# ---------------------------------------------------------------------------
# PCHIP
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label", PROFILES)
def test_bid_curve_is_scipys_pchip(label):
    curve = curve_for(PROFILES[label])
    grid = curve.grid
    points = probe_points(grid)
    inside = points[(points >= grid[0]) & (points <= grid[-1])]
    np.testing.assert_array_equal(
        curve.bid(inside), PchipInterpolator(grid, curve.bids, extrapolate=False)(inside))
    # the evaluator itself extrapolates the end pieces, as scipy's does
    assert_pchip_matches(grid, curve.bids, points)


@pytest.mark.parametrize("label", PROFILES)
def test_indifference_slope_is_scipys_pchip_derivative(label):
    profile = PROFILES[label]
    level = IndifferenceLevel(curve_for(profile), profile.gamma)
    grid = level.curve.grid
    points = probe_points(grid, seed=1)
    ref = PchipInterpolator(grid, level.levels).derivative()
    np.testing.assert_array_equal(level.slope(points), ref(points))
    for v in (grid[0], grid[len(grid) // 3], float(points[-20]), grid[-1]):
        assert level.slope(v) == ref(v)
    assert_pchip_matches(grid, level.levels, points)


def _data(steps):
    """Abscissae and ordinates from a list of (dx, dy) steps."""
    x = np.cumsum([1.0] + [dx for dx, _ in steps])
    y = np.cumsum([0.5] + [dy for _, dy in steps])
    return x, y


_DX = st.floats(1e-3, 10.0)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.tuples(_DX, st.one_of(st.just(0.0), st.floats(0.0, 10.0))),
                      min_size=1, max_size=30),
       points=st.lists(st.floats(-5.0, 400.0), max_size=20))
def test_pchip_matches_scipy_on_monotone_data(steps, points):
    x, y = _data(steps)
    assert_pchip_matches(x, y, np.concatenate([probe_points(x, inside=50), points]))


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.tuples(_DX, st.floats(-10.0, 10.0)), min_size=1, max_size=30))
@example(steps=[(1.0, -0.5), (5.0, 1.5805172403500387e-307)])  # w / m overflows
def test_pchip_matches_scipy_where_the_data_turn(steps):
    x, y = _data(steps)
    assert_pchip_matches(x, y, probe_points(x, inside=50))


# ---------------------------------------------------------------------------
# Brent
# ---------------------------------------------------------------------------

def _with_solver(monkeypatch, module, solver, compute):
    monkeypatch.setattr(module, "_brentq", solver)
    try:
        return compute()
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("label", PROFILES)
def test_every_cutoff_and_kink_is_scipys_root(label, monkeypatch):
    profile = PROFILES[label]
    curve = curve_for(profile)

    def roots():
        level = IndifferenceLevel(curve, profile.gamma)
        return [level.cutoff(eps) for eps in RATES], level.kinks()

    ported = roots()
    assert ported == _with_solver(monkeypatch, equilibrium, brentq, roots)


def test_the_six_profiles_reach_the_root_finder(monkeypatch):
    # the comparison above is not vacuous: on the four profiles where the
    # threat binds only in part, every rate's cutoff is a root between nodes
    calls = []

    def counting(f, a, b, **kw):
        calls.append((a, b))
        return _brentq(f, a, b, **kw)

    monkeypatch.setattr(equilibrium, "_brentq", counting)
    for profile in PROFILES.values():
        level = IndifferenceLevel(curve_for(profile), profile.gamma)
        [level.cutoff(eps) for eps in RATES]
        level.kinks()
    assert len(calls) >= 4 * len(RATES)


@pytest.mark.parametrize("label", ["flagship", "never_binding", "n50"])
def test_top_value_quantile_is_scipys_root(label, monkeypatch):
    profile = PROFILES[label]
    qs = (1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-8)
    ported = [top_value_quantile(q, profile) for q in qs]
    assert ported == _with_solver(
        monkeypatch, values, brentq, lambda: [top_value_quantile(q, profile) for q in qs])


def _outcome(solver, f, a, b, **kw):
    try:
        return solver(f, a, b, **kw)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


# scipy's default tolerances; its rtol is also the smallest it accepts
SCIPY_TOL = {"xtol": 2e-12, "rtol": 4 * np.finfo(float).eps}


@pytest.mark.parametrize("f, a, b, kw", [
    (lambda x: x - 1.0, 0.0, 1.0, SCIPY_TOL),                    # exact zero at b
    (lambda x: x, 0.0, 1.0, SCIPY_TOL),                          # exact zero at a
    (lambda x: -0.0 if x < 0 else 1.0, -1.0, 1.0, SCIPY_TOL),    # a negative zero is a zero
    (lambda x: x * x + 1.0, -1.0, 1.0, SCIPY_TOL),               # one sign
    (lambda x: x * x - 1.0, -2.0, 2.0, SCIPY_TOL),               # one sign, two roots inside
    (lambda x: math.nan, 0.0, 1.0, SCIPY_TOL),                   # NaN at a
    (lambda x: x - 0.3 if abs(x - 0.3) >= 0.1 else math.nan, 0.0, 1.0, SCIPY_TOL),  # NaN inside
    (lambda x: math.tanh(50.0 * (x - 0.3)), -7.0, 3.0, dict(SCIPY_TOL, xtol=1e-15)),
])
def test_brentq_ends_and_errors_are_scipys(f, a, b, kw):
    assert _outcome(_brentq, f, a, b, **kw) == _outcome(brentq, f, a, b, **kw)


@pytest.mark.parametrize("maxiter", [3, 0])
def test_brentq_gives_up_as_scipy_does(maxiter, monkeypatch):
    monkeypatch.setattr(values, "_BRENT_MAXITER", maxiter)
    f = lambda x: x ** 3 - 0.3
    assert (_outcome(_brentq, f, 0.0, 1.0, **SCIPY_TOL)
            == _outcome(brentq, f, 0.0, 1.0, maxiter=maxiter, **SCIPY_TOL)
            == (RuntimeError, f"Failed to converge after {maxiter} iterations."))


def test_brentq_matches_scipy_on_random_functions():
    rng = np.random.default_rng(7)
    for k in range(600):
        c = rng.normal(size=4)
        r = rng.uniform(-2.0, 2.0)
        f = [
            lambda x: (x - r) * (1.0 + c[0] ** 2) + c[1] * (x - r) ** 3,
            lambda x: math.tanh(5.0 * c[0] * (x - r)),
            lambda x: math.expm1(x - r) + 0.1 * abs(c[2]) * (x - r) ** 2,
            lambda x: math.copysign(abs(x - r) ** (0.2 + abs(c[3])), x - r),
        ][k % 4]
        a, b = r - rng.uniform(0.01, 3.0), r + rng.uniform(0.01, 3.0)
        if k % 3 == 0:
            a, b = b, a
        kw = {"xtol": 10.0 ** rng.uniform(-14, -3),
              "rtol": max(10.0 ** rng.uniform(-15, -8), SCIPY_TOL["rtol"])}
        assert _outcome(_brentq, f, a, b, **kw) == _outcome(brentq, f, a, b, **kw), k


# ---------------------------------------------------------------------------
# the independent-values anchor
# ---------------------------------------------------------------------------

def mpmath_ipv_bid(v, n, mu, sigma):
    """b(v) = v (1 - J), J = int_0^inf e^-t (F(v e^-t) / F(v))^(n-1) dt, at
    40 digits.  ln F is concave, so the integrand is at most e^(-r t), where
    r = 1 + (n - 1) f(v) v / F(v) is its decay rate at t = 0; beyond
    t = 100 / r the tail is below e^-100 / r, which is dropped."""
    with mpmath.workdps(40):
        z = (mpmath.log(v) - mu) / sigma
        log_f0 = mpmath.log(mpmath.ncdf(z))
        scale = 1 / (1 + (n - 1) * mpmath.npdf(z) / (sigma * mpmath.ncdf(z)))

        def integrand(t):
            return mpmath.exp(-t + (n - 1) * (mpmath.log(mpmath.ncdf(z - t / sigma)) - log_f0))

        J, err = mpmath.quad(integrand, [0, scale, 10 * scale, 100 * scale],
                             method="gauss-legendre", error=True)
        assert err < mpmath.mpf(10) ** -30 * J
        return float(v * (1 - J))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 50, 200])
def test_ipv_bid_matches_mpmath(n):
    for sigma in (0.5, 1.5, 2.524):
        for q in (1e-6, 1e-4, 0.01, 0.3, 0.9, 0.999):
            v = math.exp(MU + sigma * float(ndtri(q)))
            oracle = mpmath_ipv_bid(v, n, MU, sigma)
            assert ipv_bid(v, n, MU, sigma) == pytest.approx(oracle, rel=1e-13, abs=0.0), \
                (n, sigma, q)


def test_ipv_bid_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        ipv_bid(1.0, 3, MU, 0.0)
    with pytest.raises(ParameterError):
        ipv_bid(1.0, 3, MU, -1.0)
    for bad in (0.0, -1.0, math.nan, math.inf, [1.0, math.nan], [2.0, -3.0], [1.0, 0.0]):
        with pytest.raises(DomainError):
            ipv_bid(bad, 3, MU, 1.5)


def test_ipv_bid_memory_is_bounded_and_blocks_agree():
    v = np.geomspace(1e-3, 1e4, 20_000)
    tracemalloc.start()
    try:
        bids = ipv_bid(v, 5, MU, 2.524)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (20000, 480) temporary would be 77 MB; a block's are about 4 MB each
    assert peak < 24e6, f"peak {peak / 1e6:.1f} MB"
    for k in (0, 1023, 1024, 19_999):
        assert bids[k] == ipv_bid(v[k], 5, MU, 2.524)
