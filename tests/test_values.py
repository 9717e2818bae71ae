import math
import os
import signal
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr, logsumexp, ndtri
from scipy.stats import norm

from mevauction import (
    default_grid,
    ipv_bid,
    rival_max_cdf,
    rival_max_hazard_ratio,
    solve_bid_ode,
    top_value_cdf,
    top_value_density,
    top_value_mean,
    top_value_quantile,
    top_value_sf,
    top_value_tail_mean,
)
from mevauction import equilibrium, values
from mevauction.errors import DomainError, ParameterError, TailUnderflowError
from mevauction.rng import stream
from mevauction.values import _log_sum, affiliated_signal

from conftest import MU, SIGMA, make_profile


def draw_signals(profile, size, rng):
    """(Z, u, z) for ``size`` blocks of n signals, drawn in the engine's order:
    the common factors, then the idiosyncratic normals."""
    Z = rng.standard_normal(size)
    u = rng.standard_normal((size, profile.n))
    return Z, u, affiliated_signal(Z[:, None], u, profile.rho)


class TestSampling:
    def test_degenerate_dispersion(self):
        profile = make_profile(rho=0.0, sigma=0.0)
        _, _, z = draw_signals(profile, 1, stream(1))
        assert np.all(np.exp(profile.mu + profile.sigma * z) == math.exp(MU))

    def test_lognormal_location_recovered(self):
        # mean of ln v over 1e6 draws must sit at mu within 0.01
        profile = make_profile(rho=0.0)
        _, _, z = draw_signals(profile, 200_000, stream(7))
        logv = MU + SIGMA * z.ravel()
        assert abs(logv.mean() - MU) < 0.01

    def test_signal_correlation_matches_rho(self):
        profile = make_profile(n=2, rho=0.5)
        _, _, z = draw_signals(profile, 1_000_000, stream(11))
        corr = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
        assert abs(corr - 0.5) < 0.01

    def test_marginals_standard_normal(self):
        profile = make_profile(n=3, rho=0.7)
        _, _, z = draw_signals(profile, 400_000, stream(3))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_factor_reconstruction(self):
        Z, u, z = draw_signals(make_profile(rho=0.4), 3, stream(5))
        rebuilt = math.sqrt(0.4) * Z[:, None] + math.sqrt(0.6) * u
        np.testing.assert_allclose(z, rebuilt, rtol=1e-12)

    def test_seed_determinism(self):
        a = draw_signals(make_profile(), 4, stream(9))[2]
        b = draw_signals(make_profile(), 4, stream(9))[2]
        np.testing.assert_array_equal(a, b)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ParameterError):
            make_profile(n=1)
        with pytest.raises(ParameterError):
            make_profile(rho=1.0)
        with pytest.raises(ParameterError):
            make_profile(gamma=1.5)
        with pytest.raises(ParameterError):
            make_profile(sigma=-0.1)


class TestRivalMaxCdf:
    def test_limits(self):
        profile = make_profile()
        assert rival_max_cdf(1e12, 5.0, profile) > 1.0 - 1e-6
        assert rival_max_cdf(1e-10, 5.0, profile) < 1e-6

    def test_independent_case_factorizes(self):
        profile = make_profile(rho=0.0, n=6)
        for y in (0.5, 3.0, 40.0):
            expected = norm.cdf((math.log(y) - MU) / SIGMA) ** 5
            assert abs(rival_max_cdf(y, 7.7, profile) - expected) < 1e-10

    def test_matches_conditioned_monte_carlo(self):
        # oracle: simulate rivals given z_i pinned at (ln 5 - mu)/sigma
        profile = make_profile(n=3, rho=0.5)
        quad_val = rival_max_cdf(5.0, 5.0, profile)
        rng = stream(123)
        m = 10_000_000
        z_i = (math.log(5.0) - MU) / SIGMA
        post = math.sqrt(0.5) * z_i + math.sqrt(0.5) * rng.standard_normal(m)
        z_riv = math.sqrt(0.5) * post[:, None] + math.sqrt(0.5) * rng.standard_normal((m, 2))
        vmax = np.exp(MU + SIGMA * z_riv).max(axis=1)
        est = float(np.mean(vmax <= 5.0))
        se = math.sqrt(est * (1.0 - est) / m)
        assert abs(quad_val - est) < 3.0 * se

    def test_monotone_in_y_and_in_v(self):
        profile = make_profile(n=4, rho=0.5)
        ys = np.geomspace(0.01, 1e4, 40)
        h = rival_max_cdf(ys, np.full_like(ys, 3.0), profile)
        assert np.all(np.diff(h) >= 0)
        vs = np.geomspace(0.01, 1e4, 40)
        h_v = rival_max_cdf(np.full_like(vs, 10.0), vs, profile)
        # affiliation: a higher own value shifts rivals up, H falls
        assert np.all(np.diff(h_v) <= 1e-12)

    def test_domain_errors(self):
        profile = make_profile()
        with pytest.raises(DomainError):
            rival_max_cdf(-1.0, 5.0, profile)
        with pytest.raises(DomainError):
            rival_max_cdf(5.0, 0.0, profile)


class TestHazardRatio:
    def test_independent_reduction(self):
        profile = make_profile(rho=0.0, n=5)
        for v in (0.1, 2.0, 50.0):
            a = (math.log(v) - MU) / SIGMA
            f = norm.pdf(a) / (v * SIGMA)
            expected = 4 * f / norm.cdf(a)
            assert abs(rival_max_hazard_ratio(v, profile) - expected) < 1e-10 * expected

    def test_nonnegative(self):
        profile = make_profile(n=4, rho=0.6)
        vs = np.geomspace(1e-3, 1e6, 60)
        assert np.all(rival_max_hazard_ratio(vs, profile) >= 0)

    def test_finite_difference_oracle(self):
        profile = make_profile(n=4, rho=0.3)
        v = 10.0
        analytic = rival_max_hazard_ratio(v, profile)
        dy = 1e-4 * v
        fd = (math.log(rival_max_cdf(v + dy, v, profile))
              - math.log(rival_max_cdf(v - dy, v, profile))) / (2 * dy)
        assert abs(analytic - fd) < 1e-4 * abs(fd)

    def test_tail_underflow_signaled(self):
        profile = make_profile(n=40, rho=0.0)
        deep = math.exp(MU - 30.0 * SIGMA)
        with pytest.raises(TailUnderflowError):
            rival_max_hazard_ratio(deep, profile)


class TestTopValue:
    def test_independent_closed_form(self):
        profile = make_profile(rho=0.0, n=5)
        for v in (0.2, 3.0, 80.0):
            a = (math.log(v) - MU) / SIGMA
            f = norm.pdf(a) / (v * SIGMA)
            expected = 5 * f * norm.cdf(a) ** 4
            assert abs(top_value_density(v, profile) - expected) < 1e-10 * expected

    def test_density_normalizes(self):
        profile = make_profile(n=5, rho=0.5)
        cap = top_value_quantile(1.0 - 1e-9, profile)
        total, _ = quad(lambda v: top_value_density(v, profile), 0.0, cap,
                        points=[0.01, 1.0, 100.0, 1e4], limit=400)
        assert abs(total - 1.0) < 1e-4

    def test_cdf_matches_sampled_maxima(self):
        profile = make_profile(n=5, rho=0.5)
        _, _, z = draw_signals(profile, 1_000_000, stream(21))
        vmax = np.exp(MU + SIGMA * z).max(axis=1)
        grid = np.quantile(vmax, np.linspace(0.02, 0.98, 25))
        empirical = np.searchsorted(np.sort(vmax), grid, side="right") / vmax.size
        quadrature = top_value_cdf(grid, profile)
        assert np.max(np.abs(empirical - quadrature)) < 0.005

    def test_quantile_inverts_cdf(self):
        profile = make_profile(n=3, rho=0.2)
        for q in (0.1, 0.5, 0.999, 1.0 - 1e-8):
            v = top_value_quantile(q, profile)
            assert abs(top_value_cdf(v, profile) - q) < 1e-9

    def test_quantile_near_one_at_large_n(self):
        # 1 - (1 - q)/n rounds to 1 here, so the bracket's top comes from
        # the tail side of ndtri
        profile = make_profile(n=100)
        q = 1.0 - 1e-15
        assert not math.isfinite(ndtri(1.0 - (1.0 - q) / profile.n))
        v = top_value_quantile(q, profile)
        assert abs(top_value_cdf(v, profile) - q) <= 2.3e-16
        assert top_value_sf(v, profile) == pytest.approx(1e-15, rel=0.25)

    def test_sf_complements_cdf(self):
        profile = make_profile(n=4, rho=0.3)
        for v in (1.0, 100.0):
            assert abs(top_value_sf(v, profile) + top_value_cdf(v, profile) - 1.0) < 1e-12

    def test_tail_mean_against_monte_carlo(self):
        profile = make_profile(n=4, rho=0.3, sigma=1.0)
        _, _, z = draw_signals(profile, 2_000_000, stream(33))
        vmax = np.exp(profile.mu + profile.sigma * z).max(axis=1)
        for limit in (0.0, 5.0, 20.0):
            mc = float(np.mean(vmax * (vmax > limit)))
            se = float(np.std(vmax * (vmax > limit)) / math.sqrt(vmax.size))
            assert abs(top_value_tail_mean(limit, profile) - mc) < 4.0 * se

    @pytest.mark.parametrize("params", [{}, {"n": 50}, {"n": 4, "rho": 0.0}],
                             ids=["flagship", "n50", "independent"])
    def test_tail_mean_against_log_space_quadrature(self, params):
        # deterministic oracle: a tight quad of v * f1(v) dv = e^(2s) f1(e^s) ds
        profile = make_profile(**params)
        s_hi = profile.mu + profile.sigma * (profile.sigma + 15.0)

        def integrand(s):
            return math.exp(2.0 * s) * top_value_density(math.exp(s), profile)

        for q in (0.01, 0.5, 0.9, 0.999, 1.0 - 1e-6):
            limit = top_value_quantile(q, profile)
            oracle, _ = quad(integrand, math.log(limit), s_hi,
                             epsabs=0.0, epsrel=1e-13, limit=500)
            assert top_value_tail_mean(limit, profile) == pytest.approx(oracle, rel=1e-10)

    def test_mean_consistency(self):
        profile = make_profile(n=3, rho=0.4, sigma=0.8)
        assert abs(top_value_mean(profile) - top_value_tail_mean(0.0, profile)) < 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            top_value_density(-2.0, make_profile())

    @pytest.mark.parametrize("limit", [math.nan, math.inf, -1.0])
    def test_tail_mean_rejects_a_limit_outside_zero_to_inf(self, limit):
        with pytest.raises(DomainError):
            top_value_tail_mean(limit, make_profile())


# the five factor integrals, each as a function of one value array
FACTOR_INTEGRALS = {
    "rival_max_cdf": lambda v, profile: rival_max_cdf(v, v, profile),
    "rival_max_hazard_ratio": rival_max_hazard_ratio,
    "top_value_density": top_value_density,
    "top_value_cdf": top_value_cdf,
    "top_value_sf": top_value_sf,
}


def _factor_integral(log_term, loc=0.0, scale=1.0):
    """E[exp(log_term(Z))] for Z ~ N(loc, scale^2), by adaptive quad.

    The integrand is scaled by its peak, found on a fine grid, and the peak is
    passed to quad as a break point: deep in the left tail at n = 50 the mass
    sits far out in one tail of Z.
    """
    def log_integrand(z):
        return log_term(z) - 0.5 * ((z - loc) / scale) ** 2

    zs = loc + scale * np.linspace(-40.0, 40.0, 8001)
    with np.errstate(divide="ignore"):
        logs = log_integrand(zs)
        top = float(logs.max())
        val, _ = quad(lambda z: math.exp(log_integrand(z) - top), zs[0], zs[-1],
                      points=[zs[np.argmax(logs)]], epsabs=0.0, epsrel=1e-13, limit=500)
    return val * math.exp(top) / (scale * math.sqrt(2.0 * math.pi))


def _quad_oracle(name, v, profile):
    """The factor integral ``name`` at the value v, integrating over the
    prior density of Z or the posterior density of Z given v's own signal."""
    n, rho, mu, sigma = profile.n, profile.rho, profile.mu, profile.sigma
    s_perp = sigma * math.sqrt(1.0 - rho)

    def a(z):
        return (math.log(v) - mu - sigma * math.sqrt(rho) * z) / s_perp

    def log_pdf(z):
        return -0.5 * a(z) ** 2 - 0.5 * math.log(2.0 * math.pi) - math.log(v * s_perp)

    posterior = (math.sqrt(rho) * (math.log(v) - mu) / sigma, math.sqrt(1.0 - rho))
    if name == "rival_max_cdf":
        return _factor_integral(lambda z: (n - 1) * log_ndtr(a(z)), *posterior)
    if name == "rival_max_hazard_ratio":
        h = _factor_integral(
            lambda z: math.log(n - 1) + (n - 2) * log_ndtr(a(z)) + log_pdf(z), *posterior)
        return h / _factor_integral(lambda z: (n - 1) * log_ndtr(a(z)), *posterior)
    if name == "top_value_density":
        return _factor_integral(lambda z: math.log(n) + (n - 1) * log_ndtr(a(z)) + log_pdf(z))
    if name == "top_value_cdf":
        return _factor_integral(lambda z: n * log_ndtr(a(z)))
    return _factor_integral(lambda z: np.log(-np.expm1(n * log_ndtr(a(z)))))


class TestFactorIntegralsAgainstQuad:
    """Deterministic oracle for the Gauss-Hermite factor integrals at rho > 0.

    The rival functions are checked across the solver's grid (the 1e-4
    marginal quantile to the 1 - 1e-9 quantile of the highest value), the
    top-value functions from the 1e-4 to the 1 - 1e-9 quantile of the
    highest value.
    """

    @pytest.mark.parametrize("name", FACTOR_INTEGRALS)
    @pytest.mark.parametrize("n", [5, 50], ids=["flagship", "n50"])
    def test_matches_quad_over_the_factor_density(self, name, n):
        profile = make_profile(n=n)
        if name.startswith("rival"):
            grid = default_grid(profile)
            values = np.geomspace(grid.v_min, grid.v_max, 9)
        else:
            qs = [1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9]
            values = np.array([top_value_quantile(q, profile) for q in qs])
        got = FACTOR_INTEGRALS[name](values, profile)
        expected = [_quad_oracle(name, v, profile) for v in values]
        np.testing.assert_allclose(got, expected, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("name", FACTOR_INTEGRALS)
    @pytest.mark.parametrize("n", [5, 50], ids=["flagship", "n50"])
    def test_continuous_as_rho_goes_to_zero(self, name, n):
        independent, nearly = make_profile(n=n, rho=0.0), make_profile(n=n, rho=1e-16)
        grid = default_grid(independent)
        values = np.geomspace(grid.v_min, grid.v_max, 25)
        np.testing.assert_allclose(FACTOR_INTEGRALS[name](values, nearly),
                                   FACTOR_INTEGRALS[name](values, independent),
                                   rtol=1e-11, atol=0.0)


class TestShapeContract:
    """A scalar gives a float; an array gives an array of its size."""

    @pytest.mark.parametrize("name", FACTOR_INTEGRALS)
    @pytest.mark.parametrize("rho", [0.0, 0.3])
    def test_scalar_in_float_out_and_array_in_array_out(self, name, rho):
        profile = make_profile(rho=rho)
        fn = FACTOR_INTEGRALS[name]
        assert isinstance(fn(2.0, profile), float)
        one = fn(np.array([2.0]), profile)
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert fn(np.array([1.0, 2.0, 3.0]), profile).shape == (3,)

    @pytest.mark.parametrize("rho", [0.0, 0.3])
    def test_rival_max_cdf_broadcasts_y_against_v(self, rho):
        profile = make_profile(rho=rho)
        assert isinstance(rival_max_cdf(1.0, 2.0, profile), float)
        ys, vs = np.array([1.0, 2.0, 3.0]), np.array([0.5, 5.0])
        assert rival_max_cdf(ys, 2.0, profile).shape == (3,)
        assert rival_max_cdf(np.array([1.0]), 2.0, profile).shape == (1,)
        assert rival_max_cdf(1.0, vs, profile).shape == (2,)
        np.testing.assert_array_equal(rival_max_cdf(1.0, vs, profile),
                                      rival_max_cdf(np.full(2, 1.0), vs, profile))


class TestLogSum:
    def test_matches_scipy_logsumexp(self):
        rows = stream(17).normal(scale=10.0, size=(200, 96))
        np.testing.assert_allclose(_log_sum(rows), logsumexp(rows, axis=1),
                                   rtol=1e-15, atol=0.0)
        rows[::3, ::5] = -np.inf
        np.testing.assert_allclose(_log_sum(rows), logsumexp(rows, axis=1),
                                   rtol=1e-15, atol=0.0)

    def test_all_minus_inf_row_sums_to_minus_inf_without_warning(self):
        rows = np.array([[-np.inf] * 96, [0.0] + [-np.inf] * 95])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _log_sum(rows)
        assert out[0] == -np.inf and out[1] == 0.0


def _hazard_grid(profile):
    """The solver's hazard points: the default grid's nodes and midpoints."""
    spec = default_grid(profile)
    grid = np.exp(np.linspace(math.log(spec.v_min), math.log(spec.v_max), spec.nodes))
    return np.concatenate([grid, np.sqrt(grid[:-1] * grid[1:])])


# each blocked integral: (public call, its row kernel), both of (v, profile)
BLOCKED = {
    "rival_max_cdf": (lambda v, p: rival_max_cdf(0.5 * v, v, p),
                      lambda v, p: values._rival_cdf_rows(0.5 * v, v, p)),
    "rival_max_hazard_ratio": (rival_max_hazard_ratio, values._hazard_rows),
    "top_value_density": (top_value_density, values._density_rows),
    "top_value_cdf": (top_value_cdf, values._cdf_rows),
    "top_value_sf": (top_value_sf, values._sf_rows),
    "ipv_bid": (lambda v, p: ipv_bid(v, p.n, p.mu, p.sigma),
                lambda v, p: equilibrium._ipv_rows(v, p.n, p.mu, p.sigma)),
}


class TestBlocks:
    """Every factor integral runs over blocks of ``values._BLOCK`` own values."""

    @staticmethod
    def _peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name", BLOCKED)
    @pytest.mark.parametrize("profile", [make_profile(), make_profile(n=50),
                                         make_profile(rho=0.0)], ids=["flagship", "n50", "rho0"])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_blocks_change_no_bits(self, name, profile, cpus, monkeypatch):
        monkeypatch.setattr(values, "_usable_cpus", lambda: cpus)
        step = values._BLOCK // cpus  # the rows of a sub-block
        public, rows = BLOCKED[name]
        spec = default_grid(profile)
        inputs = [np.geomspace(spec.v_min, spec.v_max, size) for size in (1, 255, 256, 257, 513)]
        inputs.append(_hazard_grid(make_profile()))
        assert inputs[-1].size == 3999
        for v in inputs:
            out = public(v, profile)
            assert np.array_equal(out, rows(v, profile))
            ends = {i for lo in range(0, v.size, step)
                    for i in (lo, min(lo + step, v.size) - 1)}
            assert all(out[i] == public(float(v[i]), profile) for i in ends)

    @pytest.mark.parametrize("name", BLOCKED)
    def test_one_value_takes_no_cpu_count(self, name, monkeypatch):
        # a one-value call, such as each step of top_value_quantile's Brent
        # loop, runs its row kernel directly: no CPU count, the same bits as
        # that value's row in a blocked call and in the kernel
        public, rows = BLOCKED[name]
        profile = make_profile()
        v = np.array([3.0, 7.0])
        blocked = public(v, profile)

        def counted():
            raise AssertionError("a one-value call took the CPU count")

        monkeypatch.setattr(values, "_usable_cpus", counted)
        for one in (float(v[0]), v[:1]):
            out = np.atleast_1d(public(one, profile))
            assert np.array_equal(out, blocked[:1]) and np.array_equal(out, rows(v[:1], profile))
        with pytest.raises(AssertionError, match="CPU count"):
            public(v, profile)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_at_most_a_block_in_flight(self, cpus, monkeypatch):
        # at most one thread per CPU, each on _BLOCK // cpus rows at a time.
        # Each thread's first sub-block waits until every thread holds one, so
        # no pool thread is idle, free to take another share, when the next
        # share is submitted; a barrier that times out fails the test
        monkeypatch.setattr(values, "_usable_cpus", lambda: cpus)
        calls = []
        density_rows = values._density_rows
        started = threading.Barrier(cpus, timeout=30)

        def rows(vb, p):
            first = threading.get_ident() not in {t for t, _ in calls}
            calls.append((threading.get_ident(), vb.size))
            if first:
                started.wait()
            return density_rows(vb, p)

        monkeypatch.setattr(values, "_density_rows", rows)
        profile = make_profile()
        top_value_density(_hazard_grid(profile), profile)
        threads, sizes = zip(*calls)
        assert len(set(threads)) == cpus
        assert max(sizes) * cpus <= values._BLOCK and sum(sizes) == 3999

    def test_more_threads_than_cpus_change_no_bits(self, monkeypatch):
        # eight workers switching every microsecond write disjoint rows of
        # one output array
        monkeypatch.setattr(values, "_usable_cpus", lambda: 8)
        profile = make_profile()
        v = _hazard_grid(profile)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outs = [rival_max_hazard_ratio(v, profile) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        expected = values._hazard_rows(v, profile)
        assert all(np.array_equal(out, expected) for out in outs)

    def test_underflow_in_the_last_block_raises(self):
        profile = make_profile(n=40, rho=0.0)
        v = np.append(np.full(values._BLOCK, math.exp(MU)), math.exp(MU - 30.0 * SIGMA))
        assert np.all(np.isfinite(rival_max_hazard_ratio(v[:-1], profile)))
        with pytest.raises(TailUnderflowError):
            rival_max_hazard_ratio(v, profile)

    def test_underflow_in_a_pool_share_raises(self, monkeypatch):
        # two workers: the caller runs sub-blocks 0 and 2, the pool sub-block
        # 1, whose last row underflows
        monkeypatch.setattr(values, "_usable_cpus", lambda: 2)
        step = values._BLOCK // 2
        profile = make_profile(n=40, rho=0.0)
        v = np.full(3 * step, math.exp(MU))
        v[2 * step - 1] = math.exp(MU - 30.0 * SIGMA)
        raised_on = []
        hazard_rows = values._hazard_rows

        def rows(vb, p):
            try:
                return hazard_rows(vb, p)
            except TailUnderflowError:
                raised_on.append(threading.current_thread())
                raise

        monkeypatch.setattr(values, "_hazard_rows", rows)
        with pytest.raises(TailUnderflowError):
            rival_max_hazard_ratio(v, profile)
        assert len(raised_on) == 1 and raised_on[0] is not threading.current_thread()

    def test_no_thread_outlives_a_call(self, monkeypatch):
        monkeypatch.setattr(values, "_usable_cpus", lambda: 3)
        profile = make_profile(n=40, rho=0.0)
        v = np.full(values._BLOCK + 1, math.exp(MU))
        before = threading.active_count()
        rival_max_hazard_ratio(v, profile)
        assert threading.active_count() == before
        v[-1] = math.exp(MU - 30.0 * SIGMA)
        with pytest.raises(TailUnderflowError):
            rival_max_hazard_ratio(v, profile)
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_computes(self, monkeypatch):
        # no pool survives a call, so a child forked after one does not wait
        # on a worker thread that the fork left behind
        monkeypatch.setattr(values, "_usable_cpus", lambda: 2)
        profile = make_profile()
        v = _hazard_grid(profile)
        expected = rival_max_hazard_ratio(v, profile)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(10)
                code = 0 if np.array_equal(rival_max_hazard_ratio(v, profile), expected) else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0

    @pytest.mark.parametrize("n", [5, 50])
    def test_solve_memory_bounded(self, n):
        # the 3999-point hazard table holds one (256, 96) block at a time
        profile = make_profile(n=n)
        solve_bid_ode(profile)
        assert self._peak(lambda: solve_bid_ode(profile)) <= 2e6

    def test_ipv_memory_bounded(self):
        # 0.8 MB of output plus one (256, 480) block of 1 MB
        v = np.geomspace(1e-2, 1e4, 100_000)
        ipv_bid(v[:10], 5, MU, SIGMA)
        assert self._peak(lambda: ipv_bid(v, 5, MU, SIGMA)) <= 2e6
