import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from mevauction import (
    rival_max_cdf,
    rival_max_hazard_ratio,
    top_value_cdf,
    top_value_density,
    top_value_mean,
    top_value_quantile,
    top_value_sf,
    top_value_tail_mean,
)
from mevauction.errors import DomainError, ParameterError, TailUnderflowError
from mevauction.rng import stream
from mevauction.values import affiliated_signal

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
        # array in, array out, whatever the size; scalars give floats
        one = rival_max_cdf(np.array([1.0]), 2.0, profile)
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert isinstance(rival_max_cdf(1.0, 2.0, profile), float)

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
