import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import mevauction.equilibrium as equilibrium_module
import mevauction.revenue as revenue_module
from mevauction import (
    DEFAULT_EPSILON_GRID,
    PiecewiseStrategy,
    RevenueProfile,
    expected_revenue,
    revenue_derivative,
    revenue_sweep,
    run_many,
    solve_cutoff,
    solve_strategy,
    top_value_density,
    top_value_mean,
    top_value_quantile,
)
from mevauction.equilibrium import BidCurve, IndifferenceLevel
from mevauction.errors import (
    ConsistencyError,
    CutoffMonotonicityError,
    DegenerateCutoffError,
    ParameterError,
    SolverError,
)

from conftest import THEORY_PROFILES, curve_for, make_profile

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def strategy_for(profile, epsilon, curve):
    return solve_strategy(profile, epsilon, curve=curve)


def honest_revenue(curve, profile):
    """Honest first-price revenue: the curve's bid at every value, no cutoff."""
    honest = PiecewiseStrategy(curve, math.inf, profile.gamma, 0.0)
    return expected_revenue(0.0, honest, profile)


def direct_revenue(epsilon, strategy, profile):
    """One tight quad in ln v of the piecewise payoff against f1.

    The builder collects (1 - eps) b + eps max(b, gamma v) below the cutoff
    and gamma v at and above it.  Beyond the 1 - 1e-8 quantile of the top
    value the bid is frozen at its value there, the tail convention
    ``expected_revenue`` documents.
    """
    curve, gamma, v_star = strategy.curve, profile.gamma, strategy.cutoff
    cap = top_value_quantile(1.0 - 1e-8, profile)

    def payoff(v):
        if v >= v_star:
            return gamma * v
        b = curve.bid(min(v, cap))
        return (1.0 - epsilon) * b + epsilon * max(b, gamma * v)

    def integrand(s):
        v = math.exp(s)
        return payoff(v) * top_value_density(v, profile) * v

    # the payoff kinks where gamma*v crosses the bid: between grid nodes i and
    # i + 1 wherever the sign of gamma*v - b changes, found by root-finding
    gap = gamma * curve.grid - curve.bids
    kinks = [brentq(lambda v: gamma * v - curve.bid(v), curve.grid[i], curve.grid[i + 1])
             for i in np.flatnonzero(np.sign(gap[:-1]) * np.sign(gap[1:]) < 0)]
    breaks = [curve.v_min, curve.v_max, cap, v_star, *kinks]
    s_lo = profile.mu - 12.0 * profile.sigma
    s_hi = profile.mu + profile.sigma * (profile.sigma + 15.0)
    points = sorted(math.log(p) for p in breaks if s_lo < math.log(p) < s_hi)
    val, _ = quad(integrand, s_lo, s_hi, points=points,
                  epsabs=0.0, epsrel=1e-12, limit=1000)
    return val


class TestExpectedRevenue:
    def test_zero_rate_low_extractability_is_first_price(self, solved):
        profile, curve = solved(n=10, rho=0.4, gamma=0.05, sigma=0.5)
        strat = strategy_for(profile, 0.0, curve)
        assert strat.cutoff == math.inf
        r = expected_revenue(0.0, strat, profile)
        assert r == pytest.approx(honest_revenue(curve, profile), rel=1e-9)

    def test_full_replicability_mixes_bid_and_value(self, solved):
        # with gamma=1 nobody deters; defection hands the builder the full value
        profile, curve = solved(n=3, rho=0.2, gamma=1.0)
        strat = strategy_for(profile, 0.5, curve)
        assert strat.cutoff == math.inf
        expected = 0.5 * honest_revenue(curve, profile) + 0.5 * top_value_mean(profile)
        assert expected_revenue(0.5, strat, profile) == pytest.approx(expected, rel=1e-6)

    def test_matches_simulation(self, flagship):
        profile, curve = flagship
        strat = strategy_for(profile, 0.2, curve)
        r = expected_revenue(0.2, strat, profile)
        report = run_many(strat, profile, 400_000, seed=2024)
        z = (r - report.mean_builder_revenue) / report.stderr_builder_revenue
        assert abs(z) < 3.0

    @pytest.mark.parametrize(
        "params, epsilon",
        [({}, 0.2), ({}, 0.5), ({}, 0.7),
         ({"n": 50}, 0.2), ({"n": 50}, 0.5), ({"n": 50}, 0.7),
         ({"n": 3, "rho": 0.2, "gamma": 0.998}, 0.5), ({"gamma": 0.32}, 0.3),
         ({"gamma": 0.3}, 0.25), ({"gamma": 0.35}, 0.2)],
        ids=["flagship-0.2", "flagship-0.5", "flagship-0.7",
             "n50-0.2", "n50-0.5", "n50-0.7", "all_binding-0.5",
             # gamma*v crosses the bid near v = 90, in the bulk of f1
             "kink_in_bulk-0.3",
             # kinks where an oracle breakpoint at the grid node left of the
             # crossing, instead of at the crossing, is off by 1e-8 to 1e-7
             "kink_gamma_0.3-0.25", "kink_gamma_0.35-0.2"],
    )
    def test_matches_direct_quadrature(self, solved, params, epsilon):
        profile, curve = solved(**params)
        strat = strategy_for(profile, epsilon, curve)
        assert expected_revenue(epsilon, strat, profile) == pytest.approx(
            direct_revenue(epsilon, strat, profile), rel=1e-9)

    def test_quadrature_error_estimate_checked(self, flagship, monkeypatch):
        # a 1-node rule on every panel misses the closed-form mean of the
        # top value below the cap by more than the 1e-9 the table allows
        profile, curve = flagship
        strat = strategy_for(profile, 0.2, curve)
        x, w = np.polynomial.legendre.leggauss(1)
        monkeypatch.setattr(revenue_module, "_GL_X", x)
        monkeypatch.setattr(revenue_module, "_GL_W", w)
        with pytest.raises(SolverError):
            expected_revenue(0.2, strat, profile)
        with pytest.raises(SolverError):
            honest_revenue(curve, profile)

    def test_mismatched_epsilon_rejected(self, flagship):
        profile, curve = flagship
        strat = strategy_for(profile, 0.2, curve)
        with pytest.raises(ConsistencyError):
            expected_revenue(0.3, strat, profile)

    def test_bounds_when_threat_binds(self, solved):
        profile, curve = solved(n=4, rho=0.3, gamma=0.95)
        fpa = honest_revenue(curve, profile)
        top = top_value_mean(profile)
        for eps in (0.0, 0.3, 0.7):
            strat = strategy_for(profile, eps, curve)
            r = expected_revenue(eps, strat, profile)
            assert fpa - 1e-6 * fpa <= r <= top * (1 + 1e-9)


class TestRevenueDerivative:
    def test_never_binding_is_exactly_zero(self, solved):
        profile, curve = solved(n=10, rho=0.4, gamma=0.05, sigma=0.5)
        strat = strategy_for(profile, 0.4, curve)
        assert revenue_derivative(0.4, strat, profile) == 0.0

    def test_zero_rate_drops_boundary_term(self, solved):
        profile, curve = solved(n=3, rho=0.2, gamma=0.95)
        strat = strategy_for(profile, 0.0, curve)
        assert revenue_derivative(0.0, strat, profile) > 0.0

    def test_finite_difference_all_binding(self, solved):
        profile, curve = solved(n=3, rho=0.2, gamma=0.998)
        strat = strategy_for(profile, 0.3, curve)
        analytic = revenue_derivative(0.3, strat, profile)

        def rev(e):
            return expected_revenue(e, strategy_for(profile, e, curve), profile)

        fd = (rev(0.3 + 1e-4) - rev(0.3 - 1e-4)) / 2e-4
        assert analytic == pytest.approx(fd, rel=1e-3)

    def test_finite_difference_with_moving_cutoff(self, solved):
        # interior cutoff: the boundary term is live and must match FD
        profile, curve = solved(n=3, rho=0.2, gamma=0.95)
        strat = strategy_for(profile, 0.9, curve)
        assert math.isfinite(strat.cutoff)
        analytic = revenue_derivative(0.9, strat, profile)

        def rev(e):
            return expected_revenue(e, strategy_for(profile, e, curve), profile)

        fd = (rev(0.9 + 1e-4) - rev(0.9 - 1e-4)) / 2e-4
        assert analytic == pytest.approx(fd, rel=1e-3)

    def test_partial_binding_is_the_sweeps_derivative(self, flagship):
        profile, curve = flagship
        strat = strategy_for(profile, 0.2, curve)
        # the positive-part derivative is the exact Leibniz derivative
        val = revenue_sweep(profile, [0.2], curve=curve).derivatives[0]
        assert revenue_derivative(0.2, strat, profile) == val

        def rev(e):
            return expected_revenue(e, strategy_for(profile, e, curve), profile)

        fd = (rev(0.2 + 1e-4) - rev(0.2 - 1e-4)) / 2e-4
        assert val == pytest.approx(fd, abs=3e-5)

    @pytest.mark.parametrize("label", list(THEORY_PROFILES))
    def test_derivative_and_revenue_are_the_sweeps(self, label):
        # one derivative: the sweep's at every default rate, bit for bit
        profile = make_profile(**THEORY_PROFILES[label])
        curve = curve_for(profile)
        rp = revenue_sweep(profile, DEFAULT_EPSILON_GRID, curve=curve)
        strategies = [strategy_for(profile, eps, curve) for eps in DEFAULT_EPSILON_GRID]
        assert [revenue_derivative(eps, strat, profile)
                for eps, strat in zip(DEFAULT_EPSILON_GRID, strategies)] \
            == rp.derivatives.tolist()
        assert [expected_revenue(eps, strat, profile)
                for eps, strat in zip(DEFAULT_EPSILON_GRID, strategies)] \
            == rp.revenues.tolist()

    @pytest.mark.parametrize("label", [*THEORY_PROFILES, "gamma0.32"])
    def test_dense_sweep_is_the_one_rate_path(self, label, monkeypatch):
        # 200 rates and up to as many distinct cutoffs: the batched sweep and
        # the one-rate functions, bit for bit, at every rate.  The panel table
        # is free of the rate, so the one-rate calls share one
        profile = make_profile(**THEORY_PROFILES.get(label, {"gamma": 0.32}))
        curve = curve_for(profile)
        grid = np.linspace(0.0, 0.99, 200).tolist()
        rp = revenue_sweep(profile, grid, curve=curve)
        table = revenue_module._PanelTable(IndifferenceLevel(curve, profile.gamma), profile)
        monkeypatch.setattr(revenue_module, "_PanelTable", lambda *args: table)
        assert rp.cutoffs.tolist() == [solve_cutoff(curve, profile.gamma, eps) for eps in grid]
        strategies = [PiecewiseStrategy(curve, cut, profile.gamma, eps)
                      for eps, cut in zip(grid, rp.cutoffs.tolist())]
        assert rp.revenues.tolist() == [expected_revenue(eps, strat, profile)
                                        for eps, strat in zip(grid, strategies)]
        assert rp.derivatives.tolist() == [revenue_derivative(eps, strat, profile)
                                           for eps, strat in zip(grid, strategies)]

    @pytest.mark.parametrize("epsilon", [0.35, 0.5])
    @pytest.mark.parametrize("label", ["flagship", "n50"])
    def test_mixed_regime_matches_finite_difference(self, label, epsilon):
        # where the threat binds on only part of [v_min, v*)
        profile = make_profile(**THEORY_PROFILES[label])
        curve = curve_for(profile)
        assert IndifferenceLevel(curve, profile.gamma).regime == "mixed"

        def rev(e):
            return expected_revenue(e, strategy_for(profile, e, curve), profile)

        fd = (rev(epsilon + 1e-4) - rev(epsilon - 1e-4)) / 2e-4
        analytic = revenue_derivative(epsilon, strategy_for(profile, epsilon, curve), profile)
        assert math.isfinite(analytic)
        assert analytic == pytest.approx(fd, rel=1e-3)

    def test_flat_indifference_level_at_the_cutoff_raises(self):
        # a hand-built curve whose indifference rate steps up by 1e-14 at the
        # cutoff of rate 0.3: the cutoff moves by 1 / slope, which is not
        # defined there
        gamma = 0.8
        v = np.geomspace(0.05, 5000.0, 400)
        ebar = np.concatenate([np.linspace(0.1, 0.3, 200),
                               0.3 + 1e-14 + np.linspace(0.0, 0.2, 200)])
        curve = BidCurve(v, v * (gamma - ebar) / (1.0 - ebar))
        with pytest.raises(DegenerateCutoffError, match="flat at the cutoff"):
            revenue_sweep(make_profile(gamma=gamma), [0.3], curve=curve)


class TestEpsilonStar:
    def test_high_extractability_prefers_max_rate(self, solved):
        profile, curve = solved(n=3, rho=0.2, gamma=0.998)
        result = revenue_sweep(profile, DEFAULT_EPSILON_GRID, curve=curve)
        assert result.regime == "high_extractability"
        assert result.epsilon_star == DEFAULT_EPSILON_GRID[-1]
        assert np.all(np.diff(result.revenues) > 0)
        assert np.all(result.derivatives > 0)

    def test_low_extractability_flat(self, solved):
        profile, curve = solved(n=10, rho=0.4, gamma=0.05, sigma=0.5)
        result = revenue_sweep(profile, DEFAULT_EPSILON_GRID, curve=curve)
        assert result.regime == "low_extractability"
        level = result.revenues.max()
        assert result.revenues.max() - result.revenues.min() < 1e-6 * level
        assert result.epsilon_star == 0.0
        assert np.all(result.derivatives == 0.0)

    def test_near_flat_profile_reports_the_lowest_rate_on_any_grid(self, solved):
        # revenues within 1e-15 relative whose raw argmax is the last rate: the
        # default grid and the same rates passed in report one maximizer
        profile, curve = solved(n=5, rho=0.3, gamma=0.05, sigma=0.5)
        rp = revenue_sweep(profile, list(DEFAULT_EPSILON_GRID), curve=curve)
        assert int(np.argmax(rp.revenues)) == len(DEFAULT_EPSILON_GRID) - 1
        assert rp.epsilon_star == 0.0
        assert revenue_sweep(profile, [0.5], curve=curve).epsilon_star == 0.5

    def test_mixed_regime_reported(self, flagship):
        profile, curve = flagship
        result = revenue_sweep(profile, DEFAULT_EPSILON_GRID, curve=curve)
        assert result.regime == "mixed"
        assert np.all(np.isfinite(result.revenues))

    def test_sweep_integrates_once_per_cutoff(self, solved, monkeypatch):
        # one panel table per sweep and one batched parts call over the
        # distinct cutoffs: the all-binding rates share the infinite cutoff,
        # flagship has 15
        tables, calls = [], []
        real_table = revenue_module._PanelTable

        class CountingTable(real_table):
            def __init__(self, *args):
                tables.append(args)
                super().__init__(*args)

            def parts(self, cutoffs):
                calls.append(list(cutoffs))
                return super().parts(cutoffs)

        monkeypatch.setattr(revenue_module, "_PanelTable", CountingTable)
        for params, distinct in (({"n": 3, "rho": 0.2, "gamma": 0.998}, 1), ({}, 15)):
            profile, curve = solved(**params)
            tables.clear()
            calls.clear()
            rp = revenue_sweep(profile, DEFAULT_EPSILON_GRID, curve=curve)
            assert np.unique(rp.cutoffs).size == distinct
            assert len(tables) == 1
            assert len(calls) == 1
            assert sorted(calls[0]) == np.unique(rp.cutoffs).tolist()

    def test_sweep_evaluates_indifference_level_once(self, solved, monkeypatch):
        # ebar on the whole grid and its monotonicity scan are free of eps:
        # one evaluation serves every cutoff and the boundary term's slope
        real = equilibrium_module.indifference_epsilon
        full_grid = []

        def counting(v, curve, gamma):
            if np.size(v) == curve.grid.size:
                full_grid.append(gamma)
            return real(v, curve, gamma)

        monkeypatch.setattr(equilibrium_module, "indifference_epsilon", counting)
        profile, curve = solved()
        rp = revenue_sweep(profile, DEFAULT_EPSILON_GRID, curve=curve)
        assert np.any(rp.derivatives != 0.0) and np.any(np.isfinite(rp.cutoffs))
        assert len(full_grid) == 1

    def test_grid_validation(self, flagship):
        profile, curve = flagship
        with pytest.raises(ParameterError, match=r"within \[0, 1\)"):
            revenue_sweep(profile, np.linspace(0.0, 1.0, 21), curve=curve)

    def test_level_regime(self, solved):
        _, curve = solved(n=3, rho=0.2)
        assert IndifferenceLevel(curve, 0.998).regime == "high_extractability"
        assert IndifferenceLevel(curve, 0.74).regime == "mixed"

    def test_level_regime_needs_no_monotone_level(self):
        # the curve of test_non_monotone_raises_with_interval
        curve = BidCurve(grid=np.array([1.0, 2.0, 3.0, 4.0]),
                         bids=np.array([0.5, 1.4, 1.8, 2.6]))
        assert IndifferenceLevel(curve, 0.75).regime == "high_extractability"
        with pytest.raises(CutoffMonotonicityError):
            solve_cutoff(curve, 0.75, 0.2)

    @pytest.mark.parametrize("label", [*THEORY_PROFILES, "gamma0.32"])
    def test_sweep_cutoffs_are_solve_cutoff(self, label):
        # the sweep's cutoffs and solve_cutoff's, bit for bit, at every rate
        profile = make_profile(**THEORY_PROFILES.get(label, {"gamma": 0.32}))
        curve = curve_for(profile)
        rp = revenue_sweep(profile, DEFAULT_EPSILON_GRID, curve=curve)
        assert rp.cutoffs.tolist() == [solve_cutoff(curve, profile.gamma, eps)
                                       for eps in DEFAULT_EPSILON_GRID]


class TestReferenceSweep:
    @pytest.mark.parametrize("label", list(THEORY_PROFILES))
    def test_sweep_matches_reference(self, label):
        # revenues, regime and rate recorded by the benchmark's reference; the
        # cutoff at eps = 0.2 is the one its solve command records
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[label]
        profile = make_profile(**THEORY_PROFILES[label])
        result = revenue_sweep(profile, DEFAULT_EPSILON_GRID, curve=curve_for(profile))
        sweep = reference["sweep"]
        np.testing.assert_allclose(result.revenues, sweep["revenues"],
                                   rtol=1e-9, atol=0.0)
        assert result.regime == sweep["regime"]
        assert result.epsilon_star == sweep["epsilon_star"]
        cutoff = result.cutoffs[DEFAULT_EPSILON_GRID.index(0.2)]
        if reference["solve"]["cutoff"] == "inf":
            assert cutoff == math.inf
        else:
            assert cutoff == pytest.approx(float(reference["solve"]["cutoff"]), rel=1e-9)


class TestRevenueProfile:
    def test_invariants_enforced(self):
        with pytest.raises(ParameterError):
            RevenueProfile(
                epsilons=np.array([0.0, 0.0]),
                revenues=np.array([1.0, 1.0]),
                derivatives=np.array([0.0, 0.0]),
                cutoffs=np.array([1.0, 1.0]),
                regime="mixed",
            )
        with pytest.raises(ParameterError):
            RevenueProfile(
                epsilons=np.array([0.0, 0.5]),
                revenues=np.array([1.0, 1.0]),
                derivatives=np.array([0.5, 0.5]),
                cutoffs=np.array([1.0, 1.0]),
                regime="low_extractability",
            )
