import math
import tracemalloc

import numpy as np
import pytest

from mevauction import (
    deviation_payoff_grid,
    payoff_of_deviation,
    run_block,
    run_many,
    solve_strategy,
)
from mevauction.equilibrium import PiecewiseStrategy
from mevauction.errors import ParameterError
from mevauction.simulate import CHUNK

from conftest import marginal_quantile


class TestRunBlock:
    def test_no_defection_collects_bid(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.0, curve=curve)
        for seed in range(5):
            out = run_block(strat, profile, seed)
            assert not out.defected and not out.frontran
            assert out.builder_revenue == out.winning_bid
            assert out.searcher_surplus == pytest.approx(out.winner_value - out.winning_bid)

    def test_matches_single_block_report(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.6, curve=curve)
        out = run_block(strat, profile, seed=44)
        report = run_many(strat, profile, blocks=1, seed=44)
        assert report.mean_builder_revenue == out.builder_revenue
        assert report.mean_searcher_surplus == out.searcher_surplus
        assert report.defection_rate_realized == float(out.defected)

    def test_safe_winner_never_frontrun(self, solved):
        profile, curve = solved(n=4, rho=0.3, gamma=0.95)
        # cutoff at the grid bottom: every winner bids the deterrence level
        strat = PiecewiseStrategy(curve=curve, cutoff=curve.v_min,
                                  gamma=0.95, epsilon=0.95)
        report = run_many(strat, profile, 20_000, seed=5)
        assert report.defection_rate_realized > 0.9
        assert report.frontrun_rate == 0.0

    def test_risky_winner_frontrun_when_binding(self, solved):
        profile, curve = solved(n=3, rho=0.2, gamma=0.95)
        strat = solve_strategy(profile, 0.5, curve=curve)
        assert strat.cutoff == math.inf  # risky everywhere, threat binds everywhere
        report = run_many(strat, profile, 50_000, seed=6)
        assert report.frontrun_rate == report.defection_rate_realized
        assert report.frontrun_rate == pytest.approx(0.5, abs=0.01)


class TestRunMany:
    def test_realized_defection_rate_binomial(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        blocks = 1_000_000
        report = run_many(strat, profile, blocks, seed=77)
        assert abs(report.defection_rate_realized - 0.2) < 3 * math.sqrt(0.2 * 0.8 / blocks)

    def test_accounting_identity(self, flagship, tmp_path):
        # revenue + surplus = value, less the frontrun haircut; nothing leaks
        profile, curve = flagship
        strat = solve_strategy(profile, 0.4, curve=curve)
        trace = tmp_path / "trace.csv"
        run_many(strat, profile, 4000, seed=13, trace_path=trace, trace_cap=4000)
        rows = np.genfromtxt(trace, delimiter=",", names=True)
        value = rows["winner_value"]
        keep = value - (1.0 - profile.gamma) * value * rows["frontran"]
        np.testing.assert_allclose(
            rows["builder_revenue"] + rows["searcher_surplus"], keep, rtol=1e-10
        )
        assert np.all(rows["frontran"] <= rows["defected"])

    def test_revenue_increases_with_defection_when_binding(self, solved):
        profile, curve = solved(n=3, rho=0.2, gamma=0.998)
        reports = [
            run_many(solve_strategy(profile, e, curve=curve), profile, 300_000, seed=21)
            for e in (0.0, 0.5, 0.99)
        ]
        for lo, hi in zip(reports, reports[1:]):
            sigma = math.hypot(lo.stderr_builder_revenue, hi.stderr_builder_revenue)
            assert hi.mean_builder_revenue - lo.mean_builder_revenue > 3 * sigma

    def test_seed_determinism(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        a = run_many(strat, profile, 70_000, seed=99)
        b = run_many(strat, profile, 70_000, seed=99)
        assert a == b

    def test_worker_count_invariance(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        serial = run_many(strat, profile, 150_000, seed=31, workers=1)
        threaded = run_many(strat, profile, 150_000, seed=31, workers=4)
        assert serial == threaded

    def test_antithetic_agrees(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        plain = run_many(strat, profile, 200_000, seed=8)
        anti = run_many(strat, profile, 200_000, seed=8, antithetic=True)
        z = (plain.mean_builder_revenue - anti.mean_builder_revenue) / math.hypot(
            plain.stderr_builder_revenue, anti.stderr_builder_revenue
        )
        assert abs(z) < 4.0

    def test_memory_flat_in_blocks(self, flagship):
        # each chunk is reduced as it is drawn, so the peak is O(chunk)
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)

        def peak(blocks):
            tracemalloc.start()
            try:
                run_many(strat, profile, blocks, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(12 * CHUNK) <= 1.1 * peak(2 * CHUNK)

    def test_rejects_zero_blocks(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        with pytest.raises(ParameterError):
            run_many(strat, profile, 0, seed=1)


class TestDeviationPayoffs:
    def test_sure_safe_overbid_pays_value_minus_bid(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        v = marginal_quantile(0.5)
        bid = profile.gamma * curve.v_max * 10  # above any possible rival bid
        mean, se = payoff_of_deviation(v, bid, strat, profile, blocks=2000, seed=3)
        assert mean == pytest.approx(v - bid, rel=1e-12)
        assert se <= 1e-9 * abs(v - bid)  # identical in every block, float noise only

    def test_zero_bid_never_wins(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        mean, se = payoff_of_deviation(marginal_quantile(0.5), 0.0, strat, profile,
                                       blocks=5000, seed=3)
        assert mean == 0.0

    def test_equilibrium_bid_is_grid_optimal(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        v = marginal_quantile(0.9)
        b_eq = float(strat.bid(v))
        bids = b_eq * np.linspace(0.8, 1.2, 41)
        scan = deviation_payoff_grid(v, bids, strat, profile, blocks=100_000, seed=17,
                                     reference_index=20)
        best = int(np.argmax(scan.means))
        assert scan.means[best] - scan.means[20] <= 2.0 * scan.stderrs[best]

    def test_exposure_scaling_with_commitment(self, solved):
        # payoffs of exposed bids scale by (1 - eps); the grid argmax is shared
        profile, curve = solved(n=4, rho=0.3, gamma=0.95)
        v = marginal_quantile(0.8)
        strat_lo = solve_strategy(profile, 0.2, curve=curve)
        strat_hi = solve_strategy(profile, 0.5, curve=curve)
        b_eq = float(curve.bid(v))
        bids = b_eq * np.linspace(0.9, 1.1, 21)
        lo = deviation_payoff_grid(v, bids, strat_lo, profile, blocks=400_000, seed=29)
        hi = deviation_payoff_grid(v, bids, strat_hi, profile, blocks=400_000, seed=29)
        ratio = lo.means / hi.means
        np.testing.assert_allclose(ratio, (1 - 0.2) / (1 - 0.5), rtol=0.02)
        assert abs(int(np.argmax(lo.means)) - int(np.argmax(hi.means))) <= 2
