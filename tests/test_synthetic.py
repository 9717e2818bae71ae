import math
from collections import Counter

import numpy as np
import pytest

from mevauction import solve_strategy
from mevauction.diagnostics import board_diagnostic, effective_bidder_counts
from mevauction.empirics import bribe_schedule, estimate_gamma
from mevauction.profiles import MevType
from mevauction.synthetic import SyntheticSpec, generate_synthetic

from conftest import make_profile


class TestGenerateSynthetic:
    def test_zero_blocks_empty(self, flagship):
        profile, curve = flagship
        spec = SyntheticSpec(profile=profile, epsilon=0.2,
                             strategy=solve_strategy(profile, 0.2, curve=curve))
        assert list(generate_synthetic([spec], 0, seed=1)) == []

    def test_no_defection_emits_every_block(self, flagship):
        profile, curve = flagship
        spec = SyntheticSpec(profile=profile, epsilon=0.0,
                             strategy=solve_strategy(profile, 0.0, curve=curve))
        records = list(generate_synthetic([spec], 500, seed=2))
        assert len(records) == 500
        assert len({r.block_number for r in records}) == 500

    def test_frontrun_blocks_are_dropped(self, flagship):
        profile, curve = flagship
        strategy = solve_strategy(profile, 0.3, curve=curve)
        spec = SyntheticSpec(profile=profile, epsilon=0.3, strategy=strategy)
        records = list(generate_synthetic([spec], 3000, seed=3))
        # winners below the cutoff are exposed; a fraction of blocks vanish
        assert len(records) <= 3000
        # with the flagship cutoff deep in the left tail nearly all survive
        assert len(records) > 2900

    def test_records_reproduce_strategy_bids(self, solved):
        # every surviving tip equals the strategy bid at the record's value
        profile, curve = solved(n=4, rho=0.0, gamma=0.015)
        strategy = solve_strategy(profile, 0.0, curve=curve)
        spec = SyntheticSpec(profile=profile, epsilon=0.0, strategy=strategy)
        records = list(generate_synthetic([spec], 400, seed=4))
        for rec in records:
            assert rec.tip == pytest.approx(float(strategy.bid(rec.extracted_value)),
                                            rel=1e-9)

    def test_deterministic(self, flagship):
        profile, curve = flagship
        spec = SyntheticSpec(profile=profile, epsilon=0.25,
                             strategy=solve_strategy(profile, 0.25, curve=curve))
        a = list(generate_synthetic([spec], 300, seed=9))
        b = list(generate_synthetic([spec], 300, seed=9))
        assert a == b

    def test_multiple_opportunities_share_block(self, flagship):
        profile, curve = flagship
        spec = SyntheticSpec(profile=profile, epsilon=0.0,
                             strategy=solve_strategy(profile, 0.0, curve=curve))
        records = list(generate_synthetic([spec], 200, seed=5,
                                          opportunities_per_block=2))
        per_block = Counter(r.block_number for r in records)
        assert set(per_block.values()) == {2}

    def test_searcher_labels_from_pool(self, flagship):
        profile, curve = flagship
        spec = SyntheticSpec(profile=profile, epsilon=0.0,
                             strategy=solve_strategy(profile, 0.0, curve=curve),
                             searcher_pool=tuple(f"whale_{i}" for i in range(profile.n)))
        records = list(generate_synthetic([spec], 100, seed=6))
        assert {r.searcher for r in records} <= {f"whale_{i}" for i in range(profile.n)}


class TestRoundTrips:
    def test_planted_gamma_recovered(self, solved):
        profile, curve = solved(n=5, rho=0.3, gamma=0.6)
        spec = SyntheticSpec(profile=profile, epsilon=0.3,
                             strategy=solve_strategy(profile, 0.3, curve=curve))
        records = list(generate_synthetic([spec], 20_000, seed=7))
        est = estimate_gamma(bribe_schedule(records, profile.tau))
        assert abs(est.gamma_hat - 0.6) < 0.02

    def test_planted_cutoff_shows_plateau(self, flagship):
        # plant a strategy with a visible cutoff: schedule rises then plateaus
        profile, curve = flagship
        from mevauction.equilibrium import PiecewiseStrategy
        from conftest import marginal_quantile

        cutoff = marginal_quantile(0.70)
        planted = PiecewiseStrategy(curve=curve, cutoff=cutoff, gamma=0.74, epsilon=0.0)
        spec = SyntheticSpec(profile=profile, epsilon=0.0, strategy=planted)
        records = list(generate_synthetic([spec], 30_000, seed=8))
        schedule = bribe_schedule(records, profile.tau)
        top = [b.mean_bribe_share for b in schedule.bins[-10:]]
        assert all(abs(s - 0.74) < 0.02 for s in top)
        # below the cutoff the curve bids strictly less than the plateau
        assert schedule.bins[0].mean_bribe_share < 0.70

    def test_low_extractability_schedule_reproduces_curve_share(self, solved):
        profile, curve = solved(n=4, rho=0.0, gamma=0.015)
        strategy = solve_strategy(profile, 0.0, curve=curve)
        spec = SyntheticSpec(profile=profile, epsilon=0.0, strategy=strategy)
        records = list(generate_synthetic([spec], 20_000, seed=10))
        schedule = bribe_schedule(records, profile.tau)
        mids = np.array([math.sqrt(b.value_lo * b.value_hi) for b in schedule.bins])
        means = np.array([b.mean_bribe_share for b in schedule.bins])
        model = np.array([float(strategy.bid(v)) / v for v in mids])
        # bin means track the strategy's bid share across the value range
        assert np.median(np.abs(means - model)) < 0.03

    def test_competition_raises_bribe_share(self):
        # same type, two market sizes; thicker windows show higher shares
        thin = make_profile(n=3, rho=0.2, gamma=0.01, tau=MevType.BACKRUN)
        thick = make_profile(n=8, rho=0.2, gamma=0.01, tau=MevType.BACKRUN)
        specs = [SyntheticSpec(profile=thin, epsilon=0.0)]
        recs = list(generate_synthetic(specs, 4000, seed=11))
        specs2 = [SyntheticSpec(profile=thick, epsilon=0.0)]
        recs2 = list(generate_synthetic(specs2, 4000, seed=12,
                                        base_block_number=100_000))
        rows = board_diagnostic(effective_bidder_counts(recs + recs2, window=25),
                                bin_edges=(1, 6))
        assert len(rows) == 2
        assert rows[1].mean_bribe_share > rows[0].mean_bribe_share
