import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import mevauction.synthetic as synthetic_module
from mevauction import solve_strategy
from mevauction.diagnostics import board_diagnostic, effective_bidder_counts
from mevauction.empirics import bribe_schedule, estimate_gamma
from mevauction.errors import ParameterError
from mevauction.profiles import MevType
from mevauction.synthetic import SyntheticSpec, _tx_hashes, generate_chunks

from conftest import generated_records, make_profile, table_from_records


class TestGenerateSynthetic:
    def test_zero_blocks_empty(self, flagship):
        profile, curve = flagship
        spec = SyntheticSpec(profile=profile, epsilon=0.2,
                             strategy=solve_strategy(profile, 0.2, curve=curve))
        assert generated_records([spec], 0, seed=1) == []

    def test_no_defection_emits_every_block(self, flagship):
        profile, curve = flagship
        spec = SyntheticSpec(profile=profile, epsilon=0.0,
                             strategy=solve_strategy(profile, 0.0, curve=curve))
        records = generated_records([spec], 500, seed=2)
        assert len(records) == 500
        assert len({r.block_number for r in records}) == 500

    def test_frontrun_blocks_are_dropped(self, flagship):
        profile, curve = flagship
        strategy = solve_strategy(profile, 0.3, curve=curve)
        spec = SyntheticSpec(profile=profile, epsilon=0.3, strategy=strategy)
        records = generated_records([spec], 3000, seed=3)
        # winners below the cutoff are exposed; a fraction of blocks vanish
        assert len(records) <= 3000
        # with the flagship cutoff deep in the left tail nearly all survive
        assert len(records) > 2900

    def test_records_reproduce_strategy_bids(self, solved):
        # every surviving tip equals the strategy bid at the record's value
        profile, curve = solved(n=4, rho=0.0, gamma=0.015)
        strategy = solve_strategy(profile, 0.0, curve=curve)
        spec = SyntheticSpec(profile=profile, epsilon=0.0, strategy=strategy)
        records = generated_records([spec], 400, seed=4)
        for rec in records:
            assert rec.tip == pytest.approx(float(strategy.bid(rec.extracted_value)),
                                            rel=1e-9)

    def test_deterministic(self, flagship):
        profile, curve = flagship
        spec = SyntheticSpec(profile=profile, epsilon=0.25,
                             strategy=solve_strategy(profile, 0.25, curve=curve))
        a = generated_records([spec], 300, seed=9)
        b = generated_records([spec], 300, seed=9)
        assert a == b

    def test_multiple_opportunities_share_block(self, flagship):
        profile, curve = flagship
        spec = SyntheticSpec(profile=profile, epsilon=0.0,
                             strategy=solve_strategy(profile, 0.0, curve=curve))
        records = generated_records([spec], 200, seed=5, opportunities_per_block=2)
        per_block = Counter(r.block_number for r in records)
        assert set(per_block.values()) == {2}

    def test_coin_uses_spec_epsilon_and_profile_gamma(self, solved):
        # risky everywhere and the threat binds everywhere, so a block survives
        # exactly when the builder does not defect
        profile, curve = solved(n=3, rho=0.2, gamma=0.95)
        strategy = solve_strategy(profile, 0.0, curve=curve)
        assert strategy.cutoff == math.inf
        blocks = 5000
        for planted in (strategy, dataclasses.replace(strategy, gamma=0.0)):
            spec = SyntheticSpec(profile=profile, epsilon=0.9, strategy=planted)
            records = generated_records([spec], blocks, seed=13)
            # the strategy's epsilon (0) or its gamma (0) would keep every block
            assert len(records) / blocks == pytest.approx(0.1, abs=0.02)

    def test_two_specs_of_one_type_are_refused(self, monkeypatch):
        # both would be numbered from block 1 under the same searcher labels
        def forbidden(*args, **kwargs):
            raise AssertionError("a strategy was solved")

        monkeypatch.setattr(synthetic_module, "solve_strategy", forbidden)
        specs = [SyntheticSpec(profile=make_profile(n=4), epsilon=0.2),
                 SyntheticSpec(profile=make_profile(n=3, gamma=0.9, tau=MevType.SANDWICH),
                               epsilon=0.2),
                 SyntheticSpec(profile=make_profile(n=5, gamma=0.5, tau=MevType.SANDWICH),
                               epsilon=0.3)]
        with pytest.raises(ParameterError, match="more than one spec of MEV type sandwich"):
            generate_chunks(iter(specs), 100, seed=1)

    def test_specs_of_one_value_profile_share_one_curve(self, monkeypatch):
        # the bid curve depends on (n, rho, mu, sigma) alone: three gammas
        # planted on one value profile solve one curve, a fourth profile its
        # own, and every table equals that of specs solved one by one
        specs = [SyntheticSpec(profile=make_profile(n=4, gamma=gamma, tau=tau), epsilon=eps)
                 for gamma, tau, eps in ((0.74, MevType.NAKED_ARB, 0.2),
                                         (0.9, MevType.SANDWICH, 0.3),
                                         (0.5, MevType.LIQUIDATION, 0.1))]
        specs.append(SyntheticSpec(profile=make_profile(n=6, tau=MevType.BACKRUN), epsilon=0.2))
        one_by_one = [dataclasses.replace(spec, strategy=solve_strategy(spec.profile,
                                                                          spec.epsilon))
                      for spec in specs]
        solved = []
        real = synthetic_module.solve_bid_ode

        def counting(profile, *args, **kwargs):
            solved.append(profile.n)
            return real(profile, *args, **kwargs)

        monkeypatch.setattr(synthetic_module, "solve_bid_ode", counting)
        shared = generated_records(specs, 300, seed=5)
        assert sorted(solved) == [4, 6]
        assert shared == generated_records(one_by_one, 300, seed=5)


class TestTxHashes:
    PREFIX = "0x0000000701"

    def expected(self, block, auction):
        return [self.PREFIX + "%010x%02x" % pair for pair in zip(block, auction)]

    @pytest.mark.parametrize("block,auction", [
        ([1, 1, 1, 2, 2**40 - 1, 2**40 - 1], [0, 255, 256, 7, 0, 255]),
        ([2**40, 2**40 + 5, 3, 2**40 - 1], [0, 256, 1000, 256]),
        ([], []),
    ])
    def test_bulk_hashes_equal_the_format(self, block, auction):
        got = _tx_hashes(self.PREFIX, np.array(block, dtype=np.int64),
                         np.array(auction, dtype=np.intp))
        assert got == self.expected(block, auction)

    def test_three_hundred_auctions_per_block(self, flagship):
        # auction indices 256-299 need three hex digits; with no defection
        # every auction leaves a record, in block-major order
        profile, curve = flagship
        spec = SyntheticSpec(profile=profile, epsilon=0.0,
                             strategy=solve_strategy(profile, 0.0, curve=curve))
        # the same game under a second type label: one spec per type
        twin = dataclasses.replace(
            spec, profile=dataclasses.replace(profile, tau=MevType.SANDWICH))
        blocks, k, seed = 4, 300, 7
        tables = list(generate_chunks([spec, twin], blocks, seed, opportunities_per_block=k))
        block = [b for b in range(1, blocks + 1) for _ in range(k)]
        auction = list(range(k)) * blocks
        for t_idx, table in enumerate(tables):
            prefix = f"0x{seed:08x}{t_idx:02x}"
            assert table.tx_hash == [prefix + "%010x%02x" % pair
                                     for pair in zip(block, auction)]


class TestRoundTrips:
    def test_planted_gamma_recovered(self, solved):
        profile, curve = solved(n=5, rho=0.3, gamma=0.6)
        spec = SyntheticSpec(profile=profile, epsilon=0.3,
                             strategy=solve_strategy(profile, 0.3, curve=curve))
        table = table_from_records(generated_records([spec], 20_000, seed=7))
        est = estimate_gamma(bribe_schedule(table, profile.tau))
        assert abs(est.gamma_hat - 0.6) < 0.02

    def test_planted_cutoff_shows_plateau(self, flagship):
        # plant a strategy with a visible cutoff: schedule rises then plateaus
        profile, curve = flagship
        from mevauction.equilibrium import PiecewiseStrategy
        from conftest import marginal_quantile

        cutoff = marginal_quantile(0.70)
        planted = PiecewiseStrategy(curve=curve, cutoff=cutoff, gamma=0.74, epsilon=0.0)
        spec = SyntheticSpec(profile=profile, epsilon=0.0, strategy=planted)
        table = table_from_records(generated_records([spec], 30_000, seed=8))
        schedule = bribe_schedule(table, profile.tau)
        top = [b.mean_bribe_share for b in schedule.bins[-10:]]
        assert all(abs(s - 0.74) < 0.02 for s in top)
        # below the cutoff the curve bids strictly less than the plateau
        assert schedule.bins[0].mean_bribe_share < 0.70

    def test_low_extractability_schedule_reproduces_curve_share(self, solved):
        profile, curve = solved(n=4, rho=0.0, gamma=0.015)
        strategy = solve_strategy(profile, 0.0, curve=curve)
        spec = SyntheticSpec(profile=profile, epsilon=0.0, strategy=strategy)
        table = table_from_records(generated_records([spec], 20_000, seed=10))
        schedule = bribe_schedule(table, profile.tau)
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
        recs = generated_records(specs, 4000, seed=11)
        specs2 = [SyntheticSpec(profile=thick, epsilon=0.0)]
        # the second stream's blocks follow the first's
        recs2 = [dataclasses.replace(r, block_number=r.block_number + 100_000)
                 for r in generated_records(specs2, 4000, seed=12)]
        rows = board_diagnostic(effective_bidder_counts(table_from_records(recs + recs2),
                                                        window=25))
        by_bin = {(r.count_lo, r.count_hi): r for r in rows}
        # most thin-market records count 3-4 bidders, most thick-market ones 5-8
        assert by_bin[5, 8].mean_bribe_share > by_bin[3, 4].mean_bribe_share
