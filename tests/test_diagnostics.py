import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mevauction.diagnostics import (
    affiliation_diagnostic,
    affiliation_pairs,
    board_diagnostic,
    builder_table,
    concentration,
    effective_bidder_counts,
    gini_coefficient,
)
from mevauction.empirics import BundleTable, write_bundles
from mevauction.errors import ConfigurationError, ParameterError
from mevauction.profiles import MevType
from mevauction.rng import stream

from conftest import pair_rows, table_from_records
from test_empirics import record


def top_two_blocks(rho, blocks, seed, mev_type=MevType.NAKED_ARB):
    """A table of blocks holding the two largest of a five-value affiliated
    pool."""
    rng = stream(seed)
    Z = rng.standard_normal(blocks)
    u = rng.standard_normal((blocks, 5))
    z = math.sqrt(rho) * Z[:, None] + math.sqrt(1 - rho) * u
    values = np.exp(1.0 + 1.5 * z)
    top2 = np.sort(values, axis=1)[:, -2:]
    records = []
    for b in range(blocks):
        for j in (0, 1):
            v = top2[b, j]
            records.append(record(tip=0.6 * v, profit=0.4 * v, block=b,
                                  mev_type=mev_type, searcher=f"s{j}", tx=f"0x{b:x}{j}"))
    return table_from_records(records)


class TestAffiliation:
    def test_no_pairs_reported_absent(self):
        records = [record(tip=1.0, profit=1.0, block=i, tx=f"0x{i:x}") for i in range(9)]
        stats = affiliation_diagnostic(affiliation_pairs(table_from_records(records)))
        assert stats == {} or all(s.pairs < 2 for s in stats.values())

    def test_affiliated_pool_shows_positive_correlation(self):
        table = top_two_blocks(rho=0.6, blocks=4000, seed=3)
        stats = affiliation_diagnostic(affiliation_pairs(table))[MevType.NAKED_ARB]
        assert stats.pairs == 4000
        se = 1.0 / math.sqrt(stats.pairs)
        assert stats.correlation > 3 * se
        assert stats.slope > 0

    def test_independent_pool_matches_permutation_null(self):
        # even iid pools correlate max with second-max; compare against a
        # brute-force null built by permuting the second coordinates
        table = top_two_blocks(rho=0.0, blocks=3000, seed=4)
        stats = affiliation_diagnostic(affiliation_pairs(table))[MevType.NAKED_ARB]
        pairs = np.array([(x, y) for _, x, y in pair_rows(affiliation_pairs(table))])
        rng = stream(5)
        null = []
        for _ in range(200):
            null.append(np.corrcoef(pairs[:, 0], rng.permutation(pairs[:, 1]))[0, 1])
        null_sd = float(np.std(null))
        # observed correlation is positive and far above the permuted null
        assert stats.correlation > 0
        assert abs(np.mean(null)) < 3 * null_sd  # permuted null centers on zero

    def test_pairs_use_top_two(self):
        records = [
            record(tip=1.0, profit=0.0, block=7, tx="a"),
            record(tip=10.0, profit=0.0, block=7, tx="b"),
            record(tip=5.0, profit=0.0, block=7, tx="c"),
        ]
        pairs = affiliation_pairs(table_from_records(records))
        assert pair_rows(pairs) == [(MevType.NAKED_ARB, math.log(10.0), math.log(5.0))]


class TestConcentration:
    def test_single_winner_gini(self):
        records = [record(tip=0.0, profit=0.0, searcher=f"s{i}", block=i) for i in range(4)]
        records.append(record(tip=5.0, profit=5.0, searcher="whale", block=99))
        # zero-value searchers are excluded; craft explicit totals instead
        totals = [0.0, 0.0, 0.0, 0.0, 10.0]
        assert gini_coefficient(totals) == pytest.approx(4 / 5)

    def test_equal_split_gini_zero(self):
        assert gini_coefficient([3.0] * 7) == pytest.approx(0.0, abs=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = stream(6)
        totals = np.exp(rng.normal(0, 2, size=120))
        m, s = totals.size, totals.sum()
        oracle = float(np.abs(totals[:, None] - totals[None, :]).sum() / (2 * m * m * (s / m)))
        assert gini_coefficient(totals) == pytest.approx(oracle, abs=1e-9)

    @given(st.lists(st.floats(0.01, 1e6), min_size=2, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_gini_in_unit_interval(self, totals):
        g = gini_coefficient(totals)
        assert -1e-12 <= g < 1.0

    def test_lorenz_gini_consistency(self):
        rng = stream(7)
        records = [record(tip=v * 0.7, profit=v * 0.3, searcher=f"s{i % 17}", block=i,
                          tx=f"0x{i:x}")
                   for i, v in enumerate(np.exp(rng.normal(0, 2, size=300)))]
        stat = concentration(table_from_records(records))[MevType.NAKED_ARB]
        area = np.trapezoid(stat.lorenz_value, stat.lorenz_population)
        assert 1.0 - 2.0 * area == pytest.approx(stat.gini, abs=1e-9)
        assert stat.top_k_shares[1] <= stat.top_k_shares[5] <= stat.top_k_shares[10]


class TestBuilderTable:
    def test_singleton(self):
        rows = builder_table(table_from_records([record(tip=4.0, profit=1.0, builder="solo")]))
        assert len(rows) == 1
        row = rows[0]
        assert row.count == 1
        assert row.total_extracted == pytest.approx(5.0)
        assert row.mean_bribe_share == pytest.approx(0.8)
        assert row.bribe_share_std == 0.0
        assert row.searchers == 1

    def test_sorted_by_total(self):
        records = [record(tip=1.0, profit=0.0, builder="small", block=1),
                   record(tip=50.0, profit=0.0, builder="big", block=2),
                   record(tip=10.0, profit=0.0, builder="mid", block=3)]
        rows = builder_table(table_from_records(records))
        assert [r.builder for r in rows] == ["big", "mid", "small"]

    def test_distinct_searchers_counted(self):
        records = [record(tip=1.0, profit=0.0, builder="b", searcher=f"s{i % 3}", block=i)
                   for i in range(9)]
        assert builder_table(table_from_records(records))[0].searchers == 3


class TestBoardDiagnostic:
    def test_bins_weight_to_global_means(self):
        rng = stream(8)
        records = [record(tip=0.5 * v, profit=0.5 * v, searcher=f"s{i % 4}", block=i,
                          tx=f"0x{i:x}")
                   for i, v in enumerate(np.exp(rng.normal(0, 1, size=200)))]
        rows = board_diagnostic(effective_bidder_counts(table_from_records(records)))
        # four searchers: the proxy fills bins [1,1], [2,2] and [3,4]
        assert [(r.count_lo, r.count_hi) for r in rows] == [(1, 1), (2, 2), (3, 4)]
        weights = [r.records for r in rows]
        assert sum(weights) == len(records)
        mean_revenue = np.average([r.mean_revenue for r in rows], weights=weights)
        mean_share = np.average([r.mean_bribe_share for r in rows], weights=weights)
        assert mean_revenue == pytest.approx(np.mean([r.tip for r in records]))
        assert mean_share == pytest.approx(0.5)

    def test_constant_bribe_is_flat(self):
        rng = stream(9)
        records = [record(tip=0.7 * v, profit=0.3 * v, searcher=f"s{i % 13}", block=i,
                          tx=f"0x{i:x}")
                   for i, v in enumerate(np.exp(rng.normal(0, 1, size=500)))]
        rows = board_diagnostic(effective_bidder_counts(table_from_records(records)))
        for row in rows:
            assert row.mean_bribe_share == pytest.approx(0.7)

    def test_proxy_counts_distinct_in_window(self):
        records = [record(tip=1.0, profit=1.0, searcher=f"s{i}", block=i, tx=f"0x{i:x}")
                   for i in range(10)]
        counted = effective_bidder_counts(table_from_records(records), window=3)
        # at block i the window holds blocks i-2..i, all distinct searchers
        assert counted.proxy.tolist() == [1, 2, 3, 3, 3, 3, 3, 3, 3, 3]

    @pytest.mark.parametrize("window", [1, 5, 50])
    @pytest.mark.parametrize("edge", ["first_at_min", "last_at_max"])
    def test_proxy_invariant_to_a_shift_to_the_int64_edges(self, edge, window):
        # the blocks within a window of -2**63 or of 2**63 - 1 count as any other
        rng = stream(12)
        blocks = np.sort(rng.integers(0, 400, size=300)).tolist()
        int64 = np.iinfo(np.int64)
        shift = int64.min - blocks[0] if edge == "first_at_min" else int64.max - blocks[-1]

        def counted(shift):
            return effective_bidder_counts(table_from_records(
                record(tip=1.0, profit=1.0, mev_type=(MevType.SANDWICH, MevType.NAKED_ARB)[i % 2],
                       block=b + shift, searcher=f"s{(7 * b + i) % 9}", tx=f"0x{i:x}")
                for i, b in enumerate(blocks)), window=window)

        want, got = counted(0), counted(shift)
        assert got.order.tolist() == want.order.tolist()
        assert got.proxy.tolist() == want.proxy.tolist()

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            effective_bidder_counts(table_from_records([]), window=0)

    def test_empty_table_has_no_bins(self):
        assert board_diagnostic(effective_bidder_counts(table_from_records([]))) == []


# the label columns each diagnostic reads
NEEDS = {concentration: ("searcher",), builder_table: ("builder", "searcher"),
         effective_bidder_counts: ("searcher",)}


@pytest.mark.parametrize("held", [(), ("tx_hash",), ("builder",), ("searcher",)])
@pytest.mark.parametrize("diagnostic", list(NEEDS), ids=lambda f: f.__name__)
def test_diagnostic_names_a_label_column_not_read(tmp_path, diagnostic, held):
    # a table read without a label column a diagnostic reads raises the
    # package's ParameterError naming the column, not numpy's TypeError
    records = [record(tip=1.0, profit=1.0, block=i, builder=f"b{i % 2}",
                      searcher=f"s{i % 3}", tx=f"0x{i:x}") for i in range(6)]
    path = tmp_path / "bundles.csv"
    write_bundles(path, [table_from_records(records)])
    table = BundleTable.read(path, text_columns=held)
    missing = [name for name in NEEDS[diagnostic] if name not in held]
    if missing:
        with pytest.raises(ParameterError, match=f"holds no {missing[0]} column"):
            diagnostic(table)
    else:
        diagnostic(table)
