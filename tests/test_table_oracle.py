"""Exact-equality check of the columnar pipeline against per-record loops.

The ``oracle_*`` functions below are the record-by-record implementations
that the columnar ``BundleTable`` code replaced, kept as the reference the
way ``quad`` is kept in test_revenue.py.  The bidder-count oracle counts
every record of a block, as its docstring always said; the loop it replaced
counted only the records up to the current one in file order.  Every columnar function must give
the same output as its oracle, compared with ``==`` on every field: floats
bit for bit, scalars of the same Python type.
``oracle_lexsort_affiliation_pairs`` is the columnar sort that
``affiliation_pairs`` replaced (values sorted within each block and type, the
top two closing each group), kept to pin the reduction that took its place
column by column.
"""

import dataclasses
import math
import warnings
from bisect import bisect_right
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mevauction import solve_strategy
from mevauction.diagnostics import (
    AffiliationPairs,
    AffiliationStat,
    BoardBin,
    BuilderRow,
    ConcentrationStat,
    affiliation_diagnostic,
    affiliation_pairs,
    _logs,
    _runs,
    board_diagnostic,
    builder_table,
    concentration,
    effective_bidder_counts,
    gini_coefficient,
)
from mevauction.empirics import (
    MEV_TYPES,
    BribeSchedule,
    BundleRecord,
    BundleTable,
    DecompositionReport,
    GammaEstimate,
    ScheduleBin,
    TypeDecomposition,
    bribe_schedule,
    decompose,
)
from mevauction.errors import ConfigurationError, ThinSampleError
from mevauction.profiles import MevType
from mevauction.synthetic import SyntheticSpec, generate_chunks

from conftest import counted_pairs, curve_for, make_profile, pair_rows, table_from_records
from test_empirics import record


# ---------------------------------------------------------------------------
# the per-record reference implementations
# ---------------------------------------------------------------------------

def oracle_bribe_schedule(records, mev_type):
    values, shares = [], []
    excluded = 0
    above_one = 0
    for rec in records:
        if rec.mev_type != mev_type:
            continue
        ev = rec.extracted_value
        if ev <= 0:
            excluded += 1
            continue
        share = rec.tip / ev
        if share > 1.0:
            above_one += 1
        values.append(ev)
        shares.append(share)
    count = len(values)
    if count < 10:
        raise ThinSampleError(f"{mev_type.value}: only {count} valid records")
    bins = 50
    if count < 500:
        bins = max(10, count // 20)
        warnings.warn(f"{mev_type.value}: {count} records is thin")
    values = np.asarray(values)
    shares = np.asarray(shares)
    order = np.argsort(values, kind="stable")
    values, shares = values[order], shares[order]
    out = []
    for chunk_v, chunk_s in zip(np.array_split(values, bins), np.array_split(shares, bins)):
        out.append(ScheduleBin(
            value_lo=float(chunk_v[0]), value_hi=float(chunk_v[-1]),
            mean_bribe_share=float(np.mean(chunk_s)),
            std_bribe_share=float(np.std(chunk_s)), count=int(chunk_v.size)))
    return BribeSchedule(mev_type=mev_type, bins=tuple(out),
                         excluded_nonpositive=excluded, shares_above_one=above_one)


def oracle_decompose(records, gammas):
    tips, foregone, counts = {}, {}, {}
    excluded = 0
    for rec in records:
        ev = rec.extracted_value
        if ev <= 0:
            excluded += 1
            continue
        if rec.mev_type not in gammas:
            raise ConfigurationError(f"no gamma estimate for observed type {rec.mev_type.value!r}")
        g = gammas[rec.mev_type]
        g = g.gamma_hat if isinstance(g, GammaEstimate) else float(g)
        tips[rec.mev_type] = tips.get(rec.mev_type, 0.0) + rec.tip
        foregone[rec.mev_type] = foregone.get(rec.mev_type, 0.0) + max(0.0, g * ev - rec.tip)
        counts[rec.mev_type] = counts.get(rec.mev_type, 0) + 1
    per_type = tuple(
        TypeDecomposition(mev_type=t, observed_tips=tips[t],
                          foregone_surplus=foregone[t], records=counts[t])
        for t in sorted(tips, key=lambda t: t.value))
    return DecompositionReport(per_type=per_type, total_tips=sum(tips.values()),
                               total_foregone=sum(foregone.values()),
                               excluded_nonpositive=excluded)


def oracle_affiliation_pairs(records):
    by_key = defaultdict(list)
    for rec in records:
        ev = rec.extracted_value
        if ev > 0:
            by_key[(rec.block_number, rec.mev_type)].append(ev)
    out = []
    for (_, mev_type), vals in sorted(by_key.items(),
                                      key=lambda kv: (kv[0][0], kv[0][1].value)):
        if len(vals) >= 2:
            top2 = sorted(vals, reverse=True)[:2]
            out.append((mev_type, math.log(top2[0]), math.log(top2[1])))
    return out


def oracle_lexsort_affiliation_pairs(table):
    """``affiliation_pairs`` as a lexsort with the values as the last key: the
    values ascend within each (block, type) group, so the top two close it."""
    positive = table.value > 0
    block = table.block[positive]
    codes = table.mev_type[positive]
    value = table.value[positive]
    order = np.lexsort((value, codes, block))
    block, codes, value = block[order], codes[order], value[order]
    starts, ends = _runs(block, codes)
    ends = ends[ends - starts >= 2]
    return AffiliationPairs(codes[ends - 1], _logs(value[ends - 1]), _logs(value[ends - 2]))


def affiliation_pair_rows(source):
    """``affiliation_pairs`` as the oracle's list of rows."""
    return pair_rows(affiliation_pairs(source))


def oracle_affiliation_diagnostic(pairs):
    """The per-type fit of a list of ``(MevType, x, y)`` pair rows, grouped
    row by row."""
    grouped = defaultdict(list)
    for mev_type, x, y in pairs:
        grouped[mev_type].append((x, y))
    stats = {}
    for mev_type, xy in grouped.items():
        arr = np.asarray(xy)
        if arr.shape[0] < 2 or np.ptp(arr[:, 0]) == 0:
            stats[mev_type] = AffiliationStat(mev_type, arr.shape[0], None, None)
            continue
        x, y = arr[:, 0], arr[:, 1]
        slope = float(np.polyfit(x, y, 1)[0])
        corr = float(np.corrcoef(x, y)[0, 1]) if np.ptp(y) > 0 else None
        stats[mev_type] = AffiliationStat(mev_type, arr.shape[0], slope, corr)
    return stats


def oracle_concentration(records):
    sums = defaultdict(lambda: defaultdict(float))
    for rec in records:
        ev = rec.extracted_value
        if ev > 0:
            sums[rec.mev_type][rec.searcher] += ev
    out = {}
    for mev_type, groups in sums.items():
        totals = np.sort(np.fromiter(groups.values(), dtype=float))
        m = totals.size
        cum = np.concatenate([[0.0], np.cumsum(totals)]) / totals.sum()
        pop = np.linspace(0.0, 1.0, m + 1)
        desc = totals[::-1]
        top_k = {k: float(desc[: min(k, m)].sum() / totals.sum()) for k in (1, 5, 10)}
        out[mev_type] = ConcentrationStat(
            mev_type=mev_type, groups=m, gini=gini_coefficient(totals),
            lorenz_population=pop, lorenz_value=cum, top_k_shares=top_k)
    return out


def oracle_builder_table(records):
    count = Counter()
    total = defaultdict(float)
    shares = defaultdict(list)
    searchers = defaultdict(set)
    for rec in records:
        count[rec.builder] += 1
        total[rec.builder] += rec.extracted_value
        searchers[rec.builder].add(rec.searcher)
        share = rec.bribe_share
        if share is not None:
            shares[rec.builder].append(share)
    rows = []
    for builder in count:
        s = np.asarray(shares.get(builder, []), dtype=float)
        rows.append(BuilderRow(
            builder=builder, count=count[builder], total_extracted=total[builder],
            mean_bribe_share=float(s.mean()) if s.size else math.nan,
            bribe_share_std=float(s.std()) if s.size else math.nan,
            searchers=len(searchers[builder])))
    rows.sort(key=lambda r: (-r.total_extracted, r.builder))
    return rows


def oracle_effective_bidder_counts(records, window=50):
    """Distinct same-type searchers over every record of the blocks in
    (block - window, block], records in block order within type."""
    by_type = defaultdict(list)
    for rec in records:
        by_type[rec.mev_type].append(rec)
    out = []
    for mev_type in sorted(by_type, key=lambda t: t.value):
        recs = sorted(by_type[mev_type], key=lambda r: r.block_number)
        for rec in recs:
            active = {r.searcher for r in recs
                      if rec.block_number - window < r.block_number <= rec.block_number}
            out.append((rec, len(active)))
    return out


def oracle_board_diagnostic(counted):
    edges = (1, 2, 3, 5, 9, 17)
    grouped = defaultdict(list)
    for rec, proxy in counted:
        if rec.extracted_value <= 0:
            continue
        i = max(0, bisect_right(edges, proxy) - 1)
        grouped[(rec.mev_type, i)].append((rec.tip, rec.tip / rec.extracted_value))
    rows = []
    for (mev_type, i), vals in sorted(grouped.items(),
                                      key=lambda kv: (kv[0][0].value, kv[0][1])):
        arr = np.asarray(vals)
        hi = edges[i + 1] - 1 if i + 1 < len(edges) else np.iinfo(np.int32).max
        rows.append(BoardBin(
            mev_type=mev_type, count_lo=edges[i], count_hi=int(hi),
            records=arr.shape[0], mean_revenue=float(arr[:, 0].mean()),
            mean_bribe_share=float(arr[:, 1].mean())))
    return rows


# ---------------------------------------------------------------------------
# exact comparison
# ---------------------------------------------------------------------------

def assert_same(got, want, where="output"):
    """Equal on every field: floats bit for bit (NaN equals NaN), scalars of
    the same type, arrays element by element."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want), where
        for f in dataclasses.fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.shape == want.shape, where
        assert got.dtype == want.dtype, where
        assert_same(got.tolist(), want.tolist(), where)
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, dict):
        assert type(got) is type(want) and list(got) == list(want), where
        for k in want:
            assert_same(got[k], want[k], f"{where}[{k!r}]")
    elif isinstance(want, float):
        assert type(got) is type(want), (where, type(got))
        assert got == want or (math.isnan(got) and math.isnan(want)), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def both(new, oracle, source, records, *args):
    """``new(source, *args)`` must return what ``oracle(records, *args)``
    returns, or raise the same error type."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            want = oracle(records, *args)
        except (ThinSampleError, ConfigurationError) as exc:
            with pytest.raises(type(exc)):
                new(source, *args)
            return None
        got = new(source, *args)
    assert_same(got, want, new.__name__)
    return got


# ---------------------------------------------------------------------------
# generated records
# ---------------------------------------------------------------------------

# a few repeated amounts make ties in extracted value; negative profits make
# non-positive values and shares above one
AMOUNTS = st.sampled_from([0.0, 0.25, 1.0, 1.5, 2.0, 7.0])
TIPS = AMOUNTS | st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)
PROFITS = (AMOUNTS | st.sampled_from([-2.0, -1.0, -0.25])
           | st.floats(-1e3, 1e4, allow_nan=False, allow_infinity=False))


@st.composite
def bundle_tables(draw, max_size=160):
    rows = draw(st.lists(st.tuples(
        st.sampled_from(list(MevType)),
        st.integers(0, 12),                  # few blocks: many records per block
        st.sampled_from(["b0", "b1", "b2"]) | st.text("xyz", min_size=1, max_size=3),
        st.sampled_from([f"s{i}" for i in range(6)]),
        TIPS, PROFITS), max_size=max_size))
    return table_from_records(
        record(tip=tip, profit=profit, mev_type=t, block=block, builder=b,
               searcher=s, tx=f"0x{i:x}")
        for i, (t, block, b, s, tip, profit) in enumerate(rows))


@given(bundle_tables())
@settings(max_examples=60, deadline=None)
def test_columnar_matches_oracle(table):
    records = list(table.records())
    for mev_type in MevType:
        both(bribe_schedule, oracle_bribe_schedule, table, records, mev_type)
    gammas = {MevType.NAKED_ARB: 0.74, MevType.SANDWICH: 0.9, MevType.BACKRUN: 0.6}
    both(decompose, oracle_decompose, table, records, gammas)
    both(decompose, oracle_decompose, table, records,
         {**gammas, MevType.LIQUIDATION: 0.88})
    pairs = both(affiliation_pair_rows, oracle_affiliation_pairs, table, records)
    assert_same(affiliation_diagnostic(affiliation_pairs(table)),
                oracle_affiliation_diagnostic(pairs), "affiliation_diagnostic")
    both(concentration, oracle_concentration, table, records)
    both(builder_table, oracle_builder_table, table, records)
    for window in (1, 3, 50):
        want = oracle_effective_bidder_counts(records, window)
        counted = effective_bidder_counts(table, window)
        assert_same(counted_pairs(counted), want, f"effective_bidder_counts(window={window})")
        assert_same(board_diagnostic(counted), oracle_board_diagnostic(want),
                    "board_diagnostic")


# a few values, so that a group's top and second tie, and +inf; zero, a
# negative value and NaN are not positive and make no pair
PAIR_VALUES = st.sampled_from([0.5, 1.0, 1.0 + 2.0 ** -52, 3.0, math.inf, 0.0, -2.0, math.nan])


@st.composite
def pair_tables(draw):
    """A BundleTable of groups of 1-6 rows sharing a block and a type, the
    rows shuffled; groups drawn on the same key merge."""
    groups = draw(st.lists(st.tuples(st.integers(-2, 6), st.integers(0, len(MEV_TYPES) - 1),
                                     st.lists(PAIR_VALUES, min_size=1, max_size=6)),
                           max_size=14))
    rows = [(block, code, value) for block, code, values in groups for value in values]
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    return pair_table(rows)


def pair_table(rows):
    """A BundleTable of ``(block, type code, value)`` rows; tip is the value."""
    block, code, value = (list(c) for c in zip(*rows)) if rows else ([], [], [])
    n = len(rows)
    zeros = np.zeros(n, dtype=np.intp)
    return BundleTable([f"0x{i:x}" for i in range(n)], np.array(block, dtype=np.int64),
                       np.array(code, dtype=np.intp), zeros, ("b",), zeros, ("s",),
                       np.array(value, dtype=float), np.zeros(n))


@given(pair_tables())
@example(pair_table([]))
@example(pair_table([(1, 0, 2.0), (2, 0, 2.0), (1, 1, 3.0), (1, 2, -1.0), (1, 2, 1.0)]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_affiliation_pairs_match_lexsort_oracle(table):
    got, want = affiliation_pairs(table), oracle_lexsort_affiliation_pairs(table)
    for name in ("mev_type", "log_top", "log_second"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


def test_full_bins_and_thin_type_match_oracle():
    # the 50-bin path (>= 500 values), a thin type and single-record builders
    rng = np.random.default_rng(21)
    n = 1500
    values = np.round(np.exp(rng.normal(1.0, 1.5, size=n)), 2)   # rounded: ties
    shares = rng.choice([0.3, 0.6, 0.9, 1.2], size=n)              # 1.2: above one
    types = np.where(rng.random(n) < 0.8, 0, 1)
    records = [record(tip=float(s * v), profit=float(v - s * v),
                      mev_type=(MevType.NAKED_ARB, MevType.SANDWICH)[t],
                      block=int(i // 7), builder=f"b{i % 5}" if i % 97 else f"solo{i}",
                      searcher=f"s{i % 11}", tx=f"0x{i:x}")
               for i, (v, s, t) in enumerate(zip(values, shares, types))]
    records += [record(tip=1.0, profit=-4.0, block=i, tx=f"0xneg{i}") for i in range(9)]
    table = table_from_records(records)
    records = list(table.records())
    full = both(bribe_schedule, oracle_bribe_schedule, table, records, MevType.NAKED_ARB)
    assert len(full.bins) == 50
    thin = both(bribe_schedule, oracle_bribe_schedule, table, records, MevType.SANDWICH)
    assert len(thin.bins) < 50
    gammas = {MevType.NAKED_ARB: 0.7, MevType.SANDWICH: 0.8}
    both(decompose, oracle_decompose, table, records, gammas)
    pairs = both(affiliation_pair_rows, oracle_affiliation_pairs, table, records)
    assert_same(affiliation_diagnostic(affiliation_pairs(table)),
                oracle_affiliation_diagnostic(pairs), "affiliation_diagnostic")
    both(concentration, oracle_concentration, table, records)
    rows = both(builder_table, oracle_builder_table, table, records)
    assert any(r.count == 1 for r in rows)
    want = oracle_effective_bidder_counts(records, 20)
    counted = effective_bidder_counts(table, 20)
    assert_same(counted_pairs(counted), want)
    assert_same(board_diagnostic(counted), oracle_board_diagnostic(want))


@pytest.mark.parametrize("window", [1, 4, 2**64 - 1, 2**64], ids=["1", "4", "2**64-1", "2**64"])
def test_bidder_counts_over_the_whole_int64_range_match_oracle(window):
    # one type's blocks run from -2**63 to 2**63 - 1, so its span and its
    # gaps exceed int64, and a window of 2**64 reaches across the whole range
    lo, hi = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
    blocks = [lo, lo, lo + 1, lo + 3, -1, 0, 0, 2, hi - 3, hi - 1, hi, hi]
    records = [record(tip=1.0, profit=1.0, block=b, searcher=f"s{i % 3}", tx=f"0x{i:x}")
               for i, b in enumerate(blocks)]
    records += [record(tip=1.0, profit=1.0, mev_type=MevType.SANDWICH, block=b,
                       searcher=f"s{i % 2}", tx=f"0xs{i:x}") for i, b in enumerate([lo, hi])]
    table = table_from_records(records)
    want = oracle_effective_bidder_counts(list(table.records()), window)
    assert_same(counted_pairs(effective_bidder_counts(table, window)), want)


def test_missing_gamma_names_first_seen_type():
    records = [record(tip=1.0, profit=1.0, mev_type=MevType.SANDWICH, block=1, tx="a"),
               record(tip=1.0, profit=1.0, mev_type=MevType.BACKRUN, block=2, tx="b")]
    with pytest.raises(ConfigurationError, match="sandwich"):
        decompose(table_from_records(records), {MevType.NAKED_ARB: 0.5})
    with pytest.raises(ConfigurationError, match="sandwich"):
        oracle_decompose(records, {MevType.NAKED_ARB: 0.5})


def test_record_view_round_trips():
    records = [BundleRecord("0x1", 5, MevType.BACKRUN, "b", "s", 1.5, -0.25),
               BundleRecord("0x2", 4, MevType.SANDWICH, "c", "t", 0.0, 2.0)]
    table = table_from_records(records)
    assert list(table.records()) == records
    assert list(table.select([1, 0]).records()) == records[::-1]
    assert list(table.select(np.array([False, True])).records()) == records[1:]
    assert list(table.select([]).records()) == []


def test_table_from_records_rebuilds_generated_chunks():
    # conftest's table_from_records codes builders and searchers in the order
    # they are first seen, so the rebuilt label tuples are the chunk's labels
    # in that order, and each row keeps its labels
    specs = []
    for tau, gamma in ((MevType.NAKED_ARB, 0.74), (MevType.BACKRUN, 0.6)):
        profile = make_profile(gamma=gamma, tau=tau)
        specs.append(SyntheticSpec(profile=profile, epsilon=0.3, strategy=solve_strategy(
            profile, 0.3, curve=curve_for(profile))))
    chunks = list(generate_chunks(specs, 2000, seed=5, opportunities_per_block=2))
    assert [len(set(chunk.mev_type.tolist())) for chunk in chunks] == [1, 1]
    for chunk in chunks:
        rebuilt = table_from_records(chunk.records())
        assert rebuilt.tx_hash == chunk.tx_hash
        for name in ("block", "mev_type"):
            got, want = getattr(rebuilt, name), getattr(chunk, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        for codes, labels in (("builder", "builders"), ("searcher", "searchers")):
            rows = [getattr(chunk, labels)[c] for c in getattr(chunk, codes).tolist()]
            assert getattr(rebuilt, labels) == tuple(dict.fromkeys(rows)), labels
            assert [getattr(rebuilt, labels)[c] for c in getattr(rebuilt, codes).tolist()] \
                == rows, codes
        for name in ("tip", "profit", "value"):
            got, want = getattr(rebuilt, name), getattr(chunk, name)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
    empty = table_from_records([])
    assert len(empty) == 0 and empty.tx_hash == []
    assert (empty.builders, empty.searchers) == ((), ())
    for name in ("block", "mev_type", "builder", "searcher", "tip", "profit", "value"):
        assert getattr(empty, name).shape == (0,), name
