"""Cross-sectional diagnostics on bundle records.

These mirror the appendix-style checks: within-block affiliation of the top
two extracted values, concentration of extracted value across searchers or
builders (Lorenz, Gini, top-k shares), per-builder aggregates, and revenue
by effective-bidder-count bins.  Nothing here enforces a sign or a slope;
the numbers are reported as found.

Every diagnostic takes a ``BundleTable``, except ``affiliation_diagnostic``,
which takes the ``AffiliationPairs`` that ``affiliation_pairs`` returns, and
``board_diagnostic``, which takes the ``BidderCounts`` that
``effective_bidder_counts`` returns.  Each groups the columns with numpy
sorts and ``bincount``, keeping record order within each
group so the sums match a record-by-record loop bit for bit.  The pairs
group the records by block and type with a sort on those integer keys alone
and take each group's top two values with ``np.maximum.reduceat``, not a
sort of the values.  They stay columns too: their type codes and the two
logs, taken with ``math.log`` so each bit matches a per-pair loop, with no
tuple per pair.  The results hold numbers; ``cli.py`` writes their files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .empirics import MEV_TYPES, BundleTable, _first_seen
from .errors import ConfigurationError
from .profiles import MevType

DEFAULT_PROXY_WINDOW = 50
DEFAULT_COUNT_BINS = (1, 2, 3, 5, 9, 17)


# ---------------------------------------------------------------------------
# affiliation: largest vs second-largest log value within a block
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffiliationStat:
    mev_type: MevType
    pairs: int
    slope: float | None
    correlation: float | None


@dataclass(frozen=True, eq=False)
class AffiliationPairs:
    """The within-block pairs as columns, by block then type label.

    ``mev_type`` holds each pair's type code into ``MEV_TYPES``; ``log_top``
    and ``log_second`` the logs of the largest and second-largest value of
    that type in the block.
    """

    mev_type: np.ndarray
    log_top: np.ndarray
    log_second: np.ndarray

    def __len__(self) -> int:
        return self.mev_type.size


def affiliation_pairs(table: BundleTable) -> AffiliationPairs:
    """The pair of largest and second-largest log value of each block of
    ``table`` with two or more positive-value records of the same type.

    The records are grouped by a stable sort on the integer keys (block, then
    type) alone.  Each group's top value is its ``np.maximum.reduceat``; the
    second is the same reduction after the top's first occurrence is set to
    -inf, so a tied top is also the second.
    """
    positive = table.value > 0
    block = table.block[positive]
    codes = table.mev_type[positive]
    value = table.value[positive]
    order = np.lexsort((codes, block))
    block, codes, value = block[order], codes[order], value[order]
    starts, ends = _runs(block, codes)
    sizes = ends - starts
    top = np.maximum.reduceat(value, starts)
    # every group holds its top, so the first top position at or after a
    # group's start is the group's first top
    tops = np.flatnonzero(value == np.repeat(top, sizes))
    value[tops[np.searchsorted(tops, starts)]] = -np.inf  # value is a sorted copy
    second = np.maximum.reduceat(value, starts)
    pair = sizes >= 2
    # math.log, not np.log, whose results can differ from it in the last bit
    return AffiliationPairs(codes[starts[pair]], _logs(top[pair]), _logs(second[pair]))


def _logs(values):
    return np.fromiter(map(math.log, values.tolist()), float, values.size)


def _runs(*keys):
    """(starts, ends) of the runs of equal key tuples in sorted key arrays."""
    size = keys[0].size
    new = np.ones(size, dtype=bool)
    if size:
        new[1:] = False
        for key in keys:
            new[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(new)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1:] = size
    return starts, ends


def affiliation_diagnostic(pairs: AffiliationPairs):
    """Per-type least-squares slope and correlation of the within-block pairs
    that ``affiliation_pairs`` returns, keyed in the order types first appear.

    Types with fewer than two pairs, or a constant top-value series, report
    slope and correlation as None; a constant second-value series keeps its
    slope and reports the correlation as None.
    """
    stats = {}
    for c in _first_seen(pairs.mev_type):
        mev_type = MEV_TYPES[c]
        of_type = pairs.mev_type == c
        x, y = pairs.log_top[of_type], pairs.log_second[of_type]
        if x.size < 2 or np.ptp(x) == 0:
            stats[mev_type] = AffiliationStat(mev_type, x.size, None, None)
            continue
        slope = float(np.polyfit(x, y, 1)[0])
        corr = float(np.corrcoef(x, y)[0, 1]) if np.ptp(y) > 0 else None
        stats[mev_type] = AffiliationStat(mev_type, x.size, slope, corr)
    return stats


# ---------------------------------------------------------------------------
# concentration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationStat:
    mev_type: MevType
    groups: int
    gini: float
    lorenz_population: np.ndarray
    lorenz_value: np.ndarray
    top_k_shares: dict


def gini_coefficient(totals) -> float:
    """Gini of nonnegative group totals via the sorted-index identity."""
    x = np.sort(np.asarray(totals, dtype=float))
    m = x.size
    s = x.sum()
    if m == 0 or s <= 0:
        return 0.0
    idx = np.arange(1, m + 1)
    return float((2.0 * np.sum(idx * x) / (m * s)) - (m + 1.0) / m)


def concentration(table: BundleTable):
    """Lorenz curve, Gini, and top-k shares of the extracted value of
    ``table``'s records per type, grouped by searcher.

    Records with non-positive extracted value are ignored.
    """
    table._require_text(("searcher",))
    positive = table.value > 0
    codes = table.mev_type[positive]
    cell = codes * len(table.searchers) + table.searcher[positive]
    size = len(MEV_TYPES) * len(table.searchers)
    sums = np.bincount(cell, weights=table.value[positive], minlength=size)
    seen = np.bincount(cell, minlength=size) > 0
    sums, seen = sums.reshape(len(MEV_TYPES), -1), seen.reshape(len(MEV_TYPES), -1)
    out = {}
    for c in _first_seen(codes):
        totals = np.sort(sums[c][seen[c]])
        m = totals.size
        cum = np.concatenate([[0.0], np.cumsum(totals)]) / totals.sum()
        pop = np.linspace(0.0, 1.0, m + 1)
        desc = totals[::-1]
        top_k = {
            k: float(desc[: min(k, m)].sum() / totals.sum()) for k in (1, 5, 10)
        }
        out[MEV_TYPES[c]] = ConcentrationStat(
            mev_type=MEV_TYPES[c], groups=m, gini=gini_coefficient(totals),
            lorenz_population=pop, lorenz_value=cum, top_k_shares=top_k,
        )
    return out


# ---------------------------------------------------------------------------
# per-builder aggregates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuilderRow:
    builder: str
    count: int
    total_extracted: float
    mean_bribe_share: float
    bribe_share_std: float
    searchers: int


def builder_table(table: BundleTable):
    """Per-builder aggregates of ``table``'s records sorted by total extracted
    value, descending.

    Counts and totals cover all records; bribe-share moments use only
    records with positive extracted value (population std, zero for a
    single record).
    """
    table._require_text(("builder", "searcher"))
    builder, n = table.builder, len(table.builders)
    count = np.bincount(builder, minlength=n)
    total = np.bincount(builder, weights=table.value, minlength=n)
    width = max(1, len(table.searchers))
    pairs = np.unique(builder * width + table.searcher)
    searchers = np.bincount(pairs // width, minlength=n)
    positive = table.value > 0
    by_builder = np.argsort(builder[positive], kind="stable")
    shares = (table.tip[positive] / table.value[positive])[by_builder]
    split = np.split(shares, np.cumsum(np.bincount(builder[positive], minlength=n))[:-1])
    rows = []
    for b in np.flatnonzero(count).tolist():
        s = split[b]
        rows.append(BuilderRow(
            builder=table.builders[b],
            count=int(count[b]),
            total_extracted=float(total[b]),
            mean_bribe_share=float(s.mean()) if s.size else math.nan,
            bribe_share_std=float(s.std()) if s.size else math.nan,
            searchers=int(searchers[b]),
        ))
    rows.sort(key=lambda r: (-r.total_extracted, r.builder))
    return rows


# ---------------------------------------------------------------------------
# effective-bidder-count diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoardBin:
    mev_type: MevType
    count_lo: int
    count_hi: int
    records: int
    mean_revenue: float
    mean_bribe_share: float


@dataclass(frozen=True, eq=False)
class BidderCounts:
    """Bidder-count proxies of a table's records.

    ``order`` lists row positions of ``table`` by type label, then block,
    then file order within a block; ``proxy[i]`` is the proxy of row
    ``order[i]``.
    """

    table: BundleTable
    order: np.ndarray
    proxy: np.ndarray


def effective_bidder_counts(table: BundleTable,
                            window: int = DEFAULT_PROXY_WINDOW) -> BidderCounts:
    """Proxy for market thickness: distinct same-type searchers active in the
    trailing ``window`` blocks (inclusive), so every record of ``table`` sees
    the whole block.  Returns the records' proxies, ordered by block number
    within type (see ``BidderCounts``)."""
    if window < 1:
        raise ConfigurationError("proxy window must be >= 1")
    table._require_text(("searcher",))
    order = np.lexsort((table.block, table.mev_type))
    codes = table.mev_type[order]
    proxy = np.empty(order.size, dtype=np.int64)
    for start, end in zip(*_runs(codes)):
        rows = order[start:end]
        proxy[start:end] = _window_counts(table.block[rows], table.searcher[rows], window)
    return BidderCounts(table, order, proxy)


def _window_counts(block, searcher, window):
    """For records sorted by block: the distinct searchers with a record in
    a block of (block - window, block].

    A searcher's active blocks less than ``window`` apart form one run, and
    the searcher counts at block b exactly when one of its runs has
    start <= b and last > b - window.  Runs of one searcher never overlap in
    that sense, so the count is #(starts <= b) - #(lasts <= b - window):
    O(n log n) however many searchers there are.  The arithmetic runs on
    uint64 offsets from the first block, exact over the whole int64 range.
    """
    if block.size == 0:
        return block
    off = block.view(np.uint64) - block[:1].view(np.uint64)
    # window - 1, at most the span: a wider window counts the same
    reach = np.uint64(min(window - 1, int(off[-1])))
    by_searcher = np.lexsort((off, searcher))
    sb, ss = off[by_searcher], searcher[by_searcher]
    first, _ = _runs(ss, sb)
    active_block, active_searcher = sb[first], ss[first]
    run = np.ones(active_block.size, dtype=bool)
    # a searcher's first gap wraps around in uint64, but its run starts anyway
    run[1:] = ((active_searcher[1:] != active_searcher[:-1])
               | (active_block[1:] - active_block[:-1] > reach))
    starts = np.sort(active_block[run])
    lasts = np.sort(active_block[np.append(np.flatnonzero(run)[1:] - 1, run.size - 1)])
    # lasts <= b - window is lasts < b - reach; no last qualifies below reach
    return (np.searchsorted(starts, off, side="right")
            - np.searchsorted(lasts, np.maximum(off, reach) - reach))


def board_diagnostic(counted: BidderCounts):
    """Mean auction revenue (tip) and bribe share by bidder-count bin.

    ``counted`` is the ``BidderCounts`` from ``effective_bidder_counts``.
    ``DEFAULT_COUNT_BINS`` are the left edges of the count bins; the last bin
    is open.  No monotonicity is enforced; thin and thick markets may behave
    differently and the point is to show it.
    """
    edges = DEFAULT_COUNT_BINS
    table, rows = counted.table, counted.order
    value = table.value[rows]
    keep = ~(value <= 0)
    tip = table.tip[rows][keep]
    share = tip / value[keep]
    bins = np.maximum(0, np.searchsorted(edges, counted.proxy[keep], side="right") - 1)
    cell = table.mev_type[rows][keep] * len(edges) + bins
    by_cell = np.argsort(cell, kind="stable")
    cell, tip, share = cell[by_cell], tip[by_cell], share[by_cell]
    out = []
    for start, end in zip(*_runs(cell)):
        code, i = divmod(int(cell[start]), len(edges))
        hi = edges[i + 1] - 1 if i + 1 < len(edges) else np.iinfo(np.int32).max
        out.append(BoardBin(
            mev_type=MEV_TYPES[code], count_lo=edges[i], count_hi=int(hi),
            records=int(end - start),
            mean_revenue=float(tip[start:end].mean()),
            mean_bribe_share=float(share[start:end].mean()),
        ))
    return out
