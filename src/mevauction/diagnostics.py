"""Cross-sectional diagnostics on bundle records.

These mirror the appendix-style checks: within-block affiliation of the top
two extracted values, concentration of extracted value across searchers or
builders (Lorenz, Gini, top-k shares), per-builder aggregates, and revenue
by effective-bidder-count bins.  Nothing here enforces a sign or a slope;
the numbers are reported as found.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

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


def affiliation_pairs(records):
    """(mev_type, log v_top, log v_second) for each block with two or more
    positive-value records of the same type."""
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


def affiliation_diagnostic(pairs):
    """Per-type least-squares slope and correlation of the within-block pairs
    that ``affiliation_pairs`` returns.

    Types with fewer than two pairs report slope and correlation as None.
    """
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
        corr = float(np.corrcoef(x, y)[0, 1])
        stats[mev_type] = AffiliationStat(mev_type, arr.shape[0], slope, corr)
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


def concentration(records, by: str = "searcher"):
    """Lorenz curve, Gini, and top-k shares of extracted value per type.

    ``by`` selects the grouping key, searcher or builder.  Records with
    non-positive extracted value are ignored.
    """
    if by not in ("searcher", "builder"):
        raise ConfigurationError("grouping key must be 'searcher' or 'builder'")
    sums = defaultdict(lambda: defaultdict(float))
    for rec in records:
        ev = rec.extracted_value
        if ev > 0:
            sums[rec.mev_type][getattr(rec, by)] += ev
    out = {}
    for mev_type, groups in sums.items():
        totals = np.sort(np.fromiter(groups.values(), dtype=float))
        m = totals.size
        cum = np.concatenate([[0.0], np.cumsum(totals)]) / totals.sum()
        pop = np.linspace(0.0, 1.0, m + 1)
        desc = totals[::-1]
        top_k = {
            k: float(desc[: min(k, m)].sum() / totals.sum()) for k in (1, 5, 10)
        }
        out[mev_type] = ConcentrationStat(
            mev_type=mev_type, groups=m, gini=gini_coefficient(totals),
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


def builder_table(records):
    """Per-builder aggregates sorted by total extracted value, descending.

    Counts and totals cover all records; bribe-share moments use only
    records with positive extracted value (population std, zero for a
    single record).
    """
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
            builder=builder,
            count=count[builder],
            total_extracted=total[builder],
            mean_bribe_share=float(s.mean()) if s.size else math.nan,
            bribe_share_std=float(s.std()) if s.size else math.nan,
            searchers=len(searchers[builder]),
        ))
    rows.sort(key=lambda r: (-r.total_extracted, r.builder))
    return rows


def builder_table_csv(rows) -> str:
    buf = io.StringIO()
    buf.write("builder,count,total_extracted,mean_bribe_share,bribe_share_std,searchers\n")
    for r in rows:
        buf.write(f"{r.builder},{r.count},{r.total_extracted:.12g},"
                  f"{r.mean_bribe_share:.12g},{r.bribe_share_std:.12g},{r.searchers}\n")
    return buf.getvalue()


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


def effective_bidder_counts(records, window: int = DEFAULT_PROXY_WINDOW):
    """Proxy for market thickness: distinct same-type searchers active in the
    trailing ``window`` blocks (inclusive).  Returns records paired with
    their proxy, ordered by block number within type."""
    if window < 1:
        raise ConfigurationError("proxy window must be >= 1")
    by_type = defaultdict(list)
    for rec in records:
        by_type[rec.mev_type].append(rec)
    out = []
    for mev_type in sorted(by_type, key=lambda t: t.value):
        recs = sorted(by_type[mev_type], key=lambda r: r.block_number)
        active = Counter()
        lo = 0
        for i, rec in enumerate(recs):
            active[rec.searcher] += 1
            while recs[lo].block_number <= rec.block_number - window:
                active[recs[lo].searcher] -= 1
                if active[recs[lo].searcher] == 0:
                    del active[recs[lo].searcher]
                lo += 1
            out.append((rec, len(active)))
    return out


def board_diagnostic(counted, bin_edges=DEFAULT_COUNT_BINS):
    """Mean auction revenue (tip) and bribe share by bidder-count bin.

    ``counted`` is the ``(record, proxy)`` list from
    ``effective_bidder_counts``.  ``bin_edges`` are left edges of the count
    bins; the last bin is open.  No monotonicity is enforced; thin and thick
    markets may behave differently and the point is to show it.
    """
    edges = tuple(bin_edges)
    if len(edges) < 1 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ConfigurationError("bin edges must be strictly increasing")
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
            records=arr.shape[0],
            mean_revenue=float(arr[:, 0].mean()),
            mean_bribe_share=float(arr[:, 1].mean()),
        ))
    return rows
