"""Bundle-record analytics: ingestion, bribe schedules, replicable-share
estimation, and the revenue decomposition.

Input schema (CSV, header required, UTF-8, RFC-4180 quoting):

    tx_hash,block_number,mev_type,builder,searcher,tip_usdc,profit_usdc

``extracted_value`` is tip + profit; the bribe share tip / extracted_value is
defined only for positive extracted value.  Records with non-positive
extracted value are excluded from schedules and the decomposition and
counted in a data-quality sidebar.  Bribe shares above one are kept and
flagged, never clamped; data-quality issues should stay visible.

Bribe schedules use equal-count quantile bins of extracted value (50 by
default, fewer for thin types), and the replicable share of a type is the
count-weighted mean bribe share over the top fifth of bins, with the
dispersion of those bin means reported alongside so a non-plateau is visible.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    IngestError,
    SchemaError,
    ThinSampleError,
)
from .profiles import MevType

CSV_COLUMNS = ("tx_hash", "block_number", "mev_type", "builder", "searcher",
               "tip_usdc", "profit_usdc")

MALFORMED_LIMIT = 0.001
FULL_BINS = 50
THIN_THRESHOLD = 500
GAMMA_FLAG_CEILING = 1.5


@dataclass(frozen=True, slots=True)
class BundleRecord:
    """One MEV bundle transaction."""

    tx_hash: str
    block_number: int
    mev_type: MevType
    builder: str
    searcher: str
    tip: float
    profit: float

    @property
    def extracted_value(self) -> float:
        return self.tip + self.profit

    @property
    def bribe_share(self):
        ev = self.extracted_value
        return self.tip / ev if ev > 0 else None

    def to_csv_row(self):
        return (self.tx_hash, str(self.block_number), self.mev_type.value,
                self.builder, self.searcher, f"{self.tip:.12g}", f"{self.profit:.12g}")


@dataclass
class IngestReport:
    rows_read: int = 0
    records: int = 0
    malformed: int = 0
    samples: list = field(default_factory=list)


def _parse_row(row):
    if len(row) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(row)}")
    tip = float(row[5])
    profit = float(row[6])
    if tip < 0 or not math.isfinite(tip) or not math.isfinite(profit):
        raise ValueError("tip must be nonnegative and finite, profit finite")
    return BundleRecord(
        tx_hash=row[0],
        block_number=int(row[1]),
        mev_type=MevType.parse(row[2]),
        builder=row[3],
        searcher=row[4],
        tip=tip,
        profit=profit,
    )


def iter_bundles(path, report: IngestReport | None = None):
    """Stream records from a bundle CSV.

    Malformed rows are counted in ``report`` (not fatal); if they exceed
    0.1% of rows at end of stream, IngestError is raised with samples.
    A header not matching the schema is a hard SchemaError up front.
    """
    report = report if report is not None else IngestReport()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected header "
                              f"{','.join(CSV_COLUMNS)}") from None
        got = tuple(h.strip() for h in header)
        if got != CSV_COLUMNS:
            missing = set(CSV_COLUMNS) - set(got)
            extra = set(got) - set(CSV_COLUMNS)
            raise SchemaError(
                f"{path}: header mismatch; missing={sorted(missing)} "
                f"unexpected={sorted(extra)}"
            )
        for lineno, row in enumerate(reader, start=2):
            report.rows_read += 1
            try:
                rec = _parse_row(row)
            except (ValueError, KeyError) as exc:
                report.malformed += 1
                if len(report.samples) < 10:
                    report.samples.append({"line": lineno, "error": str(exc)})
                continue
            report.records += 1
            yield rec
    if report.rows_read and report.malformed > MALFORMED_LIMIT * report.rows_read:
        raise IngestError(
            f"{path}: {report.malformed}/{report.rows_read} malformed rows "
            f"exceed the {MALFORMED_LIMIT:.1%} threshold; samples: {report.samples[:5]}"
        )


def ingest(path):
    """Read a bundle CSV eagerly; returns (records, IngestReport)."""
    report = IngestReport()
    records = list(iter_bundles(path, report))
    return records, report


def write_bundles(path, records) -> int:
    """Write records in the input schema; inverse of ``ingest`` on valid rows."""
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.to_csv_row())
            count += 1
    return count


# ---------------------------------------------------------------------------
# bribe schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleBin:
    value_lo: float
    value_hi: float
    mean_bribe_share: float
    std_bribe_share: float
    count: int


@dataclass(frozen=True)
class BribeSchedule:
    mev_type: MevType
    bins: tuple
    excluded_nonpositive: int
    shares_above_one: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("bin,value_lo,value_hi,mean_bribe_share,std_bribe_share,count\n")
        for i, b in enumerate(self.bins):
            buf.write(f"{i},{b.value_lo:.12g},{b.value_hi:.12g},"
                      f"{b.mean_bribe_share:.12g},{b.std_bribe_share:.12g},{b.count}\n")
        return buf.getvalue()


def bribe_schedule(records, mev_type: MevType, bins: int = FULL_BINS) -> BribeSchedule:
    """Quantile-binned bribe shares for one MEV type.

    Bins partition the records by extracted value with equal counts (+-1, up
    to ties).  Types with fewer than 500 valid records fall back to
    max(10, count // 20) bins with a warning.
    """
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
        raise ThinSampleError(
            f"{mev_type.value}: only {count} valid records, cannot form 10 bins"
        )
    if count < THIN_THRESHOLD:
        fallback = max(10, count // 20)
        if fallback < bins:
            warnings.warn(
                f"{mev_type.value}: {count} records is thin; "
                f"using {fallback} bins instead of {bins}",
                stacklevel=2,
            )
            bins = fallback

    values = np.asarray(values)
    shares = np.asarray(shares)
    order = np.argsort(values, kind="stable")
    values, shares = values[order], shares[order]
    out = []
    for chunk_v, chunk_s in zip(np.array_split(values, bins),
                                np.array_split(shares, bins)):
        out.append(ScheduleBin(
            value_lo=float(chunk_v[0]),
            value_hi=float(chunk_v[-1]),
            mean_bribe_share=float(np.mean(chunk_s)),
            std_bribe_share=float(np.std(chunk_s)),
            count=int(chunk_v.size),
        ))
    return BribeSchedule(mev_type=mev_type, bins=tuple(out),
                         excluded_nonpositive=excluded, shares_above_one=above_one)


@dataclass(frozen=True)
class GammaEstimate:
    mev_type: MevType
    gamma_hat: float
    plateau_bins: tuple
    dispersion: float
    flagged: bool

    def to_dict(self):
        return {"mev_type": self.mev_type.value, "gamma_hat": self.gamma_hat,
                "plateau_bin_count": len(self.plateau_bins),
                "dispersion": self.dispersion, "flagged": self.flagged}


def estimate_gamma(schedule: BribeSchedule) -> GammaEstimate:
    """Replicable share from the right-tail plateau: count-weighted mean
    bribe share over the top fifth of bins (by extracted value)."""
    if len(schedule.bins) < 10:
        raise ThinSampleError("schedule needs at least 10 bins")
    k = max(1, math.ceil(0.2 * len(schedule.bins)))
    plateau = schedule.bins[-k:]
    weights = np.array([b.count for b in plateau], dtype=float)
    means = np.array([b.mean_bribe_share for b in plateau])
    gamma_hat = float(np.sum(weights * means) / np.sum(weights))
    flagged = not (0.0 <= gamma_hat <= GAMMA_FLAG_CEILING)
    if flagged:
        warnings.warn(
            f"{schedule.mev_type.value}: gamma_hat={gamma_hat:.3f} outside "
            f"[0, {GAMMA_FLAG_CEILING}]; kept unclamped", stacklevel=2,
        )
    return GammaEstimate(
        mev_type=schedule.mev_type,
        gamma_hat=gamma_hat,
        plateau_bins=plateau,
        dispersion=float(np.std(means)),
        flagged=flagged,
    )


# ---------------------------------------------------------------------------
# revenue decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeDecomposition:
    mev_type: MevType
    observed_tips: float
    foregone_surplus: float
    records: int

    @property
    def ratio(self):
        return self.foregone_surplus / self.observed_tips if self.observed_tips > 0 else math.inf


@dataclass(frozen=True)
class DecompositionReport:
    per_type: tuple
    total_tips: float
    total_foregone: float
    excluded_nonpositive: int

    @property
    def total_ratio(self):
        return self.total_foregone / self.total_tips if self.total_tips > 0 else math.inf

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("mev_type,observed_tips,foregone_surplus,ratio,records\n")
        for t in self.per_type:
            buf.write(f"{t.mev_type.value},{t.observed_tips:.12g},"
                      f"{t.foregone_surplus:.12g},{t.ratio:.12g},{t.records}\n")
        buf.write(f"all,{self.total_tips:.12g},{self.total_foregone:.12g},"
                  f"{self.total_ratio:.12g},"
                  f"{sum(t.records for t in self.per_type)}\n")
        return buf.getvalue()


def decompose(records, gammas) -> DecompositionReport:
    """Foregone frontrun surplus: sum of max(0, gamma_hat * value - tip).

    ``gammas`` maps MevType to a GammaEstimate (or bare float); every type
    present in the stream must have an estimate.
    """
    tips, foregone, counts = {}, {}, {}
    excluded = 0
    for rec in records:
        ev = rec.extracted_value
        if ev <= 0:
            excluded += 1
            continue
        if rec.mev_type not in gammas:
            raise ConfigurationError(
                f"no gamma estimate for observed type {rec.mev_type.value!r}"
            )
        g = gammas[rec.mev_type]
        g = g.gamma_hat if isinstance(g, GammaEstimate) else float(g)
        tips[rec.mev_type] = tips.get(rec.mev_type, 0.0) + rec.tip
        foregone[rec.mev_type] = foregone.get(rec.mev_type, 0.0) \
            + max(0.0, g * ev - rec.tip)
        counts[rec.mev_type] = counts.get(rec.mev_type, 0) + 1
    per_type = tuple(
        TypeDecomposition(mev_type=t, observed_tips=tips[t],
                          foregone_surplus=foregone[t], records=counts[t])
        for t in sorted(tips, key=lambda t: t.value)
    )
    return DecompositionReport(
        per_type=per_type,
        total_tips=sum(tips.values()),
        total_foregone=sum(foregone.values()),
        excluded_nonpositive=excluded,
    )


# ---------------------------------------------------------------------------
# honest-disclosure benchmark
# ---------------------------------------------------------------------------

def _rule_one_minus_inverse_n(n: int) -> float:
    return 1.0 - 1.0 / n


BERGEMANN_RULES = {"one_minus_inverse_n": _rule_one_minus_inverse_n}
DEFAULT_BERGEMANN_RULE = "one_minus_inverse_n"

_PROBE_NS = (2, 3, 5, 10, 20, 50, 100, 1000)


def validate_bergemann_rule(rule) -> None:
    """Contract for any disclosure rule: values in [0, 1], nondecreasing in n."""
    vals = [rule(n) for n in _PROBE_NS]
    if any(not (0.0 <= v <= 1.0) for v in vals):
        raise ConfigurationError("disclosure rule must map into [0, 1]")
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise ConfigurationError("disclosure rule must be nondecreasing in n")


def bergemann_threshold(n_effective: int, rule=None) -> float:
    """Honest-disclosure benchmark for ``n_effective`` competing searchers.

    No closed form is imposed; the rule is configuration (name or callable)
    and only its monotonicity and range are enforced.  Thicker markets must
    tolerate at least as much disclosure.
    """
    if n_effective < 2:
        raise DomainError("n_effective must be >= 2")
    if rule is None:
        rule = BERGEMANN_RULES[DEFAULT_BERGEMANN_RULE]
    elif isinstance(rule, str):
        try:
            rule = BERGEMANN_RULES[rule]
        except KeyError:
            raise ConfigurationError(f"unknown disclosure rule {rule!r}") from None
    validate_bergemann_rule(rule)
    return float(rule(int(n_effective)))
