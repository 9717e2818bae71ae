"""Bundle-record analytics: ingestion, bribe schedules, replicable-share
estimation, and the revenue decomposition.

Input schema (CSV, header required, UTF-8, RFC-4180 quoting):

    tx_hash,block_number,mev_type,builder,searcher,tip_usdc,profit_usdc

``extracted_value`` is tip + profit; the bribe share tip / extracted_value is
defined only for positive extracted value.  Records with non-positive
extracted value are excluded from schedules and the decomposition and
counted in a data-quality sidebar.  Bribe shares above one are kept and
flagged, never clamped; data-quality issues should stay visible.  A block
number outside the signed 64-bit range makes a row malformed.

Records are held as one columnar :class:`BundleTable`: float64 ``tip``,
``profit`` and ``value`` (tip + profit, summed once), int64 ``block``, small
integer codes for type, builder and searcher with their label tuples (each
label listed once), and the tx hashes as a list.  ``BundleTable.read``
builds it in a single pass over the file, 512 lines at a time, and each
block picks its tokenizer from its content: a block with no quote, no NUL
and no more characters than ``csv.field_size_limit()`` splits at each comma,
one row per line, and any other block goes through ``csv.reader``, which
takes the rest of a quoted field opened on the block's last line from the
file.  Each block's rows are converted by column: ``float`` and ``int``
over each numeric column, a dict lookup
over the types, and numpy masks for the sign, finiteness and 64-bit range
checks.  Only a row that a check flags goes through ``_parse_row``, which
holds the malformed-row rules and rejects the row or accepts it in place (a
malformed row is reported by the file line it starts on).  A row that
``csv.reader`` cannot tokenize stops the read with an ``IngestError`` naming
the file and that line.  ``iter_bundles`` and ``ingest`` are record views
over that table, and every schedule, estimate and diagnostic groups the
columns with numpy instead of looping over records.  Each of them also
accepts an iterable of :class:`BundleRecord` and collects it into a table
first.  ``write_bundles`` writes one table or a stream of tables
(``BundleTable.from_records`` wraps records) with one format per row, the
label columns gathered by code, quoting fields exactly as ``csv.writer``'s
default dialect does.

Grouped sums keep the order of the records: a per-group total is
``np.bincount`` with weights, which adds in input order exactly as a
``total[key] += x`` loop does; totals over types add the per-type totals
in the order the types first appear; and means and standard deviations are
taken with ``np.mean``/``np.std`` over each group's values in record order.
The outputs therefore match a record-by-record computation bit for bit.

Schedules, estimates and the decomposition hold numbers; ``cli.py`` writes
their files.

Bribe schedules use equal-count quantile bins of extracted value (50, fewer
for thin types), and the replicable share of a type is the
count-weighted mean bribe share over the top fifth of bins, with the
dispersion of those bin means reported alongside so a non-plateau is visible.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from array import array
from dataclasses import dataclass, field
from itertools import chain, compress, islice

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    IngestError,
    ParameterError,
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

# type code -> MevType; codes of a table index this tuple.  Codes are numbered
# in label order, the order outputs list types in, so sorting codes sorts labels
MEV_TYPES = tuple(sorted(MevType, key=lambda t: t.value))
# a MevType is a str, so this maps a label to its code too
_TYPE_CODE = {t: i for i, t in enumerate(MEV_TYPES)}
_BLOCK_MIN, _BLOCK_MAX = -(1 << 63), (1 << 63) - 1


@dataclass
class IngestReport:
    rows_read: int = 0
    records: int = 0
    malformed: int = 0
    samples: list = field(default_factory=list)


def _parse_row(row):
    """(tx_hash, block, type code, builder, searcher, tip, profit) of one data
    row; ValueError if the row is malformed.

    The checks run in a fixed order (field count, tip, profit, finiteness,
    block, type), so the first failing one names the row's error.
    """
    if len(row) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(row)}")
    tip = float(row[5])
    profit = float(row[6])
    if not (0.0 <= tip < math.inf and -math.inf < profit < math.inf):
        raise ValueError("tip must be nonnegative and finite, profit finite")
    block = int(row[1])
    if not _BLOCK_MIN <= block <= _BLOCK_MAX:
        raise ValueError(f"block number {block} outside the signed 64-bit range")
    code = _TYPE_CODE.get(row[2])
    if code is None:
        code = _TYPE_CODE[MevType.parse(row[2])]
    return row[0], block, code, row[3], row[4], tip, profit


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


@dataclass(frozen=True, eq=False)
class BundleTable:
    """Bundle records as columns, in record order.

    ``mev_type`` holds codes into ``MEV_TYPES``, ``builder`` and ``searcher``
    codes into the ``builders`` and ``searchers`` label tuples.  Each label is
    listed once, so each builder or searcher is one code; a repeated label
    is a ParameterError.  ``value`` is tip + profit, computed once.
    """

    tx_hash: list
    block: np.ndarray
    mev_type: np.ndarray
    builder: np.ndarray
    builders: tuple
    searcher: np.ndarray
    searchers: tuple
    tip: np.ndarray
    profit: np.ndarray
    value: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("builders", "searchers"):
            labels = getattr(self, name)
            if len(set(labels)) != len(labels):
                raise ParameterError(f"{name} lists a label twice: {labels!r}")
        object.__setattr__(self, "value", self.tip + self.profit)

    def __len__(self) -> int:
        return len(self.tx_hash)

    @classmethod
    def from_records(cls, records) -> "BundleTable":
        """Collect an iterable of BundleRecord into a table."""
        records = list(records)
        builders, searchers = {}, {}
        return cls(
            [r.tx_hash for r in records],
            np.array([r.block_number for r in records], dtype=np.int64),
            np.array([_TYPE_CODE[r.mev_type] for r in records], dtype=np.intp),
            np.array([builders.setdefault(r.builder, len(builders)) for r in records],
                     dtype=np.intp), tuple(builders),
            np.array([searchers.setdefault(r.searcher, len(searchers)) for r in records],
                     dtype=np.intp), tuple(searchers),
            np.array([r.tip for r in records], dtype=float),
            np.array([r.profit for r in records], dtype=float))

    @classmethod
    def read(cls, path, report: IngestReport | None = None) -> "BundleTable":
        """Read a bundle CSV in one pass.

        ``csv.reader`` reads the header; the file is then taken
        ``_READ_BLOCK`` physical lines at a time (``_block_rows``).  A block
        with no quote, no NUL and no more characters than
        ``csv.field_size_limit()`` splits at each comma, one row per line; any
        other block goes through ``csv.reader``, which reads a quoted field
        opened on the block's last line on into the file.  Each block's rows
        are converted one column at a time (``_block_columns``), and only a
        row that a column check flags goes through ``_parse_row``.
        Malformed rows are counted in ``report`` (not fatal); if they exceed
        0.1% of rows, IngestError is raised with samples.  A row that
        ``csv.reader`` cannot tokenize (a field longer than
        ``csv.field_size_limit()``, as an unterminated quote makes) is an
        IngestError naming the file and the line the row starts on.  A header
        not matching the schema is a hard SchemaError up front.
        """
        report = report if report is not None else IngestReport()
        rows_read = malformed = 0
        # typed arrays hold each parsed field in 8 bytes (types in 1), with no
        # per-row Python object kept but the tx hash
        tx, builder_codes, searcher_codes = [], {}, {}
        block, types = array("q"), array("B")
        builder, searcher = array("q"), array("q")
        tip, profit = array("d"), array("d")
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: empty file, expected header "
                                  f"{','.join(CSV_COLUMNS)}") from None
            except csv.Error as exc:
                raise IngestError(f"{path}: line 1: {exc}") from None
            got = tuple(h.strip() for h in header)
            if got != CSV_COLUMNS:
                missing = set(CSV_COLUMNS) - set(got)
                extra = set(got) - set(CSV_COLUMNS)
                raise SchemaError(
                    f"{path}: header mismatch; missing={sorted(missing)} "
                    f"unexpected={sorted(extra)}"
                )
            lines_read = reader.line_num
            field_limit = csv.field_size_limit()
            while True:
                lines = list(islice(fh, _READ_BLOCK))
                if not lines:
                    break
                first_line = lines_read + 1
                try:
                    rows, spanned = _block_rows(lines, fh, field_limit, first_line)
                except csv.Error as exc:
                    raise IngestError(f"{path}: {exc}") from None
                lines_read += spanned
                rows_read += len(rows)
                (t, b, c, bu, se, tp, pr), rejected = _block_columns(
                    rows, first_line, report.samples)
                malformed += rejected
                tx += t
                block.frombytes(b.tobytes())
                types.frombytes(c.tobytes())
                builder.frombytes(_label_codes(bu, builder_codes).tobytes())
                searcher.frombytes(_label_codes(se, searcher_codes).tobytes())
                tip.frombytes(tp.tobytes())
                profit.frombytes(pr.tobytes())
        report.rows_read += rows_read
        report.malformed += malformed
        report.records += len(tx)
        if report.rows_read and report.malformed > MALFORMED_LIMIT * report.rows_read:
            raise IngestError(
                f"{path}: {report.malformed}/{report.rows_read} malformed rows "
                f"exceed the {MALFORMED_LIMIT:.1%} threshold; samples: {report.samples[:5]}"
            )

        def codes(column):
            return np.frombuffer(column, dtype=np.int64).astype(np.intp, copy=False)

        return cls(tx, np.frombuffer(block, dtype=np.int64),
                   np.frombuffer(types, dtype=np.uint8).astype(np.intp),
                   codes(builder), tuple(builder_codes),
                   codes(searcher), tuple(searcher_codes),
                   np.frombuffer(tip, dtype=float), np.frombuffer(profit, dtype=float))

    def select(self, index) -> "BundleTable":
        """The rows at ``index`` (a boolean mask or integer positions), in that order."""
        index = np.asarray(index)
        if index.dtype == bool:
            index = np.flatnonzero(index)
        elif index.size == 0:  # [] converts to a float array
            index = index.astype(np.intp)
        tx = self.tx_hash
        return BundleTable([tx[i] for i in index.tolist()], self.block[index],
                           self.mev_type[index], self.builder[index], self.builders,
                           self.searcher[index], self.searchers,
                           self.tip[index], self.profit[index])

    def records(self):
        """The rows as BundleRecord objects, in table order."""
        builders, searchers = self.builders, self.searchers
        for tx, block, t, b, s, tip, profit in zip(
                self.tx_hash, self.block.tolist(), self.mev_type.tolist(),
                self.builder.tolist(), self.searcher.tolist(),
                self.tip.tolist(), self.profit.tolist()):
            yield BundleRecord(tx, block, MEV_TYPES[t], builders[b], searchers[s],
                               tip, profit)

    def to_csv(self) -> str:
        """The rows as lines of the input schema, byte for byte what
        ``csv.writer`` writes for them (floats to 12 significant digits).

        One ``%``-format per row instead of ``csv.writer.writerows``: on the
        pipeline benchmark workload writerows cut throughput by about 15%.
        The tx hashes are quoted one by one only when their join holds a
        comma, a quote or a line break, and the type, builder and searcher
        columns are gathered from object arrays of their quoted labels,
        indexed by code.
        """
        tx = self.tx_hash
        joined = "".join(tx)
        if "," in joined or '"' in joined or "\r" in joined or "\n" in joined:
            tx = [_csv_field(t) for t in tx]

        def labels(texts, codes):
            return np.array([_csv_field(t) for t in texts], dtype=object)[codes].tolist()

        return "".join(map("%s,%d,%s,%s,%s,%.12g,%.12g\r\n".__mod__, zip(
            tx, self.block.tolist(),
            labels([t.value for t in MEV_TYPES], self.mev_type),
            labels(self.builders, self.builder), labels(self.searchers, self.searcher),
            self.tip.tolist(), self.profit.tolist())))


_CSV_SPECIAL = re.compile('[,"\r\n]')
_LINE_BREAK = re.compile("\r\n|\r|\n")

# physical lines BundleTable.read takes at a time: 4096-row blocks read the
# benchmark input slower than a per-row loop, 512-row blocks faster
_READ_BLOCK = 512
# stands in for a row without seven fields, so that its block still splits
# into columns; its tip is NaN, so the finiteness check flags it
_NOT_A_ROW = ("", "0", "", "", "", "nan", "nan")


def _block_rows(lines, fh, field_limit, first_line):
    """The rows that start on ``lines``, physical lines of the open bundle CSV
    ``fh`` (terminators kept) from file line ``first_line`` on, and the
    number of lines they span.

    A block with no quote, no NUL and no more characters than ``field_limit``
    (``csv.field_size_limit()``) splits at each comma, one row per line; a
    blank line is a row of no fields, as ``csv.reader`` reads it.  Any other
    block goes through ``csv.reader``, which takes the lines of a quoted
    field opened on the block's last line from ``fh``.  A ``csv.Error`` is
    raised again with the file line of the row it stopped in.
    """
    text = "".join(lines)
    if '"' in text or "\0" in text or len(text) > field_limit:
        reader = csv.reader(chain(lines, fh))
        rows, spanned = [], 0
        try:
            for row in reader:
                rows.append(row)
                spanned = reader.line_num
                if spanned >= len(lines):
                    break
        except csv.Error as exc:
            # the failing row starts on the line after the last row read
            raise csv.Error(f"line {first_line + spanned}: {exc}") from None
        return rows, spanned
    rows = [line.rstrip("\r\n").split(",") for line in lines]
    if [""] in rows:
        rows = [row if row != [""] else [] for row in rows]
    return rows, len(lines)


def _block_columns(rows, first_line, samples):
    """The accepted rows of ``rows``, data rows the first of which starts on
    file line ``first_line``, as columns, and the number of rows rejected.

    The columns are the tx hashes, builders and searchers as tuples or lists,
    and the block numbers, type codes, tips and profits as arrays.  Each
    column converts in one pass, and masks flag each row that lacks seven
    fields or whose tip, profit, block number or type label a check rejects.
    Only a flagged row goes through ``_parse_row``, the one statement of the
    malformed-row rules: it either rejects the row (sampled into ``samples``
    while they hold fewer than 10, with the line the row starts on) or
    accepts it in place, as it does a type label in another case.
    """
    flagged = np.fromiter(map(len, rows), np.intp, len(rows)) != len(CSV_COLUMNS)
    cells = rows
    if flagged.any():
        cells = [_NOT_A_ROW if bad else row for row, bad in zip(rows, flagged.tolist())]
    tx, block, kind, builder, searcher, tip, profit = zip(*cells)
    tip, profit = _floats(tip), _floats(profit)
    flagged |= ~((tip >= 0.0) & (tip < math.inf) & (profit > -math.inf) & (profit < math.inf))
    block, wide = _int64s(block)
    flagged |= wide
    try:
        codes = bytearray(map(_TYPE_CODE.get, kind))
    except TypeError:  # a label that is not a type's, as written
        codes = [_TYPE_CODE.get(k) for k in kind]
        flagged |= np.array([c is None for c in codes])
        codes = bytearray(0 if c is None else c for c in codes)
    codes = np.frombuffer(codes, dtype=np.uint8)

    rejected = []
    for i in np.flatnonzero(flagged).tolist():
        try:
            _, block[i], codes[i], _, _, tip[i], profit[i] = _parse_row(rows[i])
        except (ValueError, KeyError) as exc:
            rejected.append(i)
            if len(samples) < 10:
                # a quoted line break inside a field spans one more line; the
                # commas keep a break that ends one field from joining one
                # that starts the next
                breaks = len(_LINE_BREAK.findall(",".join(chain.from_iterable(rows[:i]))))
                samples.append({"line": first_line + i + breaks, "error": str(exc)})
    if rejected:
        keep = np.ones(len(rows), dtype=bool)
        keep[rejected] = False
        kept = keep.tolist()
        tx, builder, searcher = (list(compress(c, kept)) for c in (tx, builder, searcher))
        block, codes, tip, profit = block[keep], codes[keep], tip[keep], profit[keep]
    return (tx, block, codes, builder, searcher, tip, profit), len(rejected)


def _floats(cells):
    """``float`` of each of ``cells`` as an array, NaN where a cell does not
    convert."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return np.array([_float_or_nan(c) for c in cells])


def _float_or_nan(cell):
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _int64s(cells):
    """``int`` of each of ``cells`` as an int64 array, and a mask of the cells
    that do not convert or fall outside int64 (held as 0), or False if none.

    The range is checked on the Python ints, before any becomes an int64."""
    try:
        ints = list(map(int, cells))
        if _BLOCK_MIN <= min(ints) and max(ints) <= _BLOCK_MAX:
            return np.array(ints, dtype=np.int64), False
    except ValueError:
        ints = list(map(_int_or_none, cells))
    bad = [i is None or not _BLOCK_MIN <= i <= _BLOCK_MAX for i in ints]
    return np.array([0 if b else i for i, b in zip(ints, bad)], dtype=np.int64), np.array(bad)


def _int_or_none(cell):
    try:
        return int(cell)
    except ValueError:
        return None


def _label_codes(labels, codes):
    """The codes of ``labels`` in ``codes`` (a dict from label to code) as an
    int64 array; ``codes`` first takes each new label, numbered in first-seen
    order."""
    try:
        return np.fromiter(map(codes.__getitem__, labels), np.int64, len(labels))
    except KeyError:
        for label in dict.fromkeys(labels):
            codes.setdefault(label, len(codes))
        return np.fromiter(map(codes.__getitem__, labels), np.int64, len(labels))


def _csv_field(text: str) -> str:
    """``text`` as a field of csv.writer's default dialect: quoted, with quotes
    doubled, when it holds a comma, a quote or a line break."""
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _as_table(records) -> BundleTable:
    """``records`` as a BundleTable: a table passes through, an iterable of
    BundleRecord is collected."""
    if isinstance(records, BundleTable):
        return records
    return BundleTable.from_records(records)


def _types_present(codes) -> list:
    """The type codes occurring in ``codes``, in label order."""
    return np.flatnonzero(np.bincount(codes, minlength=len(MEV_TYPES))).tolist()


def _first_seen(codes) -> list:
    """The distinct values of ``codes`` in order of first occurrence."""
    values, first = np.unique(codes, return_index=True)
    return values[np.argsort(first)].tolist()


def iter_bundles(path, report: IngestReport | None = None):
    """Stream records from a bundle CSV (a record view of ``BundleTable.read``).

    Malformed rows are counted in ``report`` (not fatal); if they exceed
    0.1% of rows, IngestError is raised with samples before any record is
    yielded.  A header not matching the schema is a hard SchemaError.
    """
    yield from BundleTable.read(path, report).records()


def ingest(path):
    """Read a bundle CSV eagerly; returns (records, IngestReport)."""
    report = IngestReport()
    records = list(BundleTable.read(path, report).records())
    return records, report


def write_bundles(path, tables) -> int:
    """Write a BundleTable, or an iterable of them written one after the
    other, in the input schema; inverse of ``BundleTable.read`` on valid rows.
    Returns the number of rows written.
    """
    chunks = (tables,) if isinstance(tables, BundleTable) else tables
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for chunk in chunks:
            fh.write(chunk.to_csv())
            count += len(chunk)
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


def bribe_schedule(records, mev_type: MevType) -> BribeSchedule:
    """Quantile-binned bribe shares for one MEV type.

    ``records`` is a BundleTable or an iterable of records.  Bins partition
    the records by extracted value with equal counts (+-1, up to ties):
    ``FULL_BINS`` of them, or max(10, count // 20) with a warning for a type
    with fewer than ``THIN_THRESHOLD`` valid records.  Fewer than 10 valid
    records is a ThinSampleError.
    """
    table = _as_table(records)
    of_type = table.mev_type == _TYPE_CODE[mev_type]
    values = table.value[of_type]
    nonpositive = values <= 0
    excluded = int(np.count_nonzero(nonpositive))
    values = values[~nonpositive]
    shares = table.tip[of_type][~nonpositive] / values
    above_one = int(np.count_nonzero(shares > 1.0))

    count = values.size
    if count < 10:
        raise ThinSampleError(
            f"{mev_type.value}: only {count} valid records, cannot form 10 bins"
        )
    bins = FULL_BINS
    if count < THIN_THRESHOLD:
        bins = max(10, count // 20)
        warnings.warn(
            f"{mev_type.value}: {count} records is thin; "
            f"using {bins} bins instead of {FULL_BINS}",
            stacklevel=2,
        )

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


def decompose(records, gammas) -> DecompositionReport:
    """Foregone frontrun surplus: sum of max(0, gamma_hat * value - tip).

    ``records`` is a BundleTable or an iterable of records.  ``gammas`` maps
    MevType to a GammaEstimate (or bare float); every type present with a
    positive value must have an estimate.
    """
    table = _as_table(records)
    positive = ~(table.value <= 0)
    excluded = len(table) - int(np.count_nonzero(positive))
    codes = table.mev_type[positive]
    seen = _first_seen(codes)
    gamma_of = np.zeros(len(MEV_TYPES))
    for c in seen:
        mev_type = MEV_TYPES[c]
        if mev_type not in gammas:
            raise ConfigurationError(
                f"no gamma estimate for observed type {mev_type.value!r}"
            )
        g = gammas[mev_type]
        gamma_of[c] = g.gamma_hat if isinstance(g, GammaEstimate) else float(g)
    tips = table.tip[positive]
    gap = gamma_of[codes] * table.value[positive] - tips
    k = len(MEV_TYPES)
    tip_sum = np.bincount(codes, weights=tips, minlength=k)
    foregone = np.bincount(codes, weights=np.where(gap > 0.0, gap, 0.0), minlength=k)
    counts = np.bincount(codes, minlength=k)
    per_type = tuple(
        TypeDecomposition(mev_type=MEV_TYPES[c], observed_tips=float(tip_sum[c]),
                          foregone_surplus=float(foregone[c]), records=int(counts[c]))
        for c in sorted(seen)
    )
    # type totals summed in first-seen order, as the per-record loop did
    return DecompositionReport(
        per_type=per_type,
        total_tips=sum(float(tip_sum[c]) for c in seen),
        total_foregone=sum(float(foregone[c]) for c in seen),
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
    return float(_bergemann_rule(rule)(int(n_effective)))


def _bergemann_rule(rule=None):
    """The disclosure rule ``rule`` names (the default for None), or the
    callable ``rule`` itself, checked against the rule contract."""
    if rule is None:
        rule = BERGEMANN_RULES[DEFAULT_BERGEMANN_RULE]
    elif isinstance(rule, str):
        try:
            rule = BERGEMANN_RULES[rule]
        except KeyError:
            raise ConfigurationError(f"unknown disclosure rule {rule!r}") from None
    validate_bergemann_rule(rule)
    return rule
