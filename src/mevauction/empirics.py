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
``profit`` and ``value`` (tip + profit, summed once), int64 ``block`` and
small integer codes for type, always; and, of the free-text columns, those
its reader asks for: the tx hashes as a list, and integer codes for
builder and searcher with their label tuples (each label listed once).  A
column not read is None.  ``estimate`` reads none of the three, ``report``
the builders and searchers, and ``BundleTable.read`` all three by default.
``BundleTable.read`` builds the table in a single pass over the file, 512
lines at a time, with one of two tokenizers per block (``_block_rows``
gives the rule): one ``np.loadtxt`` call, whose C parser splits a
quote-free block at commas, one row per line, and converts the columns held
(``usecols``), or ``csv.reader``, which takes the rest of a quoted field
opened on the block's last line from the file.  ``_parse_row`` holds the
malformed-row rules, on all seven fields.  It parses every row that
``csv.reader`` reads, and each row of a loaded block that numpy masks flag
by its tip, profit or type label, so the columns held change neither the
rows accepted nor the report.  A malformed row is reported by the file line
it starts on, and a row that ``csv.reader`` cannot tokenize stops the read
with an ``IngestError`` naming the file and that line.  Every schedule,
estimate and diagnostic takes that table and groups its columns with numpy
instead of looping over records.
``write_bundles`` writes a stream of tables, the label columns gathered by
code.  ``_format_rows`` spells the cells of every CSV file the package
writes: the bundle CSV here, the simulation trace and the command tables.
``iter_bundles`` and ``BundleTable.records`` are a record view of a table
that no command uses.

Grouped sums keep the order of the records: a per-group total is
``np.bincount`` with weights, which adds in input order exactly as a
``total[key] += x`` loop does; totals over types add the per-type totals
in the order the types first appear; and means and standard deviations are
taken with ``np.mean``/``np.std`` over each group's values in record order.
The outputs therefore match a record-by-record computation bit for bit.

Schedules, estimates and the decomposition hold numbers; ``cli.py`` writes
their files, through ``_format_rows``.

Bribe schedules use equal-count quantile bins of extracted value (50, fewer
for thin types), and the replicable share of a type is the
count-weighted mean bribe share over the top fifth of bins, with the
dispersion of those bin means reported alongside so a non-plateau is visible.
"""

from __future__ import annotations

import csv
import math
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
# the free-text columns, which a table holds only when its reader asks for them
TEXT_COLUMNS = ("tx_hash", "builder", "searcher")

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

    ``block``, ``mev_type``, ``tip`` and ``profit`` are always held.
    ``mev_type`` holds codes into ``MEV_TYPES``, ``builder`` and ``searcher``
    codes into the ``builders`` and ``searchers`` label tuples.  Each label is
    listed once, so each builder or searcher is one code; a repeated label
    is a ParameterError.  ``value`` is tip + profit, computed once.  A table
    read without a free-text column (``read``'s ``text_columns``) holds None
    for it, and for its label tuple: ``select`` carries the None through,
    and ``to_csv``, ``records`` and the diagnostics that read the column
    raise a ParameterError naming it.
    """

    tx_hash: list | None
    block: np.ndarray
    mev_type: np.ndarray
    builder: np.ndarray | None
    builders: tuple | None
    searcher: np.ndarray | None
    searchers: tuple | None
    tip: np.ndarray
    profit: np.ndarray
    value: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("builders", "searchers"):
            labels = getattr(self, name)
            if labels is not None and len(set(labels)) != len(labels):
                raise ParameterError(f"{name} lists a label twice: {labels!r}")
        object.__setattr__(self, "value", self.tip + self.profit)

    def __len__(self) -> int:
        return len(self.block)

    def _require_text(self, names=TEXT_COLUMNS):
        """ParameterError naming the first of the free-text columns ``names``
        not held."""
        for name in names:
            if getattr(self, name) is None:
                raise ParameterError(f"the table holds no {name} column; read it with "
                                     f"{name!r} in text_columns")

    @classmethod
    def read(cls, path, report: IngestReport | None = None,
             text_columns=TEXT_COLUMNS) -> "BundleTable":
        """Read a bundle CSV in one pass, holding the block numbers, types,
        tips and profits and, of the free-text columns, those named in
        ``text_columns`` (any of ``TEXT_COLUMNS``; the others are None in the
        table).  ``estimate`` reads none of them, ``report`` the builders and
        searchers.  Every row is checked on all seven fields whichever
        columns are held, so the report and the errors do not depend on them.

        ``csv.reader`` reads the header; the file is then taken
        ``_READ_BLOCK`` physical lines at a time, and each block is
        tokenized by one ``np.loadtxt`` call or by ``csv.reader``
        (``_block_rows`` gives the rule).  ``_parse_row`` parses each row
        that ``csv.reader`` reads; of a loaded block, column masks flag rows
        (``_block_columns``), and only a flagged row goes through it.
        Malformed rows are counted in ``report`` (not fatal); if they exceed
        0.1% of this file's rows, IngestError is raised with this file's
        samples.  ``report`` adds up the counts and samples of every read it
        is given, and each read adds at most 10 samples.  A row that
        ``csv.reader`` cannot tokenize (a field longer than
        ``csv.field_size_limit()``, as an unterminated quote makes) is an
        IngestError naming the file and the line the row starts on, and a
        file that is not UTF-8 an IngestError naming the file; a UTF-8
        byte-order mark before the header is skipped.  A header
        not matching the schema is a hard SchemaError up front.
        """
        unknown = set(text_columns) - set(TEXT_COLUMNS)
        if unknown:
            raise ParameterError(f"text_columns {sorted(unknown)} are not among "
                                 f"{TEXT_COLUMNS}")
        usecols = tuple(i for i, name in enumerate(CSV_COLUMNS)
                        if name in text_columns or name not in TEXT_COLUMNS)
        dtype = np.dtype([(_ROW_DTYPE.names[i], _ROW_DTYPE[i]) for i in usecols])
        report = report if report is not None else IngestReport()
        rows_read = 0
        samples = []
        # typed arrays hold each parsed field in 8 bytes (types in 1), with no
        # per-row Python object kept but the tx hash
        tx = [] if "tx_hash" in text_columns else None
        # label -> code, and the codes, of each label column held
        labelled = {name: ({}, array("q")) for name in ("builder", "searcher")
                    if name in text_columns}
        block, types = array("q"), array("B")
        tip, profit = array("d"), array("d")
        try:
            # utf-8-sig drops a byte-order mark, as spreadsheet exports write
            with open(path, newline="", encoding="utf-8-sig") as fh:
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
                    try:
                        (t, b, c, bu, se, tp, pr), rows, spanned = _block_rows(
                            lines, fh, field_limit, lines_read + 1, usecols, dtype, samples)
                    except csv.Error as exc:
                        raise IngestError(f"{path}: {exc}") from None
                    lines_read += spanned
                    rows_read += rows
                    if tx is not None:
                        tx += t
                    block.frombytes(b.tobytes())
                    types.frombytes(c.tobytes())
                    for name, cells in (("builder", bu), ("searcher", se)):
                        if name in labelled:
                            codes, column = labelled[name]
                            column.frombytes(_label_codes(cells, codes).tobytes())
                    tip.frombytes(tp.tobytes())
                    profit.frombytes(pr.tobytes())
        except UnicodeDecodeError as exc:
            # the decoder reads ahead of the lines parsed, so no line is named
            raise IngestError(f"{path}: not UTF-8: byte 0x{exc.object[exc.start]:02x} "
                              f"({exc.reason})") from None
        malformed = rows_read - len(block)
        report.rows_read += rows_read
        report.malformed += malformed
        report.records += len(block)
        report.samples += samples
        if malformed > MALFORMED_LIMIT * rows_read:
            raise IngestError(
                f"{path}: {malformed}/{rows_read} malformed rows "
                f"exceed the {MALFORMED_LIMIT:.1%} threshold; samples: {samples[:5]}"
            )

        def label_column(name):
            """(codes, labels) of a label column, or (None, None) if not held."""
            if name not in labelled:
                return None, None
            codes, column = labelled[name]
            return (np.frombuffer(column, dtype=np.int64).astype(np.intp, copy=False),
                    tuple(codes))

        return cls(tx, np.frombuffer(block, dtype=np.int64),
                   np.frombuffer(types, dtype=np.uint8).astype(np.intp),
                   *label_column("builder"), *label_column("searcher"),
                   np.frombuffer(tip, dtype=float), np.frombuffer(profit, dtype=float))

    def select(self, index) -> "BundleTable":
        """The rows at ``index`` (a boolean mask or integer positions), in that order."""
        index = np.asarray(index)
        if index.dtype == bool:
            index = np.flatnonzero(index)
        elif index.size == 0:  # [] converts to a float array
            index = index.astype(np.intp)
        tx, builder, searcher = self.tx_hash, self.builder, self.searcher
        return BundleTable(None if tx is None else [tx[i] for i in index.tolist()],
                           self.block[index], self.mev_type[index],
                           None if builder is None else builder[index], self.builders,
                           None if searcher is None else searcher[index], self.searchers,
                           self.tip[index], self.profit[index])

    def records(self):
        """The rows as BundleRecord objects, in table order (an iterator)."""
        self._require_text()
        builders, searchers = self.builders, self.searchers
        return (BundleRecord(tx, block, MEV_TYPES[t], builders[b], searchers[s], tip, profit)
                for tx, block, t, b, s, tip, profit in zip(
                    self.tx_hash, self.block.tolist(), self.mev_type.tolist(),
                    self.builder.tolist(), self.searcher.tolist(),
                    self.tip.tolist(), self.profit.tolist()))

    def to_csv(self) -> str:
        """The rows as lines of the input schema, byte for byte what
        ``csv.writer`` writes for them (floats to 12 significant digits); the
        label columns are gathered by code from object arrays of the labels."""
        self._require_text()

        def labels(texts, codes):
            return np.array(texts, dtype=object)[codes].tolist()

        # type labels as plain str: %s formats a MevType more slowly
        return _format_rows((self.tx_hash, self.block.tolist(),
                             labels([t.value for t in MEV_TYPES], self.mev_type),
                             labels(self.builders, self.builder),
                             labels(self.searchers, self.searcher),
                             self.tip.tolist(), self.profit.tolist()), end="\r\n")


# physical lines BundleTable.read takes at a time.  Medians of 21 in-process
# reads (2-CPU machine), 256 / 512 / 1024 lines: the clean 116,204-row
# generated file 118 / 118 / 121 ms, the benchmark input (its 290 injected
# rows send about one block in ten to csv.reader) 130 / 134 / 149 ms
_READ_BLOCK = 512
# a row's fields as np.loadtxt converts them, in CSV_COLUMNS order;
# BundleTable.read asks it for the fields of the columns it holds
_ROW_DTYPE = np.dtype([("tx", object), ("block", np.int64), ("type", object),
                       ("builder", object), ("searcher", object),
                       ("tip", np.float64), ("profit", np.float64)])
# characters that keep a block on csv.reader: a quote and NUL, which it
# reads, and \x1c-\x1f, which np.loadtxt's number parser takes for padding
# but float() and int() reject
_CSV_ONLY = '"\0\x1c\x1d\x1e\x1f'


def _block_rows(lines, fh, field_limit, first_line, usecols, dtype, samples):
    """The accepted rows of those that start on ``lines``, physical lines of
    the open bundle CSV ``fh`` (terminators kept) from file line
    ``first_line`` on; the number of rows, accepted or not; and the number
    of lines they span.

    The accepted rows are returned as the seven columns of the schema (the
    block numbers, type codes, tips and profits as arrays, the tx hashes,
    builders and searchers as sequences of str; a free-text column not in
    ``usecols`` is None).  A rejected row is sampled into ``samples`` while
    they hold fewer than 10, with the file line it starts on.

    A block with six commas a line, no quote, no NUL, none of \\x1c-\\x1f
    and no line longer than ``field_limit`` (``csv.field_size_limit()``; no
    field of a quote-free line is longer than the line) goes to one
    ``np.loadtxt`` call, which tokenizes it in C, one row per line, and
    converts the columns ``usecols`` into the fields of ``dtype``.  With
    ``usecols`` it no longer rejects a row of more than seven fields, so the
    comma count (quote-free, every comma is a separator) stands in for that
    check: a block that passes it with a long row also holds a short row,
    which lacks the profit column that ``usecols`` always takes, or a blank
    line.  The block falls back when ``loadtxt`` raises (a short row, a
    number that it does not parse, such as ``1_0`` or non-ASCII digits, and
    a block number outside int64) or returns fewer rows than the block has
    lines (it skips blank lines, which are malformed rows; a block of blank
    lines only, on which it would warn that it read no data, has no comma
    and never goes to it).  ``_block_columns`` checks the rows of a loaded
    block.  Any other block goes through ``csv.reader``, which takes the
    lines of a quoted field opened on the block's last line from ``fh``, and
    ``_parse_row`` parses each of its rows.  A ``csv.Error`` is raised again
    with the file line of the row it stopped in.
    """
    text = "".join(lines)
    # the commas are counted in the UTF-8 bytes, by numpy (a quarter of the
    # time of str.count); no byte of a multi-byte character is a comma's.  A
    # block no longer than the limit has no line longer than it
    if (not any(c in text for c in _CSV_ONLY)
            and np.count_nonzero(np.frombuffer(text.encode(), np.uint8) == ord(","))
            == (len(CSV_COLUMNS) - 1) * len(lines)
            and (len(text) <= field_limit or max(map(len, lines)) <= field_limit)):
        try:
            table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                               usecols=usecols, ndmin=1)
        except (ValueError, OverflowError):
            table = None
        if table is not None and len(table) == len(lines):
            # quote-free and no line lost: row i is line i
            columns = [None] * len(CSV_COLUMNS)
            for i, name in zip(usecols, dtype.names):
                columns[i] = table[name].tolist() if dtype[name] == object else table[name]
            return _block_columns(columns, lines, first_line, samples), len(lines), len(lines)
    reader = csv.reader(chain(lines, fh))
    parsed, rows, spanned = [], 0, 0
    try:
        for rows, row in enumerate(reader, 1):
            try:
                parsed.append(_parse_row(row))
            except ValueError as exc:
                if len(samples) < 10:
                    # the row starts on the line after the last row read
                    samples.append({"line": first_line + spanned, "error": str(exc)})
            spanned = reader.line_num
            if spanned >= len(lines):
                break
    except csv.Error as exc:
        raise csv.Error(f"line {first_line + spanned}: {exc}") from None
    tx, block, codes, builder, searcher, tip, profit = (
        column if i in usecols else None
        for i, column in enumerate(zip(*parsed) if parsed else [()] * len(CSV_COLUMNS)))
    return ((tx, np.array(block, np.int64), np.array(codes, np.uint8), builder, searcher,
             np.array(tip, float), np.array(profit, float)), rows, spanned)


def _block_columns(columns, lines, first_line, samples):
    """The accepted rows of a block that ``np.loadtxt`` loaded, row i from
    ``lines[i]``, file line ``first_line + i``: given as its columns and
    returned as ``_block_rows`` returns them (a free-text column not read
    stays None).

    Masks flag each row whose tip, profit or type label a check rejects.
    Only a flagged row goes through ``_parse_row``, the one statement of the
    malformed-row rules, on the fields of its line: it either rejects the
    row (sampled into ``samples`` while they hold fewer than 10, with its
    file line) or accepts it in place, as it does a type label in another
    case.
    """
    tx, block, kind, builder, searcher, tip, profit = columns
    flagged = ~((tip >= 0.0) & (tip < math.inf) & (profit > -math.inf) & (profit < math.inf))
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
            _, block[i], codes[i], _, _, tip[i], profit[i] = _parse_row(
                lines[i].rstrip("\r\n").split(","))
        except ValueError as exc:
            rejected.append(i)
            if len(samples) < 10:
                samples.append({"line": first_line + i, "error": str(exc)})
    if rejected:
        keep = np.ones(len(block), dtype=bool)
        keep[rejected] = False
        kept = keep.tolist()
        tx, builder, searcher = (None if c is None else list(compress(c, kept))
                                 for c in (tx, builder, searcher))
        block, codes, tip, profit = block[keep], codes[keep], tip[keep], profit[keep]
    return tx, block, codes, builder, searcher, tip, profit


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


# a float cell: 12 significant digits, inf and nan spelled out
_FLOAT_CELL = "%.12g"


def _float_cells(values) -> list:
    """The floats ``values`` as the cells ``_format_rows`` writes for them,
    for a caller that writes one number in more than one place."""
    return list(map(_FLOAT_CELL.__mod__, values))


def _format_rows(columns, end="\n") -> str:
    """The rows of ``columns``, equal-length sequences, as CSV lines ending in
    ``end``, "" for none: the one rule for the cells of every CSV file the
    package writes.  The first cell of a column fixes its kind: floats to 12
    significant digits (inf and nan spelled out), integers and booleans in
    full, text (a MevType by its label) quoted as ``csv.writer``'s default
    dialect quotes it, each distinct cell once, unless the column's join
    holds no comma, quote or line break.  Each row is one ``%``-format."""
    if not columns or not len(columns[0]):
        return ""
    formats, cells = [], []
    for column in columns:
        first = column[0]
        if isinstance(first, str):
            formats.append("%s")
            joined = "".join(column)
            # four `in` scans: a regex search of the join is some 40 times slower
            if "," in joined or '"' in joined or "\r" in joined or "\n" in joined:
                column = list(map({cell: '"' + cell.replace('"', '""') + '"'
                                   if any(c in cell for c in ',"\r\n') else cell
                                   for cell in set(column)}.__getitem__, column))
        else:
            formats.append(_FLOAT_CELL if isinstance(first, float) else "%d")
        cells.append(column)
    return "".join(map((",".join(formats) + end).__mod__, zip(*cells)))


def _types_present(codes) -> list:
    """The type codes occurring in ``codes``, in label order."""
    return np.flatnonzero(np.bincount(codes, minlength=len(MEV_TYPES))).tolist()


def _first_seen(codes) -> list:
    """The distinct values of ``codes`` in order of first occurrence."""
    values, first = np.unique(codes, return_index=True)
    return values[np.argsort(first)].tolist()


def iter_bundles(path, report: IngestReport | None = None):
    """The records of a bundle CSV: ``BundleTable.read`` reads the whole file
    first, then its rows are yielded as BundleRecord objects.

    Malformed rows are counted in ``report`` (not fatal); if they exceed
    0.1% of rows, IngestError is raised with samples before any record is
    yielded.  A header not matching the schema is a hard SchemaError.
    """
    yield from BundleTable.read(path, report).records()


def write_bundles(path, tables) -> int:
    """Write an iterable of BundleTable, one after the other, in the input
    schema; inverse of ``BundleTable.read`` on valid rows.  Returns the
    number of rows written.
    """
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for chunk in tables:
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


def bribe_schedule(table: BundleTable, mev_type: MevType) -> BribeSchedule:
    """Quantile-binned bribe shares for one MEV type.

    Bins partition the records of ``table`` by extracted value with equal
    counts (+-1, up to ties): ``FULL_BINS`` of them, or max(10, count // 20)
    with a warning for a type with fewer than ``THIN_THRESHOLD`` valid
    records.  Fewer than 10 valid records is a ThinSampleError.
    """
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


def decompose(table: BundleTable, gammas) -> DecompositionReport:
    """Foregone frontrun surplus: sum of max(0, gamma_hat * value - tip) over
    the records of ``table``.

    ``gammas`` maps MevType to a GammaEstimate (or bare float); every type
    present with a positive value must have an estimate.
    """
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

def bergemann_threshold(n_effective: int) -> float:
    """Honest-disclosure benchmark for ``n_effective`` competing searchers:
    1 - 1/n, which lies in [1/2, 1) and rises with the bidder count."""
    if n_effective < 2:
        raise DomainError("n_effective must be >= 2")
    return 1.0 - 1.0 / n_effective
