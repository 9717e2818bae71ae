"""Exact-equality check of ``BundleTable.read`` against a row-by-row reader.

``oracle_read`` is the loop that the block-by-column reader replaced, kept as
the reference: one ``csv.reader`` pass, ``_parse_row`` on every data row, and
each malformed row sampled with the file line it starts on, and a
``csv.Error`` raised as an ``IngestError`` naming that line too.  The block
reader must give the same table (every column bit for bit, the label tuples
in the same order), the same ``IngestReport`` (counts, samples and their
lines) and, above the malformed-row threshold or past the csv field size
limit, the same error.

The block reader has two tokenizers: a block of lines with no quote, no NUL
and no more characters than ``csv.field_size_limit()`` splits at commas, and
any other block goes through ``csv.reader``.  The drawn texts put quoted,
NUL-holding and long blocks beside quote-free ones, in 512-line blocks and in
5-line ones, with the field size limit as it is and lowered.
"""

import csv
import re
from array import array
from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mevauction import empirics
from mevauction.empirics import (
    CSV_COLUMNS,
    MALFORMED_LIMIT,
    BundleTable,
    IngestReport,
    _parse_row,
)
from mevauction.errors import IngestError, SchemaError

LINE_BREAK = re.compile("\r\n|\r|\n")


def oracle_read(path, report=None):
    """BundleTable.read as a loop over the rows of one csv.reader pass."""
    report = report if report is not None else IngestReport()
    samples = []
    malformed = 0
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
            raise SchemaError(f"{path}: header mismatch; missing={sorted(missing)} "
                              f"unexpected={sorted(extra)}")
        rows = 0
        for rows, row in enumerate(data_rows(path, reader), start=1):
            try:
                t, b, c, bu, se, tp, pr = _parse_row(row)
            except (ValueError, KeyError) as exc:
                malformed += 1
                if len(samples) < 10:
                    breaks = sum(len(LINE_BREAK.findall(f)) for f in row)
                    samples.append({"line": reader.line_num - breaks, "error": str(exc)})
                continue
            tx.append(t)
            block.append(b)
            types.append(c)
            builder.append(builder_codes.setdefault(bu, len(builder_codes)))
            searcher.append(searcher_codes.setdefault(se, len(searcher_codes)))
            tip.append(tp)
            profit.append(pr)
    report.rows_read += rows
    report.malformed += malformed
    report.records += len(tx)
    report.samples += samples
    limit = empirics.MALFORMED_LIMIT
    if malformed > limit * rows:
        raise IngestError(
            f"{path}: {malformed}/{rows} malformed rows "
            f"exceed the {limit:.1%} threshold; samples: {samples[:5]}"
        )
    return BundleTable(tx, np.array(block, dtype=np.int64), np.array(types, dtype=np.intp),
                       np.array(builder, dtype=np.intp), tuple(builder_codes),
                       np.array(searcher, dtype=np.intp), tuple(searcher_codes),
                       np.array(tip), np.array(profit))


def data_rows(path, reader):
    """The rows of ``reader``; a csv.Error is an IngestError naming the line
    the row starts on."""
    while True:
        line = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise IngestError(f"{path}: line {line}: {exc}") from None
        yield row


def outcome(read, path):
    """(table or None, IngestReport, error or None) of one read."""
    report = IngestReport()
    try:
        return read(path, report), report, None
    except IngestError as exc:
        return None, report, f"{type(exc).__name__}: {exc}"


@contextmanager
def field_size_limit(limit):
    """csv.field_size_limit set to ``limit`` for the block, then restored."""
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


def assert_same_read(path, limit=MALFORMED_LIMIT):
    """BundleTable.read and the oracle agree on ``path`` with the
    malformed-row threshold at ``limit``."""
    with mock.patch.object(empirics, "MALFORMED_LIMIT", limit):
        want, want_report, want_error = outcome(oracle_read, path)
        got, got_report, got_error = outcome(BundleTable.read, path)
    assert got_report == want_report
    assert got_error == want_error
    if want is None:
        assert got is None
        return want_report
    assert got.tx_hash == want.tx_hash
    assert got.builders == want.builders and got.searchers == want.searchers
    for name in ("block", "mev_type", "builder", "searcher", "tip", "profit", "value"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
    return want_report


# ---------------------------------------------------------------------------
# drawn CSV texts
# ---------------------------------------------------------------------------

TYPES = ("naked_arb", "sandwich", "backrun", "liquidation")


def good_row(i):
    # profits below -tip make non-positive values; tips repeat, so ties occur
    return [f"0x{i:04x}", str(i // 3), TYPES[i % 4], f"b{i % 3}", f"s{i % 5}",
            repr(0.5 * (i % 7)), repr(1.25 * (i % 11) - 2.0)]


def _with(col, text):
    return lambda row: row[:col] + [text] + row[col + 1:]


# each kind rewrites a valid row; the comments name what _parse_row does
KINDS = {
    # malformed: the field count, each number, finiteness, the block's range, the type
    "blank": lambda row: [],
    "short": lambda row: row[:6],
    "long": lambda row: row + ["extra"],
    "tip_text": _with(5, "abc"),
    "profit_text": _with(6, "1.2.3"),
    "tip_empty": _with(5, ""),
    "tip_negative": _with(5, "-0.5"),
    "tip_inf": _with(5, "inf"),
    "profit_nan": _with(6, "nan"),
    "profit_minus_inf": _with(6, "-inf"),
    "block_float": _with(1, "12.5"),
    "block_text": _with(1, "x12"),
    "block_above_int64": _with(1, str(1 << 63)),
    "block_below_int64": _with(1, str(-(1 << 63) - 1)),
    "type_unknown": _with(2, "flashloan"),
    # accepted as they are: the int64 ends, a negative zero
    "block_max": _with(1, str((1 << 63) - 1)),
    "block_min": _with(1, str(-(1 << 63))),
    "tip_minus_zero": _with(5, "-0.0"),
    # accepted once normalised: a type label in another case, padded numbers
    "type_upper": _with(2, "NAKED_ARB"),
    "type_padded": _with(2, " Sandwich "),
    "tip_padded": _with(5, " 1.5"),
    "profit_padded": _with(6, "2.5 "),
    "block_padded": _with(1, " 12 "),
    # quoted commas, quotes and line breaks
    "builder_comma": _with(3, "b,1"),
    "builder_quote": _with(3, 'say "hi"'),
    "searcher_lf": _with(4, "s\nx"),
    "searcher_crlf": _with(4, "s\r\nx"),
    "searcher_cr": _with(4, "s\rx"),
    "searcher_two_breaks": _with(4, "s\n\r\nx"),
    "tx_break_tip_text": lambda row: _with(5, "abc")(_with(0, "0x\n1")(row)),
    "break_short": lambda row: _with(4, "s\nx")(row)[:6],
    # a builder label first seen on a malformed row takes no code there
    "builder_new": _with(3, "b9"),
    "builder_new_tip_text": lambda row: _with(5, "abc")(_with(3, "b9")(row)),
    # lines that split at commas as they are: whitespace only, trailing commas
    "spaces": lambda row: [" \t"],
    "empty_fields": lambda row: [""] * 7,
    "trailing_comma": lambda row: row + [""],
    "profit_trailing_comma": _with(6, ""),
    # NUL characters, which keep a block on csv.reader (3.10's rejects them)
    "builder_nul": _with(3, "b\0x"),
    "tip_nul": _with(5, "1.5\0"),
    # longer than the lowered field size limits below
    "builder_long": _with(3, "b" * 40),
}
ENDINGS = ("\r\n", "\n", "\r")


def csv_line(row, ending):
    """``row`` as csv.writer quotes it, ended by ``ending``."""
    return ",".join('"' + f.replace('"', '""') + '"' if re.search('[,"\r\n]', f) else f
                    for f in row) + ending


def csv_text(size, special, endings, final):
    """A header and ``size`` data rows, row i rewritten by KINDS[special[i]];
    lines end in ``endings`` (one of ENDINGS, or "mixed" for each in turn),
    the last one only if ``final``."""
    lines = []
    for i, row in enumerate([list(CSV_COLUMNS)] + [good_row(i) for i in range(size)]):
        if i - 1 in special:
            row = KINDS[special[i - 1]](row)
        lines.append(csv_line(row, ENDINGS[i % 3] if endings == "mixed" else endings))
    text = "".join(lines)
    return text if final else text[:-len(lines[-1]) + len(lines[-1].rstrip("\r\n"))]


# data-row counts and rewritten rows near the ends of 512-row blocks
EDGES = (0, 1, 2, 510, 511, 512, 513, 514, 1022, 1023, 1024, 1025, 1026)


@st.composite
def bundle_texts(draw):
    size = draw(st.sampled_from(EDGES) | st.integers(0, 1100))
    spots = st.sampled_from(EDGES) | st.integers(0, 1100)
    special = draw(st.dictionaries(spots, st.sampled_from(sorted(KINDS)), max_size=16))
    endings = draw(st.sampled_from(ENDINGS + ("mixed",)))
    return csv_text(size, special, endings, draw(st.booleans()))


# below the longest drawn field (40 characters), and below and above the
# length of a 5-line block (about 200 characters)
FIELD_LIMITS = (30, 120, 400)


@given(bundle_texts(), st.sampled_from(FIELD_LIMITS))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_block_reader_matches_oracle(tmp_path_factory, text, field_limit):
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    path.write_bytes(text.encode("utf-8"))
    # with the threshold as it is (most drawn texts raise) and out of the way
    for limit in (MALFORMED_LIMIT, 1.0):
        assert_same_read(path, limit)
    # and in blocks of 5 lines, so a file has many block edges and a quoted
    # block sits beside quote-free ones, with the field size limit as it is
    # and lowered
    with mock.patch.object(empirics, "_READ_BLOCK", 5):
        assert_same_read(path, 1.0)
        with field_size_limit(field_limit):
            assert_same_read(path, 1.0)


def test_quoted_field_opened_on_a_block_last_line(tmp_path):
    # data row 512 (1-based) starts on file line 513, the last of the first
    # 512-line block, and its quoted searcher label breaks onto lines 514 and
    # 515: the first block's csv.reader takes them from the file, and the
    # next block starts on line 516.  The blocks after it hold no quote, so
    # they split at commas, blank and whitespace-only lines included
    special = {508: "short", 511: "searcher_two_breaks", 512: "tip_text",
               600: "blank", 601: "spaces", 1100: "trailing_comma"}
    path = tmp_path / "edge.csv"
    path.write_text(csv_text(1200, special, "\r\n", True), encoding="utf-8", newline="")
    with mock.patch.object(empirics.csv, "reader", side_effect=csv.reader) as reader:
        report = assert_same_read(path, 1.0)
    # the oracle's reader, the header's and the first block's
    assert reader.call_count == 3
    assert [s["line"] for s in report.samples] == [510, 516, 604, 605, 1104]
    assert report.rows_read == 1200 and report.malformed == 5
    for endings in ("\n", "\r", "mixed"):
        path.write_text(csv_text(1200, special, endings, False), encoding="utf-8", newline="")
        assert assert_same_read(path, 1.0) == report


def test_a_field_over_the_size_limit_raises(tmp_path):
    # a quote-free file whose 40-character builder label is over a lowered
    # limit raises csv.reader's error as an IngestError naming the file and
    # the row's line (data row 701, file line 702), as the oracle does; the
    # limit is restored afterwards
    path = tmp_path / "long.csv"
    path.write_text(csv_text(1100, {700: "builder_long"}, "\n", True), encoding="utf-8",
                    newline="")
    before = csv.field_size_limit()
    with field_size_limit(39):
        _, _, error = outcome(BundleTable.read, path)
        assert error == f"IngestError: {path}: line 702: field larger than field limit (39)"
        assert_same_read(path, 1.0)
        # two quoted line breaks in a row before it, in the same block, move
        # the row to line 704
        spanned = tmp_path / "spanned.csv"
        spanned.write_text(csv_text(1100, {696: "searcher_two_breaks", 700: "builder_long"},
                                    "\n", True), encoding="utf-8", newline="")
        _, _, error = outcome(BundleTable.read, spanned)
        assert error == f"IngestError: {spanned}: line 704: field larger than field limit (39)"
        assert_same_read(spanned, 1.0)
    assert csv.field_size_limit() == before
    with field_size_limit(40):
        assert assert_same_read(path, 1.0).malformed == 0


def test_quoted_breaks_across_a_block_edge(tmp_path):
    # data row 511 (1-based) holds two quoted line breaks, so it spans file
    # lines 512-514, past the end of the first 512-line block (line 513); rows
    # 512 and 513 are malformed, and row 514 breaks a line and is malformed
    special = {510: "searcher_two_breaks", 511: "short", 512: "tip_text",
               513: "tx_break_tip_text", 1023: "type_unknown", 1024: "blank"}
    path = tmp_path / "edge.csv"
    path.write_text(csv_text(1100, special, "\r\n", True), encoding="utf-8", newline="")
    report = assert_same_read(path, 1.0)
    assert [s["line"] for s in report.samples] == [515, 516, 517, 1028, 1029]
    assert report.rows_read == 1100 and report.malformed == 5
    for endings in ("\n", "\r", "mixed"):
        path.write_text(csv_text(1100, special, endings, False), encoding="utf-8", newline="")
        assert assert_same_read(path, 1.0) == report
