"""Exact-equality check of ``BundleTable.read`` against a row-by-row reader.

``oracle_read`` is the reference: one ``csv.reader`` pass over the whole
file, ``_parse_row`` on every data row, each malformed row sampled with the
file line it starts on, and a ``csv.Error`` raised as an ``IngestError``
naming that line too.  The block reader's fallback path is that loop, block
by block, and its ``np.loadtxt`` path parses only the rows that its masks
flag.  The block reader must give the same table (every column bit for bit,
the label tuples in the same order), the same ``IngestReport`` (counts,
samples and their lines) and, above the malformed-row threshold or past the
csv field size limit, the same error.  It must do so under each set of
free-text columns that a command holds (``COLUMN_SETS``): the columns held
match the oracle's, and the others are None.

The block reader has two tokenizers, ``np.loadtxt`` and ``csv.reader``
(``empirics._block_rows`` gives the rule that picks one).  The drawn texts
put quoted, NUL-holding and long blocks beside quote-free ones, in 512-line
blocks and in 5-line ones, with the field size limit as it is and lowered.
The boundary tests place one row kind (a spelling Python reads and
``np.loadtxt`` does not, or the reverse, a field count, a blank line), or
two rows whose field counts make up the comma count, inside an otherwise
clean block, and pin which blocks ``np.loadtxt`` loads, rejects or never
sees, the same under every column set.
"""

import csv
import re
import sys
from array import array
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mevauction import empirics
from mevauction.empirics import (
    CSV_COLUMNS,
    MALFORMED_LIMIT,
    TEXT_COLUMNS,
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


# the free-text columns a table holds: all three (the default, which the
# library's callers use), report's builders and searchers, and estimate's none
COLUMN_SETS = (TEXT_COLUMNS, ("builder", "searcher"), ())


def assert_same_read(path, limit=MALFORMED_LIMIT):
    """BundleTable.read under each of COLUMN_SETS and the oracle agree on
    ``path`` with the malformed-row threshold at ``limit``: the same report
    and error, and each column held as the oracle holds it."""
    with mock.patch.object(empirics, "MALFORMED_LIMIT", limit):
        want, want_report, want_error = outcome(oracle_read, path)
        for held in COLUMN_SETS:
            got, got_report, got_error = outcome(
                lambda path, report: BundleTable.read(path, report, held), path)
            assert got_report == want_report, held
            assert got_error == want_error, held
            if want is None:
                assert got is None
                continue
            assert got.tx_hash == (want.tx_hash if "tx_hash" in held else None)
            names = ["block", "mev_type", "tip", "profit", "value"]
            for name, labels in (("builder", "builders"), ("searcher", "searchers")):
                if name in held:
                    assert getattr(got, labels) == getattr(want, labels)
                    names.append(name)
                else:
                    assert getattr(got, name) is None and getattr(got, labels) is None
            for name in names:
                g, w = getattr(got, name), getattr(want, name)
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (name, held)
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
    # lines np.loadtxt rejects: whitespace only, empty fields, trailing commas
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
    # next block starts on line 516.  The blocks after it hold no quote, but
    # the second's blank and whitespace-only lines and the third's trailing
    # comma put each off six commas a line
    special = {508: "short", 511: "searcher_two_breaks", 512: "tip_text",
               600: "blank", 601: "spaces", 1100: "trailing_comma"}
    path = tmp_path / "edge.csv"
    path.write_text(csv_text(1200, special, "\r\n", True), encoding="utf-8", newline="")
    report = assert_same_read(path, 1.0)
    # np.loadtxt sees none of the three blocks; csv.reader reads the header
    # and all three
    assert read_routes(path) == ([], 4)
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


def test_long_lines_stay_on_loadtxt(tmp_path):
    # searcher labels padded so every line is 275 characters: a 512-line
    # block holds more characters than csv.field_size_limit(), but no line
    # is that long, so each of the three blocks goes to np.loadtxt
    rows = [good_row(i) for i in range(1100)]
    for row in rows:
        row[4] += "x" * (275 - len(csv_line(row, "\r\n")))
    lines = [csv_line(row, "\r\n") for row in [list(CSV_COLUMNS)] + rows]
    assert {len(line) for line in lines[1:]} == {275}
    assert 512 * 275 > csv.field_size_limit()
    path = tmp_path / "long_lines.csv"
    path.write_text("".join(lines), encoding="utf-8", newline="")
    assert assert_same_read(path).malformed == 0
    assert read_routes(path) == (["loaded"] * 3, 1)


def test_a_line_over_the_size_limit_goes_to_csv_reader(tmp_path):
    # a quote-free builder label one character over csv.field_size_limit()
    # on data row 701 (file line 702): its block goes to csv.reader, which
    # raises as the oracle does, after the block before it loaded
    limit = csv.field_size_limit()
    lines = [csv_line(row, "\n") for row in [list(CSV_COLUMNS)]
             + [good_row(i) for i in range(1100)]]
    row = good_row(700)
    row[3] = "b" * (limit + 1)
    lines[701] = csv_line(row, "\n")
    path = tmp_path / "long_field.csv"
    path.write_text("".join(lines), encoding="utf-8", newline="")
    for held in COLUMN_SETS:
        with routes() as (outcomes, _):
            _, _, error = outcome(lambda path, report: BundleTable.read(path, report, held),
                                  path)
        assert error == f"IngestError: {path}: line 702: field larger than field limit ({limit})"
        assert outcomes == ["loaded"]
    assert_same_read(path, 1.0)


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


# ---------------------------------------------------------------------------
# the np.loadtxt boundary: one row kind inside an otherwise clean block
# ---------------------------------------------------------------------------

@contextmanager
def routes():
    """The outcome of each np.loadtxt call the reader makes, in block order:
    "loaded" (a row per line), "short" (rows lost) or "raised"; and a mock
    that counts the csv.reader calls."""
    load, outcomes = np.loadtxt, []

    def loadtxt(lines, **kwargs):
        try:
            table = load(lines, **kwargs)
        except (ValueError, OverflowError):
            outcomes.append("raised")
            raise
        outcomes.append("loaded" if len(table) == len(lines) else "short")
        return table

    with mock.patch.object(empirics.np, "loadtxt", loadtxt), \
            mock.patch.object(empirics.csv, "reader", side_effect=csv.reader) as reader:
        yield outcomes, reader


def read_routes(path):
    """The np.loadtxt outcomes and the count of csv.reader calls (the
    header's included) of one BundleTable.read of ``path``, with the
    malformed-row threshold out of the way; the same under each of
    COLUMN_SETS."""
    seen = set()
    with mock.patch.object(empirics, "MALFORMED_LIMIT", 1.0):
        for held in COLUMN_SETS:
            with routes() as (outcomes, reader):
                BundleTable.read(path, text_columns=held)
            seen.add((tuple(outcomes), reader.call_count))
    assert len(seen) == 1, seen
    outcomes, calls = seen.pop()
    return list(outcomes), calls


# a 600-row file is a clean 512-line block (file lines 2-513) and an 88-line
# one; the row kind goes on data row 301 (0-based 300), file line 302
SPOT, SPOT_LINE = 300, 302


def spot_text(*spot_lines):
    """A header and 600 good rows ended by CRLF, data rows SPOT, SPOT + 1,
    ... replaced by the raw ``spot_lines`` (their endings included)."""
    lines = [csv_line(row, "\r\n") for row in [list(CSV_COLUMNS)]
             + [good_row(i) for i in range(600)]]
    lines[SPOT + 1:SPOT + 1 + len(spot_lines)] = spot_lines
    return "".join(lines)


def spot_field(col, text):
    """Row SPOT with field ``col`` written as ``text``, unquoted, CRLF-ended."""
    row = good_row(SPOT)
    row[col] = text
    return ",".join(row) + "\r\n"


def read_spot(path, text):
    """Write ``text``, read it as the oracle does and check the two agree;
    the report, the np.loadtxt outcomes and the count of csv.reader calls."""
    path.write_bytes(text.encode("utf-8"))
    report = assert_same_read(path, 1.0)
    return (report, *read_routes(path))


BLOCK, TIP, PROFIT = 1, 5, 6
# each kind is the spot row's line, whether _parse_row rejects it, and what
# np.loadtxt makes of its block: "loaded" (the masks flag what they must) or
# "raised", after which csv.reader reads the block, or "csv" (np.loadtxt
# never sees it)
BOUNDARY = {
    # Python's number spellings that np.loadtxt rejects: valid rows
    "tip_digit_group": (spot_field(TIP, "1_0"), False, "raised"),
    "tip_fraction_groups": (spot_field(TIP, "5.860_209_701_41"), False, "raised"),
    "block_digit_group": (spot_field(BLOCK, "1_000"), False, "raised"),
    "block_full_width": (spot_field(BLOCK, "１２"), False, "raised"),
    "tip_full_width": (spot_field(TIP, "１.５"), False, "raised"),
    "block_arabic_indic": (spot_field(BLOCK, "٣٤"), False, "raised"),
    "profit_arabic_indic": (spot_field(PROFIT, "-٣.٥"), False, "raised"),
    # block numbers that are no int64: malformed, whoever rejects them
    "block_point_zero": (spot_field(BLOCK, "5.0"), True, "raised"),
    "block_exponent": (spot_field(BLOCK, "1e3"), True, "raised"),
    "block_2_to_63": (spot_field(BLOCK, "9223372036854775808"), True, "raised"),
    "block_below_int64": (spot_field(BLOCK, "-9223372036854775809"), True, "raised"),
    # what np.loadtxt converts and the masks flag or pass
    "tip_1e400": (spot_field(TIP, "1e400"), True, "loaded"),
    "profit_minus_1e400": (spot_field(PROFIT, "-1e400"), True, "loaded"),
    "tip_minus_zero": (spot_field(TIP, "-0"), False, "loaded"),
    "block_minus_zero": (spot_field(BLOCK, "-0"), False, "loaded"),
    "tip_nan": (spot_field(TIP, "nan"), True, "loaded"),
    "profit_infinity": (spot_field(PROFIT, "Infinity"), True, "loaded"),
    "tip_negative": (spot_field(TIP, "-0.5"), True, "loaded"),
    "type_unknown": (spot_field(2, "flashloan"), True, "loaded"),
    "type_upper": (spot_field(2, "NAKED_ARB"), False, "loaded"),
    "block_max": (spot_field(BLOCK, str((1 << 63) - 1)), False, "loaded"),
    "block_min": (spot_field(BLOCK, str(-(1 << 63))), False, "loaded"),
    # field counts, which put the block off six commas a line (np.loadtxt
    # reading only some columns would take a row of eight fields)
    "six_fields": (",".join(good_row(SPOT)[:6]) + "\r\n", True, "csv"),
    "eight_fields": (",".join(good_row(SPOT) + ["extra"]) + "\r\n", True, "csv"),
    "trailing_comma": (",".join(good_row(SPOT)) + ",\r\n", True, "csv"),
    # text fields keep their spaces and a '#'; numbers take ASCII spaces
    "space_padded": (",".join(f" {f} " for f in good_row(SPOT)) + "\r\n", False, "loaded"),
    "hash_in_labels": (",".join(["0x#1", "7", "sandwich", "b#", "#s", "1.5", "2"]) + "\r\n",
                       False, "loaded"),
    "hash_first": (",".join(["#0x1", "7", "backrun", "b1", "s1", "1.5", "2"]) + "\r\n",
                   False, "loaded"),
    # lines without a comma: malformed rows
    "blank_crlf": ("\r\n", True, "csv"),
    "blank_lf": ("\n", True, "csv"),
    "whitespace_only": (" \t\r\n", True, "csv"),
    # a NUL and a quote keep the block on csv.reader
    "tip_nul": (spot_field(TIP, "1.5\0"), True, "csv"),
    "quoted_builder": (spot_field(3, '"b,1"'), False, "csv"),
}
# \x1c-\x1f pad a number for np.loadtxt, but float() and int() reject them
PADDING = {f"{name}_{ord(c):x}_{side}": (spot_field(col, c + v if side == "lead" else v + c),
                                         True, "csv")
           for c in "\x1c\x1d\x1e\x1f"
           for name, col, v in (("block", BLOCK, "7"), ("tip", TIP, "1.5"),
                                ("profit", PROFIT, "2.5"))
           for side in ("lead", "trail")}


@pytest.mark.parametrize("kind", sorted(BOUNDARY) + sorted(PADDING))
def test_row_kind_at_the_loadtxt_boundary(tmp_path, kind):
    line, malformed, route = {**BOUNDARY, **PADDING}[kind]
    report, outcomes, csv_calls = read_spot(tmp_path / "spot.csv", spot_text(line))
    assert report.rows_read == 600 and report.malformed == malformed
    if malformed:
        assert [s["line"] for s in report.samples] == [SPOT_LINE]
    # the second, clean block always loads; csv.reader reads the header and
    # the first block unless np.loadtxt loaded it
    assert outcomes == ([] if route == "csv" else [route]) + ["loaded"]
    assert csv_calls == 1 + (route != "loaded")


def fields(count):
    """Row SPOT cut or padded to ``count`` fields, CRLF-ended."""
    row = good_row(SPOT)
    return ",".join(row[:count] + ["extra"] * (count - len(row))) + "\r\n"


# two adjacent rows whose commas add up to six a line; each is malformed
PAIRS = {
    # np.loadtxt takes the profit of every row, so it raises on the short one
    "six_and_eight": ((fields(6), fields(8)), "raised"),
    "eight_and_six": ((fields(8), fields(6)), "raised"),
    "five_and_nine": ((fields(5), fields(9)), "raised"),
    # it skips the blank line and loads the long row: a row lost
    "blank_and_thirteen": (("\r\n", fields(13)), "short"),
}


@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_field_counts_that_make_up_the_comma_count(tmp_path, kind):
    lines, route = PAIRS[kind]
    report, outcomes, csv_calls = read_spot(tmp_path / "pair.csv", spot_text(*lines))
    assert report.rows_read == 600 and report.malformed == 2
    assert [s["line"] for s in report.samples] == [SPOT_LINE, SPOT_LINE + 1]
    assert outcomes == [route, "loaded"] and csv_calls == 2


def test_every_space_pads_numbers_as_python_does(tmp_path):
    # every str.isspace() code point before and after a block number, a tip
    # and a profit, in a clean block: as the oracle reads it, line numbers
    # and messages included ("\n" and "\r" end the line there, as they do
    # for csv.reader)
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert len(spaces) == 29
    for c in spaces:
        for col, value in ((BLOCK, "7"), (TIP, "1.5"), (PROFIT, "2.5")):
            for padded in (c + value, value + c, c + value + c):
                read_spot(tmp_path / "spot.csv", spot_text(spot_field(col, padded)))


def test_cr_line_ends_stay_on_loadtxt(tmp_path):
    # lines ended by a bare CR, with a negative tip and an unknown type that
    # the masks flag (data rows 11 and 601, file lines 12 and 602)
    special = {10: "tip_negative", 600: "type_unknown"}
    for final in (True, False):
        path = tmp_path / "cr.csv"
        path.write_text(csv_text(1100, special, "\r", final), encoding="utf-8", newline="")
        report = assert_same_read(path, 1.0)
        assert read_routes(path) == (["loaded"] * 3, 1)
        assert [s["line"] for s in report.samples] == [12, 602]


@pytest.mark.filterwarnings("error")
def test_blank_lines_mid_block_and_a_blank_block(tmp_path):
    # a blank line inside a block, which np.loadtxt would skip, and a whole
    # 512-line block of blank lines, which it would warn about: each blank
    # line is a malformed row, and no warning is raised, under every column set
    lines = [csv_line(row, "\n") for row in [list(CSV_COLUMNS)]
             + [good_row(i) for i in range(1100)]]
    lines[200:200] = ["\n"]
    lines[513:513] = ["\n"] * 512
    path = tmp_path / "blank.csv"
    path.write_text("".join(lines), encoding="utf-8", newline="")
    report = assert_same_read(path, 1.0)
    # block 1 is a comma short, and block 2, all blank, holds none: both go
    # to csv.reader unseen by np.loadtxt; blocks 3 and 4 load
    assert read_routes(path) == (["loaded", "loaded"], 3)
    assert report.rows_read == 1100 + 513 and report.malformed == 513
    assert [s["line"] for s in report.samples] == [201] + list(range(514, 523))


def float_texts():
    """Doubles below 1e307 in size (a tip and a profit add up without
    overflow), as %.12g and as repr."""
    return st.floats(min_value=-1e307, max_value=1e307).flatmap(
        lambda x: st.sampled_from(["%.12g" % x, repr(x)]))


@given(st.lists(float_texts(), min_size=1, max_size=400))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_loadtxt_floats_bit_for_bit(tmp_path_factory, texts):
    # the tips (made nonnegative) and profits np.loadtxt converts carry the
    # bits float() gives each text
    tips = [t.lstrip("-") for t in texts]
    path = tmp_path_factory.getbasetemp() / "floats.csv"
    rows = [list(CSV_COLUMNS)] + [good_row(i)[:5] + [tip, profit]
                                  for i, (tip, profit) in enumerate(zip(tips, texts[::-1]))]
    path.write_text("".join(csv_line(row, "\n") for row in rows), encoding="utf-8")
    with routes() as (outcomes, _):
        table = BundleTable.read(path)
    assert outcomes == ["loaded"]
    assert table.tip.tobytes() == np.array([float(t) for t in tips]).tobytes()
    assert table.profit.tobytes() == np.array([float(t) for t in texts[::-1]]).tobytes()


def test_loadtxt_floats_bit_for_bit_over_the_exponents():
    # 20000 doubles of uniformly drawn bits (every exponent, subnormals
    # included), as %.12g and repr, through np.loadtxt as the reader calls it
    bits = np.random.default_rng(30).integers(0, 1 << 63, size=20_000, dtype=np.uint64)
    doubles = bits.view(np.float64)
    doubles = doubles[np.isfinite(doubles)].tolist()
    for texts in (["%.12g" % x for x in doubles], [repr(x) for x in doubles]):
        lines = [f"0x0,1,sandwich,b,s,{t},{t}\n" for t in texts]
        table = np.loadtxt(lines, dtype=empirics._ROW_DTYPE, delimiter=",", comments=None,
                           ndmin=1)
        want = np.array([float(t) for t in texts]).tobytes()
        assert np.ascontiguousarray(table["tip"]).tobytes() == want
