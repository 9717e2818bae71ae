import codecs
import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mevauction.empirics import (
    CSV_COLUMNS,
    MEV_TYPES,
    TEXT_COLUMNS,
    BundleRecord,
    BundleTable,
    IngestReport,
    bergemann_threshold,
    bribe_schedule,
    decompose,
    estimate_gamma,
    iter_bundles,
    write_bundles,
)
from mevauction.errors import (
    ConfigurationError,
    DomainError,
    IngestError,
    ParameterError,
    SchemaError,
    ThinSampleError,
)
from mevauction.profiles import MevType

from conftest import not_utf8_bundles, table_from_records


def record(tip, profit, mev_type=MevType.NAKED_ARB, block=1, builder="b0",
           searcher="s0", tx="0x0"):
    return BundleRecord(tx_hash=tx, block_number=block, mev_type=mev_type,
                        builder=builder, searcher=searcher, tip=tip, profit=profit)


def read_records(path):
    """The records of the bundle CSV at ``path`` and its IngestReport."""
    report = IngestReport()
    return list(BundleTable.read(path, report).records()), report


def synthetic_records(n, rng, mev_type=MevType.NAKED_ARB, share=None):
    values = np.exp(rng.normal(1.0, 1.5, size=n))
    shares = np.full(n, share) if share is not None else rng.uniform(0.3, 0.9, size=n)
    return [
        record(tip=s * v, profit=(1 - s) * v, mev_type=mev_type, block=i, tx=f"0x{i:x}")
        for i, (v, s) in enumerate(zip(values, shares))
    ]


def synthetic_table(n, rng):
    return table_from_records(synthetic_records(n, rng))


class TestRecord:
    def test_extracted_value_and_share(self):
        rec = record(tip=3.0, profit=0.15)
        assert rec.extracted_value == pytest.approx(3.15)
        assert rec.bribe_share == pytest.approx(3.0 / 3.15)

    def test_share_undefined_for_nonpositive_value(self):
        assert record(tip=1.0, profit=-2.0).bribe_share is None


class TestIngest:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(5)
        records = synthetic_records(50, rng)
        path = tmp_path / "bundles.csv"
        write_bundles(path, [table_from_records(records)])
        back, report = read_records(path)
        assert report.malformed == 0
        assert [r.tx_hash for r in back] == [r.tx_hash for r in records]
        np.testing.assert_allclose([r.tip for r in back], [r.tip for r in records],
                                   rtol=1e-11)
        # write -> read -> write is byte stable
        path2 = tmp_path / "again.csv"
        write_bundles(path2, [table_from_records(back)])
        assert path.read_text() == path2.read_text()

    def test_empty_file_is_empty_stream(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n")
        records, report = read_records(path)
        assert records == []
        assert report.rows_read == 0

    def test_header_mismatch_is_hard_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("tx_hash,block,type\n")
        with pytest.raises(SchemaError) as err:
            list(iter_bundles(path))
        assert "missing" in str(err.value)

    def test_malformed_rows_counted_not_fatal(self, tmp_path):
        path = tmp_path / "m.csv"
        rows = [",".join(CSV_COLUMNS)]
        rows += [f"0x{i:x},{i},naked_arb,b,s,1.0,0.5" for i in range(2000)]
        rows[500] = "0xbad,notanint,naked_arb,b,s,1.0,0.5"
        path.write_text("\n".join(rows) + "\n")
        records, report = read_records(path)
        assert report.malformed == 1
        assert len(records) == 1999

    def test_threshold_breach_aborts_with_samples(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [",".join(CSV_COLUMNS)]
        rows += [f"0x{i:x},{i},naked_arb,b,s,1.0,0.5" for i in range(100)]
        rows += ["junk,row"] * 5
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(IngestError) as err:
            list(iter_bundles(path))
        assert "samples" in str(err.value)

    def test_threshold_judged_on_each_read(self, tmp_path):
        # a report that already holds another read neither dilutes this
        # file's malformed share nor lends the error its samples
        good = [f"0x{i:x},{i},naked_arb,b,s,1.0,0.5" for i in range(1954)]
        first = tmp_path / "first.csv"
        first.write_text(",".join(CSV_COLUMNS) + "\n" + "\n".join(
            good[:1000] + ["0xshort,1,naked_arb,b,s,1.0"] + good[1000:]) + "\n")
        rows = good[:100]
        rows.insert(50, "0xbad,notanint,naked_arb,b,s,1.0,0.5")
        path = tmp_path / "small.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(IngestError, match="1/101 malformed rows"):
            BundleTable.read(path)
        report = IngestReport()
        assert len(BundleTable.read(first, report)) == 1954
        with pytest.raises(IngestError, match="1/101 malformed rows") as err:
            BundleTable.read(path, report)
        assert "notanint" in str(err.value) and "expected 7 fields" not in str(err.value)
        # the report still adds up both reads
        assert (report.rows_read, report.records, report.malformed) == (2056, 2054, 2)
        assert [s["line"] for s in report.samples] == [1002, 52]

    def test_unknown_type_is_malformed(self, tmp_path):
        path = tmp_path / "u.csv"
        good = "\n".join(f"0x{i:x},{i},backrun,b,s,2.0,1.0" for i in range(999))
        path.write_text(",".join(CSV_COLUMNS) + "\n" + good
                        + "\n0xz,5,cex_dex,b,s,1.0,0.5\n")
        records, report = read_records(path)
        assert report.malformed == 1
        assert len(records) == 999

    def test_malformed_rows_keep_messages_and_lines(self, tmp_path):
        good = [f"0x{i:x},{i},naked_arb,b,s,1.0,0.5" for i in range(6000)]
        bad = [  # the injected kinds of the benchmark, then a non-integer block
            ("0xa,1,naked_arb,b,s,1.0", "expected 7 fields, got 6"),
            ("0xb,1,naked_arb,b,s,not-a-number,0.5",
             "could not convert string to float: 'not-a-number'"),
            ("0xc,1,naked_arb,b,s,-1.5,0.5",
             "tip must be nonnegative and finite, profit finite"),
            ("0xd,1,unknown_type,b,s,1.0,0.5",
             "unknown MEV type 'unknown_type'; expected one of "
             "['sandwich', 'naked_arb', 'liquidation', 'backrun']"),
            ("0xe,1,naked_arb,b,s,1.0,nan",
             "tip must be nonnegative and finite, profit finite"),
            ("0xf,notanint,naked_arb,b,s,1.0,0.5",
             "invalid literal for int() with base 10: 'notanint'"),
        ]
        rows = list(good)
        for k, (row, _) in enumerate(bad):
            rows.insert(100 * (k + 1), row)
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n")
        records, report = read_records(path)
        assert (report.rows_read, report.records, report.malformed) == (6006, 6000, 6)
        # data row i sits on line i + 2 (line 1 is the header)
        assert report.samples == [{"line": 100 * (k + 1) + 2, "error": msg}
                                  for k, (_, msg) in enumerate(bad)]
        assert [r.tx_hash for r in records] == [f"0x{i:x}" for i in range(6000)]

    def test_malformed_rows_keep_their_file_lines_after_quoted_line_breaks(self, tmp_path):
        # a quoted line break in a label spans two file lines; a malformed row
        # is reported by the line it starts on, even when it spans two itself
        rows = [
            '0xg0,1,naked_arb,"a\nb",s,1.0,0.5',
            "0xb1,2,naked_arb,b,s,oops,0.5",
            '0xb2,3,naked_arb,"c\r\nd",s,-1.0,0.5',
            "0xb3,4,naked_arb,b,s,1.0",
            '0xg1,5,naked_arb,b,"e\rf",1.0,0.5',
            "0xb4,6,naked_arb,b,s,1.0,nan",
        ] + [f"0xg{i},{i},naked_arb,b,s,1.0,0.5" for i in range(2, 4000)]
        text = ",".join(CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n"
        path = tmp_path / "breaks.csv"
        path.write_bytes(text.encode())
        records, report = read_records(path)
        assert (report.rows_read, report.records, report.malformed) == (4004, 4000, 4)
        assert records[0].builder == "a\nb" and records[1].searcher == "e\rf"
        # the line numbers an editor shows: the file split at \r\n, \r and \n
        starts = {line.split(",")[0]: number for number, line
                  in enumerate(text.splitlines(), start=1)}
        assert [s["line"] for s in report.samples] \
            == [starts[tx] for tx in ("0xb1", "0xb2", "0xb3", "0xb4")] == [4, 5, 7, 10]

    def test_type_labels_are_normalised(self, tmp_path):
        labels = [" Naked_Arb ", "NAKED_ARB", "naked_arb", "Naked_arb"]
        path = tmp_path / "labels.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + "".join(
            f"0x{i:x},{i},{labels[i % 4]},b,s,1.0,{i + 1}\n" for i in range(40)))
        table = BundleTable.read(path)
        assert set(table.mev_type.tolist()) == {MEV_TYPES.index(MevType.NAKED_ARB)}
        records, _ = read_records(path)
        assert all(r.mev_type is MevType.NAKED_ARB for r in records)
        schedule = bribe_schedule(table, MevType.NAKED_ARB)
        assert sum(b.count for b in schedule.bins) == 40

    def test_labels_with_commas_and_quotes_round_trip(self, tmp_path):
        records = [record(tip=1.5, profit=0.25, block=i, tx=f'0x"{i}",',
                          builder=['a,b', 'say "hi"', "plain"][i % 3],
                          searcher=['x\ny', '"', ",,"][i % 3])
                   for i in range(9)]
        path = tmp_path / "quoted.csv"
        write_bundles(path, [table_from_records(records)])
        back, report = read_records(path)
        assert report.malformed == 0
        assert back == records

    def test_write_takes_an_iterable_of_tables(self, tmp_path):
        records = [record(tip=0.5 * i, profit=1.0, block=i, tx=f"0x{i:x}",
                          builder=f"b{i % 2}", searcher=f"s{i % 3}") for i in range(7)]
        table = table_from_records(records)
        chunks = [table.select(range(3)), table.select(range(3, 7))]
        given_forms = {"one-table": [table], "chunks": chunks, "chunk-iterator": iter(chunks)}
        for name, tables in given_forms.items():
            path = tmp_path / f"{name}.csv"
            assert write_bundles(path, tables) == 7
            assert read_records(path)[0] == records, name
        header = ",".join(CSV_COLUMNS) + "\n"
        for name, tables in {"no-chunks": [], "empty-table": [table_from_records([])]}.items():
            assert write_bundles(tmp_path / f"{name}.csv", tables) == 0
            assert (tmp_path / f"{name}.csv").read_text() == header

    @pytest.mark.parametrize("held", [(), ("builder", "searcher"), ("tx_hash",)])
    def test_table_read_without_free_text_columns(self, tmp_path, held):
        # a column not read is None, in the table and in a selection of it;
        # the record view and the CSV text need all three, and name the first
        # one missing
        records = [record(tip=0.5 * i, profit=1.0, block=i, tx=f"0x{i:x}",
                          builder=f"b{i % 2}", searcher=f"s{i % 3}") for i in range(7)]
        path = tmp_path / "bundles.csv"
        write_bundles(path, [table_from_records(records)])
        report = IngestReport()
        table = BundleTable.read(path, report, text_columns=held)
        full = BundleTable.read(path)
        assert len(table) == report.records == 7
        picked, want = table.select([5, 0, 3]), full.select([5, 0, 3])
        for t, w in ((table, full), (picked, want)):
            for name in ("block", "mev_type", "tip", "profit", "value"):
                assert np.array_equal(getattr(t, name), getattr(w, name)), name
            for name, labels in (("tx_hash", None), ("builder", "builders"),
                                 ("searcher", "searchers")):
                if name in held:
                    assert np.array_equal(getattr(t, name), getattr(w, name)), name
                else:
                    assert getattr(t, name) is None
                    assert labels is None or getattr(t, labels) is None
        missing = next(name for name in TEXT_COLUMNS if name not in held)
        for t in (table, picked):
            with pytest.raises(ParameterError, match=f"holds no {missing} column"):
                t.to_csv()
            with pytest.raises(ParameterError, match=f"holds no {missing} column"):
                t.records()

    @pytest.mark.parametrize("where", ["header", "data_row_1500"])
    def test_file_not_utf8_is_an_ingest_error(self, tmp_path, where):
        path = not_utf8_bundles(tmp_path / "latin1.csv", where)
        with pytest.raises(IngestError) as err:
            BundleTable.read(path)
        assert str(err.value) == f"{path}: not UTF-8: byte 0xe9 (invalid continuation byte)"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # as spreadsheet exports write it: the same records, report and line
        # numbers as without, over two blocks and a malformed row
        path = tmp_path / "bundles.csv"
        write_bundles(path, [table_from_records(synthetic_records(1200, np.random.default_rng(6)))])
        lines = path.read_bytes().split(b"\n")
        lines[900] = lines[900].replace(b",naked_arb,", b",not_a_type,")
        path.write_bytes(b"\n".join(lines))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        want, want_report = read_records(path)
        got, report = read_records(marked)
        assert want_report.malformed == 1
        assert (got, report) == (want, want_report)

    def test_read_rejects_an_unknown_text_column(self, tmp_path):
        path = tmp_path / "bundles.csv"
        write_bundles(path, [])
        with pytest.raises(ParameterError, match="mev_type"):
            BundleTable.read(path, text_columns=("builder", "mev_type"))

    @pytest.mark.parametrize("builders, searchers", [
        (("x", "y", "x"), ("s", "t")),
        (("x", "y", "z"), ("s", "s")),
    ], ids=["builder", "searcher"])
    def test_repeated_label_is_rejected(self, builders, searchers):
        # each label is one code, so a label listed twice is an error, not a merge
        with pytest.raises(ParameterError, match="lists a label twice"):
            BundleTable(["a", "b", "c"], np.array([1, 1, 2]),
                        np.zeros(3, dtype=np.intp),
                        np.array([0, 1, 2]), builders,
                        np.array([1, 0, 1]), searchers,
                        np.ones(3), np.ones(3))

    @given(st.lists(st.tuples(st.text(max_size=6), st.text(max_size=6),
                              st.text(max_size=6)), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_csv_text_matches_csv_writer(self, labels):
        records = [record(tip=0.1 * i, profit=1e-7 * i - 3, block=i - 4, tx=tx,
                          builder=b, searcher=s)
                   for i, (tx, b, s) in enumerate(labels)]
        buf = io.StringIO()
        csv.writer(buf).writerows(
            (r.tx_hash, str(r.block_number), r.mev_type.value, r.builder, r.searcher,
             f"{r.tip:.12g}", f"{r.profit:.12g}") for r in records)
        assert table_from_records(records).to_csv() == buf.getvalue()


class TestBribeSchedule:
    def test_constant_share(self):
        rng = np.random.default_rng(1)
        records = synthetic_records(2000, rng, share=0.8)
        schedule = bribe_schedule(table_from_records(records), MevType.NAKED_ARB)
        assert len(schedule.bins) == 50
        for b in schedule.bins:
            assert b.mean_bribe_share == pytest.approx(0.8)
            assert b.std_bribe_share == pytest.approx(0.0, abs=1e-12)

    def test_bin_balance(self):
        rng = np.random.default_rng(2)
        schedule = bribe_schedule(synthetic_table(5309, rng), MevType.NAKED_ARB)
        counts = [b.count for b in schedule.bins]
        assert sum(counts) == 5309
        assert max(counts) - min(counts) <= 1

    def test_bins_ordered_by_value(self):
        rng = np.random.default_rng(3)
        schedule = bribe_schedule(synthetic_table(1000, rng), MevType.NAKED_ARB)
        his = [b.value_hi for b in schedule.bins]
        assert all(a <= b for a, b in zip(his, his[1:]))

    # 10 records is the smallest schedule: 10 bins of one record each
    @pytest.mark.parametrize("count", [10, 19, 300, 499])
    def test_thin_type_falls_back_with_warning(self, count):
        rng = np.random.default_rng(4)
        records = synthetic_records(count, rng)
        with pytest.warns(UserWarning, match="thin"):
            schedule = bribe_schedule(table_from_records(records), MevType.NAKED_ARB)
        assert len(schedule.bins) == max(10, count // 20)
        assert sum(b.count for b in schedule.bins) == count

    def test_too_few_records_raises(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ThinSampleError, match="naked_arb"):
            bribe_schedule(synthetic_table(7, rng), MevType.NAKED_ARB)

    def test_nonpositive_values_excluded_and_counted(self):
        rng = np.random.default_rng(6)
        records = synthetic_records(600, rng)
        records += [record(tip=1.0, profit=-3.0, block=10_000 + i) for i in range(5)]
        schedule = bribe_schedule(table_from_records(records), MevType.NAKED_ARB)
        assert schedule.excluded_nonpositive == 5
        assert sum(b.count for b in schedule.bins) == 600

    @given(st.integers(60, 400), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bin_counts_always_balanced(self, n, seed):
        rng = np.random.default_rng(seed)
        records = synthetic_records(n, rng)
        with pytest.warns(UserWarning):
            schedule = bribe_schedule(table_from_records(records), MevType.NAKED_ARB)
        counts = [b.count for b in schedule.bins]
        assert sum(counts) == n
        assert max(counts) - min(counts) <= 1


class TestEstimateGamma:
    def test_plateau_is_top_fifth(self):
        rng = np.random.default_rng(7)
        schedule = bribe_schedule(synthetic_table(5000, rng), MevType.NAKED_ARB)
        est = estimate_gamma(schedule)
        assert len(est.plateau_bins) == 10
        assert est.plateau_bins == schedule.bins[-10:]

    def test_constant_plateau_recovered_exactly(self):
        rng = np.random.default_rng(8)
        records = synthetic_records(4000, rng, share=0.63)
        est = estimate_gamma(bribe_schedule(table_from_records(records), MevType.NAKED_ARB))
        assert est.gamma_hat == pytest.approx(0.63)
        assert est.dispersion == pytest.approx(0.0, abs=1e-12)

    def test_needs_ten_bins(self):
        rng = np.random.default_rng(9)
        schedule = bribe_schedule(synthetic_table(900, rng), MevType.NAKED_ARB)
        trimmed = type(schedule)(mev_type=schedule.mev_type, bins=schedule.bins[:5],
                                 excluded_nonpositive=0, shares_above_one=0)
        with pytest.raises(ThinSampleError):
            estimate_gamma(trimmed)

    def test_shares_above_one_kept_and_flagged(self):
        recs = [record(tip=2.0, profit=-0.5, block=i, tx=f"0x{i:x}") for i in range(40)]
        rng = np.random.default_rng(10)
        recs += synthetic_records(40, rng)
        with pytest.warns(UserWarning):
            schedule = bribe_schedule(table_from_records(recs), MevType.NAKED_ARB)
        assert schedule.shares_above_one == 40


class TestDecompose:
    def test_positive_part(self):
        recs = [record(tip=5.0, profit=1.0)]  # tip above gamma * value
        report = decompose(table_from_records(recs), {MevType.NAKED_ARB: 0.7})
        assert report.total_foregone == 0.0

    def test_exact_gamma_bids_leave_nothing(self):
        rng = np.random.default_rng(11)
        records = synthetic_records(500, rng, share=0.74)
        report = decompose(table_from_records(records), {MevType.NAKED_ARB: 0.74})
        assert report.total_foregone == pytest.approx(0.0, abs=1e-9)

    def test_additivity_and_positivity(self):
        rng = np.random.default_rng(12)
        records = synthetic_records(800, rng)
        records += synthetic_records(400, rng, mev_type=MevType.SANDWICH)
        gammas = {MevType.NAKED_ARB: 0.74, MevType.SANDWICH: 0.95}
        report = decompose(table_from_records(records), gammas)
        assert report.total_foregone >= 0
        assert report.total_foregone == pytest.approx(
            sum(t.foregone_surplus for t in report.per_type))
        assert all(t.foregone_surplus >= 0 for t in report.per_type)

    def test_missing_gamma_is_configuration_error(self):
        recs = [record(tip=1.0, profit=1.0, mev_type=MevType.BACKRUN)]
        with pytest.raises(ConfigurationError, match="backrun"):
            decompose(table_from_records(recs), {MevType.NAKED_ARB: 0.74})

    def test_hand_computed_example(self):
        recs = [record(tip=3.0, profit=7.0), record(tip=9.0, profit=1.0)]
        report = decompose(table_from_records(recs), {MevType.NAKED_ARB: 0.8})
        # first: 0.8*10 - 3 = 5; second: 0.8*10 - 9 < 0 -> 0
        assert report.total_foregone == pytest.approx(5.0)
        assert report.total_tips == pytest.approx(12.0)
        assert report.total_ratio == pytest.approx(5.0 / 12.0)


class TestBergemann:
    def test_default_rule_monotone(self):
        vals = [bergemann_threshold(n) for n in (2, 5, 20, 100)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_threshold_in_half_open_unit_range(self):
        # 1 - 1/n lies in [1/2, 1): exactly 1/2 for two bidders, below 1 for any n
        assert bergemann_threshold(2) == 0.5
        assert all(0.5 <= bergemann_threshold(n) < 1.0 for n in (3, 10, 10**6, 2**53))

    def test_one_minus_inverse_n_bit_for_bit(self):
        ns = range(2, 1001)
        vals = [bergemann_threshold(n) for n in ns]
        assert [v.hex() for v in vals] == [(1.0 - 1.0 / n).hex() for n in ns]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert bergemann_threshold(4) == 0.75

    def test_small_market_rejected(self):
        with pytest.raises(DomainError):
            bergemann_threshold(1)
