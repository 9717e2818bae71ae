import argparse
import codecs
import csv
import json
import random
import re
from itertools import groupby

import numpy as np
import pytest

import mevauction.empirics
from mevauction.cli import build_parser, main
from mevauction.diagnostics import affiliation_pairs, effective_bidder_counts
from mevauction.empirics import CSV_COLUMNS, BundleTable
from mevauction.equilibrium import BidCurve, solve_bid_ode
from mevauction.profiles import MevType, TypeProfile
from mevauction.revenue import DEFAULT_EPSILON_GRID

from conftest import counted_pairs, not_utf8_bundles, table_from_records

SOLVE_FLAGS = ["--type", "naked_arb", "--n", "4", "--rho", "0.2",
               "--gamma", "0.74", "--mu", "1.102", "--sigma", "1.5"]
SOLVE_PROFILE = TypeProfile(MevType.NAKED_ARB, n=4, rho=0.2, gamma=0.74, mu=1.102, sigma=1.5)
# a profile whose threat never binds: every cutoff is infinite
NEVER_BINDING_FLAGS = ["--type", "liquidation", "--n", "10", "--rho", "0.4",
                       "--gamma", "0.05", "--mu", "1.102", "--sigma", "0.5"]


def run(argv, capsys=None):
    code = main(argv)
    return code


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def solve_curve_rows(out):
    """The rows of ``solve``'s curve.csv on SOLVE_FLAGS, header first."""
    assert run(["solve", *SOLVE_FLAGS, "--epsilon", "0.2", "--out-dir", str(out)]) == 0
    return read_csv(out / "curve.csv")


class TestSolve:
    def test_writes_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = run(["solve", *SOLVE_FLAGS, "--epsilon", "0.2",
                    "--out-dir", str(out)])
        assert code == 0
        for name in ("curve.csv", "strategy.json", "manifest.json", "timing.json"):
            assert (out / name).exists()
        strategy = json.loads((out / "strategy.json").read_text())
        assert strategy["cutoff"] != "inf"
        assert float(strategy["cutoff"]) > 0

    def test_no_threat_records_inf(self, tmp_path):
        out = tmp_path / "run"
        code = run(["solve", "--type", "backrun", "--n", "4", "--rho", "0.2",
                    "--gamma", "0", "--mu", "1.102", "--sigma", "1.5",
                    "--epsilon", "0.2", "--out-dir", str(out)])
        assert code == 0
        assert json.loads((out / "strategy.json").read_text())["cutoff"] == "inf"

    def test_missing_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["solve", "--n", "4", "--out-dir", str(tmp_path)])
        assert err.value.code == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[solve]\ntype = naked_arb\nn = 4\nrho = 0.2\ngamma = 0.74\n"
            "mu = 1.102\nsigma = 1.5\nepsilon = 0.2\n"
        )
        out = tmp_path / "run"
        code = run(["solve", "--config", str(cfg), "--epsilon", "0.4",
                    "--out-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert float(manifest["config"]["epsilon"]) == 0.4

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["solve", *SOLVE_FLAGS, "--epsilon", "0.2",
                        "--out-dir", str(out)]) == 0
        for name in ("curve.csv", "strategy.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_curve_csv_round_trip(self, tmp_path):
        header, *rows = solve_curve_rows(tmp_path / "run")
        assert header == ["v", "beta"]
        again = BidCurve(grid=np.array([float(v) for v, _ in rows]),
                         bids=np.array([float(b) for _, b in rows]))
        curve = solve_bid_ode(SOLVE_PROFILE)
        np.testing.assert_allclose(again.grid, curve.grid, rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(again.bids, curve.bids, rtol=1e-11, atol=0.0)

    def test_curve_csv_uses_12_significant_digits(self, tmp_path):
        _, *rows = solve_curve_rows(tmp_path / "run")
        curve = solve_bid_ode(SOLVE_PROFILE)
        assert float(rows[0][0]) == pytest.approx(curve.grid[0], rel=1e-11)
        assert float(rows[0][1]) == pytest.approx(curve.bids[0], rel=1e-11)
        digits = {len(re.sub(r"e.*|\D", "", cell).lstrip("0")) for row in rows for cell in row}
        assert max(digits) == 12


class TestSweep:
    def test_low_extractability_flat_profile(self, tmp_path):
        out = tmp_path / "sweep"
        code = run(["sweep", "--type", "liquidation", "--n", "10", "--rho", "0.4",
                    "--gamma", "0.05", "--mu", "1.102", "--sigma", "0.5",
                    "--out-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "revenue_profile.json").read_text())
        assert payload["regime"] == "low_extractability"
        revenues = payload["profile"]["revenues"]
        assert max(revenues) - min(revenues) < 1e-6 * max(revenues)
        lines = (out / "revenue_profile.csv").read_text().splitlines()
        assert lines[0] == "epsilon,revenue,derivative,cutoff"
        assert len(lines) == 22

    def test_single_point_grid_gives_single_row(self, tmp_path):
        out = tmp_path / "one"
        code = run(["sweep", "--type", "liquidation", "--n", "10", "--rho", "0.4",
                    "--gamma", "0.05", "--mu", "1.102", "--sigma", "0.5",
                    "--epsilons", "0.5", "--out-dir", str(out)])
        assert code == 0
        lines = (out / "revenue_profile.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_files_spell_out_infinite_cutoffs(self, tmp_path):
        out = tmp_path / "sweep"
        assert run(["sweep", *NEVER_BINDING_FLAGS, "--out-dir", str(out)]) == 0
        text = (out / "revenue_profile.csv").read_text()
        assert text.splitlines()[0] == "epsilon,revenue,derivative,cutoff"
        assert ",inf" in text

        def reject(constant):
            raise ValueError(f"revenue_profile.json holds the bare constant {constant}")

        payload = json.loads((out / "revenue_profile.json").read_text(), parse_constant=reject)
        assert payload["profile"]["regime"] == "low_extractability"
        assert payload["profile"]["cutoffs"][0] == "inf"

    def test_explicit_grid_reports_the_default_grid_maximizer(self, tmp_path):
        # a near-flat profile whose raw argmax is the last rate: the default
        # grid and the same 21 rates spelled out report the same epsilon_star
        flags = ["--type", "naked_arb", "--n", "5", "--rho", "0.3", "--gamma", "0.05",
                 "--mu", "1.102", "--sigma", "0.5"]
        spelled = ",".join(str(e) for e in DEFAULT_EPSILON_GRID)
        outs = tmp_path / "default", tmp_path / "explicit"
        assert run(["sweep", *flags, "--out-dir", str(outs[0])]) == 0
        assert run(["sweep", *flags, "--epsilons", spelled, "--out-dir", str(outs[1])]) == 0
        for name in ("revenue_profile.csv", "revenue_profile.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        assert json.loads((outs[1] / "revenue_profile.json").read_text())["epsilon_star"] == 0.0

    def test_malformed_grid_rejected(self, tmp_path):
        code = run(["sweep", "--type", "liquidation", "--n", "10", "--rho", "0.4",
                    "--gamma", "0.05", "--mu", "1.102", "--sigma", "0.5",
                    "--epsilons", "0.5,0.2", "--out-dir", str(tmp_path / "x")])
        assert code == 1


class TestSimulate:
    def test_report_written(self, tmp_path):
        out = tmp_path / "sim"
        code = run(["simulate", *SOLVE_FLAGS, "--epsilon", "0.2",
                    "--blocks", "5000", "--seed", "3", "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "sim_report.json").read_text())
        assert report["blocks"] == 5000
        assert abs(report["defection_rate_realized"] - 0.2) < 0.03

    def test_trace_capped(self, tmp_path):
        out = tmp_path / "sim"
        code = run(["simulate", *SOLVE_FLAGS, "--epsilon", "0.2",
                    "--blocks", "2000", "--seed", "3", "--trace",
                    "--trace-cap", "100", "--out-dir", str(out)])
        assert code == 0
        assert len((out / "trace.csv").read_text().splitlines()) == 101

    def test_threads_do_not_change_outputs(self, tmp_path):
        # three chunks, every block traced: one thread, two and the default
        # (the usable CPUs) write the same bytes
        flags = ["simulate", *SOLVE_FLAGS, "--epsilon", "0.2", "--blocks", "140000",
                 "--seed", "3", "--trace", "--trace-cap", "140000"]
        outs = {}
        for label, threads in (("one", ["--threads", "1"]), ("two", ["--threads", "2"]),
                               ("default", [])):
            outs[label] = tmp_path / label
            assert run([*flags, *threads, "--out-dir", str(outs[label])]) == 0
        for name in ("sim_report.json", "trace.csv", "manifest.json"):
            assert ((outs["one"] / name).read_bytes() == (outs["two"] / name).read_bytes()
                    == (outs["default"] / name).read_bytes())


class TestGenerateEstimateReport:
    def make_bundles(self, tmp_path, blocks=4000):
        out = tmp_path / "gen"
        code = run(["generate", "--type", "naked_arb", "--n", "4", "--rho", "0.2",
                    "--gamma", "0.74", "--mu", "1.102", "--sigma", "1.5",
                    "--epsilon", "0.3", "--blocks", str(blocks), "--seed", "17",
                    "--out-dir", str(out)])
        assert code == 0
        return out / "bundles.csv"

    def test_generate_then_estimate_recovers_gamma(self, tmp_path):
        bundles = self.make_bundles(tmp_path)
        out = tmp_path / "est"
        assert run(["estimate", "--input", str(bundles), "--out-dir", str(out)]) == 0
        est = json.loads((out / "gamma_estimates.json").read_text())
        assert abs(est["naked_arb"]["gamma_hat"] - 0.74) < 0.02
        assert (out / "fig2_naked_arb.csv").exists()

    def test_generate_manifest_records_the_planted_profile(self, tmp_path):
        manifests = []
        for gamma in ("0.5", "0.9"):
            out = tmp_path / gamma
            assert run(["generate", *SOLVE_FLAGS, "--gamma", gamma, "--epsilon", "0.3",
                        "--blocks", "200", "--seed", "17", "--out-dir", str(out)]) == 0
            manifests.append((out / "manifest.json").read_bytes())
            config = json.loads(manifests[-1])["config"]
            assert config["gamma"] == float(gamma)
            assert {k: config[k] for k in ("type", "n", "rho", "mu", "sigma", "epsilon")} \
                == {"type": "naked_arb", "n": 4, "rho": 0.2, "mu": 1.102, "sigma": 1.5,
                    "epsilon": 0.3}
        assert manifests[0] != manifests[1]

    def test_generate_manifest_records_type_sections_as_written(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[generate]\nblocks = 200\nseed = 17\n"
                       "[generate.type.naked_arb]\nn = 4\nrho = 0.2\ngamma = 0.740\n"
                       "mu = 1.102\nsigma = 1.5\nepsilon = 0.3\n"
                       "[generate.type.backrun]\n" + PROFILE_INI.replace("naked_arb", "backrun")
                       + "epsilon = 0.1\n")
        out = tmp_path / "gen"
        assert run(["generate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["types"] == [
            {"type": "naked_arb", "n": "4", "rho": "0.2", "gamma": "0.740", "mu": "1.102",
             "sigma": "1.5", "epsilon": "0.3"},
            {"type": "backrun", "n": "4", "rho": "0.2", "gamma": "0.74", "mu": "1.102",
             "sigma": "1.5", "epsilon": "0.1"}]
        assert {"blocks", "seed"} <= set(config) and "gamma" not in config

    def test_generate_deterministic(self, tmp_path):
        a = self.make_bundles(tmp_path / "a", blocks=500)
        b = self.make_bundles(tmp_path / "b", blocks=500)
        assert a.read_bytes() == b.read_bytes()

    def test_estimate_empty_input_ok(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(CSV_COLUMNS) + "\n")
        out = tmp_path / "est"
        assert run(["estimate", "--input", str(empty), "--out-dir", str(out)]) == 0
        assert json.loads((out / "gamma_estimates.json").read_text()) == {}

    def test_missing_input_is_domain_error(self, tmp_path, capsys):
        code = run(["estimate", "--input", str(tmp_path / "nope.csv"),
                    "--out-dir", str(tmp_path / "e")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err

    def test_report_emits_every_figure_file(self, tmp_path):
        bundles = self.make_bundles(tmp_path)
        out = tmp_path / "report"
        assert run(["report", "--input", str(bundles), "--out-dir", str(out)]) == 0
        expected = [
            "tab1_summary.csv", "fig2_naked_arb.csv", "fig3_decomposition.csv",
            "fig4_bergemann.csv", "figA1_pairs.csv", "figA2_lorenz.csv",
            "figA3_board.csv", "tabA1_builders.csv", "report.json",
            "manifest.json", "timing.json",
        ]
        for name in expected:
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["data_quality"]["records"] > 0
        assert "naked_arb" in report["gamma_estimates"]
        assert report["bergemann"]["rule"] == "one_minus_inverse_n"

    def test_report_manifest_records_no_disclosure_rule(self, tmp_path):
        # the rule is fixed, so report.json names it and the manifest has no
        # parameter for it
        bundles = self.make_bundles(tmp_path)
        out = tmp_path / "report"
        assert run(["report", "--input", str(bundles), "--out-dir", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert not any("bergemann" in key or "rule" in key for key in config)
        bergemann = json.loads((out / "report.json").read_text())["bergemann"]
        assert bergemann["rule"] == "one_minus_inverse_n"
        for doc in bergemann["per_type"].values():
            assert doc["threshold"] == 1.0 - 1.0 / doc["n_effective"]

    def test_report_tolerates_thin_types(self, tmp_path):
        bundles = self.make_bundles(tmp_path)
        # append a handful of liquidation rows: too thin for a schedule
        with open(bundles, "a", encoding="utf-8") as fh:
            for i in range(5):
                fh.write(f"0xthin{i},{i},liquidation,b,s,10.0,5.0\n")
        out = tmp_path / "thin"
        assert run(["report", "--input", str(bundles), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["data_quality"]["types_too_thin_to_estimate"] == ["liquidation"]
        assert "naked_arb" in report["gamma_estimates"]

    def test_report_counts_an_all_nonpositive_type_as_too_thin(self, tmp_path):
        bundles = self.make_bundles(tmp_path)
        # backrun rows whose every extracted value is non-positive: the type
        # is read and counted, but has no record for a schedule
        with open(bundles, "a", encoding="utf-8") as fh:
            for i in range(600):
                fh.write(f"0xneg{i},{i + 1},backrun,b,s,0,-1\n")
        out = tmp_path / "nonpositive"
        assert run(["report", "--input", str(bundles), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["data_quality"]["types_too_thin_to_estimate"] == ["backrun"]
        assert report["data_quality"]["nonpositive_extracted_value"] == 600
        assert sorted(report["gamma_estimates"]) == ["naked_arb"]

    def test_report_byte_identical_reruns(self, tmp_path):
        bundles = self.make_bundles(tmp_path, blocks=1500)
        a, b = tmp_path / "ra", tmp_path / "rb"
        for out in (a, b):
            assert run(["report", "--input", str(bundles), "--out-dir", str(out)]) == 0
        for name in ("tab1_summary.csv", "fig2_naked_arb.csv", "report.json",
                     "fig3_decomposition.csv", "tabA1_builders.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("command", ["estimate", "report"])
    def test_each_row_parsed_once(self, tmp_path, monkeypatch, command):
        # BundleTable.read takes each physical line of the input from the
        # file it opens once, in one pass: the header and every data line,
        # over two 512-line blocks
        bundles = self.make_bundles(tmp_path, blocks=600)
        with open(bundles, newline="", encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        taken = []

        class CountedFile:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self._fh.__exit__(*exc)

            def __iter__(self):
                return self

            def __next__(self):
                line = next(self._fh)
                taken.append(line)
                return line

        def counted_open(*args, **kwargs):
            return CountedFile(open(*args, **kwargs))

        monkeypatch.setattr(mevauction.empirics, "open", counted_open, raising=False)
        assert run([command, "--input", str(bundles),
                    "--out-dir", str(tmp_path / command)]) == 0
        assert lines > 512 and len(taken) == lines

    @pytest.mark.parametrize("command", ["estimate", "report"])
    def test_unterminated_quote_is_an_ingest_error(self, tmp_path, capsys, command):
        # a quote before the builder label of data row 5 (file line 6) runs
        # that field past csv.field_size_limit() in a file of 3000 blocks:
        # one JSON error line naming the file and the row's line, exit 1
        bundles = self.make_bundles(tmp_path, blocks=3000)
        with open(bundles, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[5][CSV_COLUMNS.index("builder")] = '"' + rows[5][CSV_COLUMNS.index("builder")]
        broken = tmp_path / "broken.csv"
        broken.write_text("".join(",".join(row) + "\r\n" for row in rows), encoding="utf-8",
                          newline="")
        capsys.readouterr()
        out = tmp_path / command
        assert run([command, "--input", str(broken), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "IngestError",
            "message": f"{broken}: line 6: field larger than field limit "
                       f"({csv.field_size_limit()})"}
        assert not out.exists()

    @pytest.mark.parametrize("where", ["header", "data_row_1500"])
    @pytest.mark.parametrize("command", ["estimate", "report"])
    def test_input_not_utf8_is_an_ingest_error(self, tmp_path, capsys, command, where):
        # one JSON error line naming the file, exit 1, no traceback
        bundles = not_utf8_bundles(tmp_path / "latin1.csv", where)
        capsys.readouterr()
        out = tmp_path / command
        assert run([command, "--input", str(bundles), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "IngestError",
            "message": f"{bundles}: not UTF-8: byte 0xe9 (invalid continuation byte)"}
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "report"])
    def test_byte_order_mark_reads_as_without(self, tmp_path, command):
        bundles = self.make_bundles(tmp_path, blocks=1000)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + bundles.read_bytes())
        written = []
        for src in (bundles, marked):
            out = tmp_path / src.stem / command
            assert run([command, "--input", str(src), "--out-dir", str(out)]) == 0
            written.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name not in ("manifest.json", "timing.json")})
        assert len(written[0]) > 1
        assert written[0] == written[1]

    def test_two_type_sections_of_one_type_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        # the first section's type is its label, the second's its type key
        cfg.write_text("[generate]\nblocks = 200\nseed = 17\n"
                       "[generate.type.sandwich]\nn = 3\nrho = 0.2\ngamma = 0.9\n"
                       "mu = 1.102\nsigma = 1.5\nepsilon = 0.3\n"
                       "[generate.type.other]\ntype = sandwich\nn = 5\nrho = 0.2\n"
                       "gamma = 0.5\nmu = 1.102\nsigma = 1.5\nepsilon = 0.3\n")
        out = tmp_path / "gen"
        capsys.readouterr()
        assert run(["generate", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ParameterError", "message": "more than one spec of MEV type sandwich"}
        assert not out.exists()

    def test_pipeline_builds_no_records(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a BundleRecord was built")

        monkeypatch.setattr(mevauction.empirics, "BundleRecord", forbidden)
        bundles = self.make_bundles(tmp_path, blocks=300)
        for command in ("estimate", "report"):
            assert run([command, "--input", str(bundles),
                        "--out-dir", str(tmp_path / command)]) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_report_json_is_strict_json_when_tips_are_zero(self, tmp_path):
        # zero tips make the decomposition ratio infinite; a constant second
        # value per block leaves the affiliation correlation undefined, which
        # must be reported as null without a numpy division warning
        path = tmp_path / "zero_tips.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + "".join(
            f"0x{i:x},{i // 2},backrun,b,s{i % 3},0,{1 if i % 2 else 2 + i}\n"
            for i in range(50)))
        out = tmp_path / "report"
        assert run(["report", "--input", str(path), "--out-dir", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"report.json holds the bare constant {constant}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert report["decomposition"]["total_tips"] == 0.0
        assert report["decomposition"]["ratio"] is None
        assert report["affiliation"]["backrun"]["pairs"] == 25
        assert report["affiliation"]["backrun"]["correlation"] is None
        assert (out / "fig3_decomposition.csv").read_text().splitlines()[-1] \
            == "all,0,0,inf,50"

    @pytest.mark.parametrize("rows", ["", "".join(
        f"0x{i:x},{i // 2},naked_arb,b,s{i % 2},1,{-1 - i}\n" for i in range(6))],
        ids=["header-only", "all-nonpositive"])
    def test_report_without_positive_values(self, tmp_path, rows):
        path = tmp_path / "in.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + rows)
        out = tmp_path / "report"
        assert run(["report", "--input", str(path), "--out-dir", str(out)]) == 0
        for name in ("tab1_summary.csv", "figA1_pairs.csv", "figA2_lorenz.csv",
                     "tabA1_builders.csv", "figA3_board.csv", "fig4_bergemann.csv",
                     "report.json"):
            assert (out / name).exists(), name
        assert (out / "figA1_pairs.csv").read_text() \
            == "mev_type,log_value_top,log_value_second\n"
        report = json.loads((out / "report.json").read_text())
        assert report["decomposition"] is None
        assert report["affiliation"] == {}
        assert len(affiliation_pairs(BundleTable.read(path))) == 0
        assert len(affiliation_pairs(table_from_records([]))) == 0

    def test_text_cells_quoted_as_csv_writer_quotes_them(self, tmp_path):
        label = 'Titan, "the" builder'
        header, *rows = read_csv(self.make_bundles(tmp_path, blocks=1500))
        col = header.index("builder")
        renamed = rows[0][col]
        for row in rows:
            row[col] = label if row[col] == renamed else row[col]
        quoted = tmp_path / "quoted.csv"
        with open(quoted, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
        for command in ("estimate", "report"):
            out = tmp_path / command
            assert run([command, "--input", str(quoted), "--out-dir", str(out)]) == 0
            for path in sorted(out.glob("*.csv")):
                table = read_csv(path)
                assert {len(row) for row in table} == {len(table[0])}, path.name
        assert label in [row[0] for row in read_csv(tmp_path / "report" / "tabA1_builders.csv")]

    def test_proxy_ignores_row_order_within_blocks(self, tmp_path):
        gen = tmp_path / "gen"
        assert run(["generate", *SOLVE_FLAGS, "--epsilon", "0.3", "--blocks", "600",
                    "--seed", "23", "--opportunities", "3", "--out-dir", str(gen)]) == 0
        header, *rows = (gen / "bundles.csv").read_text().splitlines(keepends=True)
        rng = random.Random(5)
        shuffled = []
        for _, block_rows in groupby(rows, key=lambda row: row.split(",")[1]):
            block_rows = list(block_rows)
            rng.shuffle(block_rows)
            shuffled += block_rows
        assert shuffled != rows
        inputs = [gen / "bundles.csv", tmp_path / "shuffled.csv"]
        inputs[1].write_text(header + "".join(shuffled))

        proxies, outputs = [], []
        for k, path in enumerate(inputs):
            counted = effective_bidder_counts(BundleTable.read(path), window=3)
            proxies.append({rec.tx_hash: proxy for rec, proxy in counted_pairs(counted)})
            out = tmp_path / f"report{k}"
            assert run(["report", "--input", str(path), "--window", "3",
                        "--out-dir", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("figA3_board.csv", "fig4_bergemann.csv")])
        assert proxies[0] == proxies[1]
        assert outputs[0] == outputs[1]


ZERO_FLAGS = {
    "nodes": ["solve", *SOLVE_FLAGS, "--epsilon", "0.2", "--nodes", "0"],
    "v-min": ["solve", *SOLVE_FLAGS, "--epsilon", "0.2", "--v-min", "0"],
    "opportunities": ["generate", *SOLVE_FLAGS, "--epsilon", "0.2", "--blocks", "10",
                      "--seed", "1", "--opportunities", "0"],
    "window": ["report", "--window", "0"],
    "epsilons-empty": ["sweep", *SOLVE_FLAGS, "--epsilons", ""],
    "epsilons-not-numeric": ["sweep", *SOLVE_FLAGS, "--epsilons", "0.1,abc"],
}


@pytest.mark.parametrize("flag", sorted(ZERO_FLAGS))
def test_zero_flag_is_not_treated_as_missing(tmp_path, capsys, flag):
    argv = ZERO_FLAGS[flag]
    if argv[0] == "report":
        bundles = TestGenerateEstimateReport().make_bundles(tmp_path, blocks=300)
        argv = [*argv, "--input", str(bundles)]
        capsys.readouterr()
    out = tmp_path / "out"
    assert run([*argv, "--out-dir", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] in ("ParameterError", "ConfigurationError")
    assert not out.exists()


@pytest.mark.parametrize("epsilons", ["0.1,nan", "nan", "-0.1,0.2", "0.2,1"])
def test_rate_outside_the_grid_rule_leaves_no_out_dir(tmp_path, capsys, epsilons):
    # a NaN rate fails the sweep grid's own [0, 1) rule, not a per-rate check
    out = tmp_path / "out"
    assert run(["sweep", *SOLVE_FLAGS, f"--epsilons={epsilons}", "--out-dir", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ParameterError", "message": "epsilon grid must be increasing within [0, 1)"}
    assert not out.exists()


# one row per way a run can fail a check: (argv, error); "{input}" is a
# generated bundle CSV, "{header_only}" one without rows and "{missing}" no
# file.  Every such run exits 1 and writes nothing.
FAILED_RUNS = {
    "solve-nodes": (["solve", *SOLVE_FLAGS, "--epsilon", "0.2", "--nodes", "10"],
                    "ParameterError"),
    "solve-v-range": (["solve", *SOLVE_FLAGS, "--epsilon", "0.2", "--v-min", "100",
                       "--v-max", "1"], "ParameterError"),
    "solve-epsilon": (["solve", *SOLVE_FLAGS, "--epsilon", "1.5"], "ParameterError"),
    "solve-sigma": (["solve", *SOLVE_FLAGS, "--epsilon", "0.2", "--sigma", "0"],
                    "ParameterError"),
    "sweep-nan-rate": (["sweep", *SOLVE_FLAGS, "--epsilons", "0.1,nan"], "ParameterError"),
    "simulate-epsilon": (["simulate", *SOLVE_FLAGS, "--epsilon", "1.5", "--blocks", "2000",
                          "--seed", "3"], "ParameterError"),
    "simulate-epsilon-trace": (["simulate", *SOLVE_FLAGS, "--epsilon", "1.5", "--blocks",
                                "2000", "--seed", "3", "--trace"], "ParameterError"),
    "simulate-threads": (["simulate", *SOLVE_FLAGS, "--epsilon", "0.2", "--blocks", "2000",
                          "--seed", "3", "--threads", "-2"], "ParameterError"),
    "simulate-trace-cap": (["simulate", *SOLVE_FLAGS, "--epsilon", "0.2", "--blocks", "2000",
                            "--seed", "3", "--trace", "--trace-cap", "-5"], "ParameterError"),
    "simulate-seed": (["simulate", *SOLVE_FLAGS, "--epsilon", "0.2", "--blocks", "2000",
                       "--seed", "-1"], "ParameterError"),
    "generate-blocks": (["generate", *SOLVE_FLAGS, "--epsilon", "0.2", "--blocks", "-1",
                         "--seed", "1"], "ParameterError"),
    "generate-opportunities": (["generate", *SOLVE_FLAGS, "--epsilon", "0.2", "--blocks",
                                "10", "--seed", "1", "--opportunities", "0"],
                               "ParameterError"),
    "generate-seed": (["generate", *SOLVE_FLAGS, "--epsilon", "0.2", "--blocks", "10",
                       "--seed", "-1"], "ParameterError"),
    "estimate-missing-input": (["estimate", "--input", "{missing}"], "FileNotFoundError"),
    "report-missing-input": (["report", "--input", "{missing}"], "FileNotFoundError"),
    "report-window": (["report", "--input", "{input}", "--window", "0"],
                      "ConfigurationError"),
    "report-window-header-only": (["report", "--input", "{header_only}", "--window", "0"],
                                  "ConfigurationError"),
}


@pytest.mark.parametrize("case", sorted(FAILED_RUNS))
def test_failed_run_writes_nothing(tmp_path, capsys, sample_bundles, case):
    argv, error = FAILED_RUNS[case]
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(",".join(CSV_COLUMNS) + "\n")
    paths = {"{input}": str(sample_bundles), "{header_only}": str(header_only),
             "{missing}": str(tmp_path / "nope.csv")}
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([paths.get(arg, arg) for arg in argv] + ["--out-dir", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == error
    assert not out.exists()


PROFILE_INI = "type = naked_arb\nn = 4\nrho = 0.2\ngamma = 0.74\nmu = 1.102\nsigma = 1.5\n"
BAD_CONFIGS = {
    "solve-n": ("solve", "[solve]\n" + PROFILE_INI.replace("n = 4", "n = five")
                + "epsilon = 0.2\n"),
    "solve-nodes": ("solve", "[solve]\n" + PROFILE_INI + "epsilon = 0.2\nnodes = many\n"),
    "simulate-blocks": ("simulate", "[simulate]\n" + PROFILE_INI
                        + "epsilon = 0.2\nblocks = 1e6\nseed = 1\n"),
    "generate-type-section": ("generate", "[generate]\nblocks = 10\nseed = 1\n"
                              "[generate.type.sandwich]\n"
                              + PROFILE_INI.replace("rho = 0.2", "rho = high")
                              + "epsilon = 0.2\n"),
    "report-window": ("report", "[report]\nwindow = wide\n"),
    "simulate-trace-not-boolean": ("simulate", "[simulate]\n" + PROFILE_INI
                                   + "epsilon = 0.2\nblocks = 10\nseed = 1\ntrace = often\n"),
    # a key that the section does not list
    "generate-unknown-key": ("generate", "[generate]\n" + PROFILE_INI
                             + "epsilon = 0.2\nblocks = 10\nseed = 1\nopportunities = 2\n"),
    "simulate-misspelt-key": ("simulate", "[simulate]\n" + PROFILE_INI
                              + "epsilon = 0.2\nblocks = 10\nseed = 1\nthread = 2\n"),
    # the disclosure benchmark is one rule, 1 - 1/n, and no parameter
    "report-disclosure-rule": ("report", "[report]\nbergemann_rule = one_minus_inverse_n\n"),
    "generate-type-section-unknown-key": ("generate", "[generate]\nblocks = 10\nseed = 1\n"
                                          "[generate.type.sandwich]\n" + PROFILE_INI
                                          + "epsilon = 0.2\nseed = 2\n"),
    "no-section-header": ("solve", PROFILE_INI + "epsilon = 0.2\n"),
    # type sections replace the profile keys of [generate]
    "generate-profile-key-beside-type-section": ("generate", "[generate]\nblocks = 10\n"
                                                 "seed = 1\nn = 9\n"
                                                 "[generate.type.sandwich]\n" + PROFILE_INI
                                                 + "epsilon = 0.2\n"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_malformed_config_is_usage_error(tmp_path, case):
    command, text = BAD_CONFIGS[case]
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg)]
    if command == "report":
        bundles = tmp_path / "bundles.csv"
        bundles.write_text(",".join(CSV_COLUMNS) + "\n")
        argv += ["--input", str(bundles)]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run([*argv, "--out-dir", str(out)])
    assert err.value.code == 2
    assert not out.exists()


def test_config_not_utf8_is_usage_error(tmp_path, capsys):
    # a valid INI but for one Latin-1 byte in a comment
    cfg = tmp_path / "run.ini"
    text = b"# r\xe9sum\xe9\n[solve]\n" + PROFILE_INI.encode() + b"epsilon = 0.2\n"
    cfg.write_bytes(text)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run(["solve", "--config", str(cfg), "--out-dir", str(out)])
    assert err.value.code == 2
    assert f"config file {cfg}: 'utf-8' codec can't decode" in capsys.readouterr().err
    assert not out.exists()
    cfg.write_bytes(text.replace(b"\xe9", b"e"))
    assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0


@pytest.mark.parametrize("rule", ["one_minus_inverse_n", "bogus"])
def test_disclosure_rule_flag_is_usage_error(tmp_path, sample_bundles, rule):
    # report takes no rule flag: the disclosure benchmark is one rule, 1 - 1/n
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run(["report", "--input", str(sample_bundles), "--bergemann-rule", rule,
             "--out-dir", str(out)])
    assert err.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--n", "9"], ["--type", "nonsense", "--n", "1"]],
                         ids=["n", "type-and-n"])
def test_profile_flag_beside_type_sections_is_usage_error(tmp_path, flags):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[generate]\nblocks = 10\nseed = 1\n"
                   "[generate.type.naked_arb]\n" + PROFILE_INI + "epsilon = 0.2\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run(["generate", "--config", str(cfg), *flags, "--out-dir", str(out)])
    assert err.value.code == 2
    assert not out.exists()


def test_config_values_recorded_as_written(tmp_path, sample_bundles):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[report]\ninput = {sample_bundles}\nwindow = 050\n")
    out = tmp_path / "out"
    assert run(["report", "--config", str(cfg), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["window"] == "050"
    assert json.loads((out / "report.json").read_text())["bergemann"]["proxy_window_blocks"] == 50


def parser_flags():
    """(command, flag, config key) of every parameter flag of every command."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, p in sub.choices.items():
        for action in p._actions:
            if action.dest not in ("help", "config", "out_dir"):
                yield command, action.option_strings[0], action.dest


# a valid value of every key, as written in a config file (None: a boolean flag)
SAMPLE = {"type": "naked_arb", "n": "4", "rho": "0.2", "gamma": "0.74", "mu": "1.102",
          "sigma": "1.5", "epsilon": "0.2", "v_min": "0.05", "v_max": "900",
          "nodes": "300", "epsilons": "0.1,0.3", "blocks": "500", "seed": "3",
          "threads": "2", "antithetic": None, "trace": None, "trace_cap": "50",
          "opportunities_per_block": "2", "window": "7", "input": "bundles.csv"}
FLAGS = sorted(parser_flags())


@pytest.fixture(scope="module")
def sample_bundles(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundles")
    assert run(["generate", *SOLVE_FLAGS, "--epsilon", "0.3", "--blocks", "1000",
                "--seed", "5", "--out-dir", str(out)]) == 0
    return out / "bundles.csv"


@pytest.mark.parametrize("command,flag,key", FLAGS, ids=[f"{c}{f}" for c, f, _ in FLAGS])
def test_every_flag_is_a_config_key(tmp_path, sample_bundles, command, flag, key):
    # the same run twice, all of its parameters given as flags, except that
    # the second run sets ``key`` in its config file instead
    values = dict(SAMPLE, input=str(sample_bundles))
    flags = {f: k for c, f, k in FLAGS if c == command}
    argv = {f: [f] if values[k] is None else [f, values[k]] for f, k in flags.items()}
    written = "true" if values[key] is None else values[key]
    config = tmp_path / "run.ini"
    config.write_text(f"[{command}]\n{key} = {written}\n")
    outs = tmp_path / "flag", tmp_path / "config"
    assert run([command, *sum(argv.values(), []), "--out-dir", str(outs[0])]) == 0
    assert run([command, "--config", str(config),
                *sum((a for f, a in argv.items() if f != flag), []),
                "--out-dir", str(outs[1])]) == 0

    names = sorted(p.name for p in outs[0].iterdir() if p.name != "timing.json")
    assert sorted(p.name for p in outs[1].iterdir() if p.name != "timing.json") == names
    for name in names:
        if name != "manifest.json":
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    by_flag, by_config = (json.loads((out / "manifest.json").read_text()) for out in outs)
    if by_config["config"].get(key) != by_flag["config"].get(key):
        # a config value is recorded as written, a flag as its parsed value
        assert by_config["config"][key] == written
        assert str(by_flag["config"][key]) == written
        by_config["config"][key] = by_flag["config"][key]
    assert by_config == by_flag


@pytest.mark.parametrize("command", ["estimate", "report"])
def test_empty_flag_does_not_fall_back_to_config(tmp_path, capsys, sample_bundles, command):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{command}]\ninput = {sample_bundles}\n")
    assert run([command, "--config", str(cfg), "--input", "",
                "--out-dir", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"
