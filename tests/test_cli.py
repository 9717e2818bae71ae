import json
import random
from itertools import groupby

import pytest

import mevauction.empirics
from mevauction.cli import main
from mevauction.diagnostics import affiliation_pairs, effective_bidder_counts
from mevauction.empirics import CSV_COLUMNS, BundleTable

SOLVE_FLAGS = ["--type", "naked_arb", "--n", "4", "--rho", "0.2",
               "--gamma", "0.74", "--mu", "1.102", "--sigma", "1.5"]


def run(argv, capsys=None):
    code = main(argv)
    return code


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

    @pytest.mark.parametrize("flags", [["--threads", "-2"],
                                       ["--trace", "--trace-cap", "-5"]],
                             ids=["threads", "trace-cap"])
    def test_bad_flag_rejected_before_out_dir(self, tmp_path, capsys, flags):
        out = tmp_path / "sim"
        code = run(["simulate", *SOLVE_FLAGS, "--epsilon", "0.2",
                    "--blocks", "2000", "--seed", "3", *flags, "--out-dir", str(out)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert not out.exists()


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
        bundles = self.make_bundles(tmp_path, blocks=300)
        rows = len(bundles.read_text().splitlines()) - 1
        parse_row = mevauction.empirics._parse_row
        calls = []

        def counted(row):
            calls.append(row)
            return parse_row(row)

        monkeypatch.setattr(mevauction.empirics, "_parse_row", counted)
        assert run([command, "--input", str(bundles),
                    "--out-dir", str(tmp_path / command)]) == 0
        assert len(calls) == rows

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
        assert affiliation_pairs(BundleTable.read(path)) == []
        assert affiliation_pairs(BundleTable.from_records([])) == []

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
            proxies.append({rec.tx_hash: proxy for rec, proxy in counted})
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
    assert not out.exists() or not any(out.iterdir())
