"""Tests of the benchmark itself, on small instances of its workloads.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from metrics import EXACT, PER_LAYER  # noqa: E402
from run import Tally, run_pass, traced_run  # noqa: E402
from tracing import BUSY, COUNT, NAME, PARENT, Tracer  # noqa: E402

from mevauction.cli import main as cli_main  # noqa: E402

SMALL = {
    "theory": lambda seed: workloads.Theory(seed, profiles=["never_binding"]),
    "montecarlo": lambda seed: workloads.MonteCarlo(
        seed, blocks={"flagship": 200_000, "n50": 20_000}),
    "pipeline": lambda seed: workloads.Pipeline(seed, blocks=1_000),
}
# per-layer metrics that must be nonzero on the workload that uses the layer
FIRES = {
    "theory": ["values.density_points", "values.density_calls", "values.density_s",
               "values.hazard_points", "equilibrium.ode_nodes",
               "equilibrium.solve_cutoff_s", "revenue.expected_revenue_s",
               "revenue.revenue_derivative_s", "revenue.density_points_per_eps",
               "cli.self_s", "cli.output_bytes", "cli.solve_per_s", "cli.sweep_eps_per_s"],
    "montecarlo": ["values.hazard_points", "equilibrium.ode_nodes", "equilibrium.bid_values",
                   "equilibrium.bid_s", "simulate.run_many_s",
                   "simulate.bid_values_per_block", "simulate.bid_share",
                   "cli.simulate_blocks_per_s", "cli.output_bytes"],
    "pipeline": ["equilibrium.bid_values", "synthetic.generate_s", "synthetic.records",
                 "empirics.rows_parsed", "empirics.parse_passes_estimate",
                 "empirics.parse_passes_report", "empirics.iter_bundles_s",
                 "empirics.write_bundles_s", "empirics.bribe_schedule_s",
                 "empirics.estimate_gamma_s", "empirics.decompose_s",
                 "diagnostics.affiliation_pairs_s", "diagnostics.affiliation_pairs_calls",
                 "diagnostics.effective_bidder_counts_s",
                 "diagnostics.effective_bidder_counts_calls", "diagnostics.concentration_s",
                 "diagnostics.builder_table_s", "diagnostics.board_diagnostic_s",
                 "cli.generate_records_per_s", "cli.estimate_records_per_s",
                 "cli.report_records_per_s"],
}
# per-layer metrics that must read 0 because the workload skips the layer
SKIPS = {
    "theory": ["equilibrium.bid_values", "simulate.run_many_s", "synthetic.records",
               "empirics.rows_parsed", "diagnostics.affiliation_pairs_calls",
               "cli.simulate_blocks_per_s", "cli.report_records_per_s"],
    "montecarlo": ["values.density_points", "values.density_calls",
                   "revenue.density_points_per_eps", "synthetic.records",
                   "empirics.rows_parsed", "diagnostics.effective_bidder_counts_calls",
                   "cli.sweep_eps_per_s"],
    "pipeline": ["values.density_points", "revenue.expected_revenue_s",
                 "simulate.run_many_s", "simulate.bid_values_per_block",
                 "cli.solve_per_s", "cli.simulate_blocks_per_s"],
}


def traced(name, tmp_path, seed=1):
    workload = SMALL[name](seed)
    work = tmp_path / f"{name}-{seed}"
    work.mkdir()
    tally = Tally()
    layers = traced_run(workload, workload.prepare(work), cli_main, 0.0, tally,
                        tmp_path / f"spans-{name}.csv")
    return tally, layers


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two traced runs of each small workload on the same seed."""
    return {name: [traced(name, tmp_path_factory.mktemp(name)) for _ in range(2)]
            for name in SMALL}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workload_passes_its_checks(runs, name):
    for tally, _ in runs[name]:
        assert tally.attempted > 0
        assert tally.failed == 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counters_fire_where_used_and_read_zero_where_skipped(runs, name):
    _, layers = runs[name][0]
    assert set(layers) >= {n for n, *_ in PER_LAYER} - {
        n for n, *_ in PER_LAYER if n.startswith(("setup.", "simulate.run_many_workers"))}
    for metric in FIRES[name]:
        assert layers[metric] > 0, metric
    for metric in SKIPS[name]:
        assert layers[metric] == 0, metric


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly(runs, name):
    (_, first), (_, second) = runs[name]
    for metric in EXACT:
        assert first[metric] == second[metric], metric


def test_today_parse_passes_and_diagnostic_calls(runs):
    _, layers = runs["pipeline"][0]
    assert layers["empirics.parse_passes_estimate"] == 4
    assert layers["empirics.parse_passes_report"] == 7
    assert layers["diagnostics.affiliation_pairs_calls"] == 2
    assert layers["diagnostics.effective_bidder_counts_calls"] == 2
    _, layers = runs["montecarlo"][0]
    blocks = 200_000 + 20_000
    assert layers["simulate.bid_values_per_block"] == (5 * 200_000 + 50 * 20_000) / blocks


def test_tracer_wraps_every_namespace_and_times_generators(tmp_path):
    import mevauction
    import mevauction.cli
    import mevauction.equilibrium
    import mevauction.revenue
    originals = (mevauction.cli.iter_bundles, mevauction.revenue.top_value_density,
                 mevauction.equilibrium.rival_max_hazard_ratio, mevauction.iter_bundles)
    tracer = Tracer()
    tracer.install()
    try:
        assert mevauction.cli.iter_bundles is not originals[0]
        assert mevauction.cli.iter_bundles is mevauction.empirics.iter_bundles
        assert mevauction.iter_bundles is mevauction.empirics.iter_bundles
        assert mevauction.revenue.top_value_density is mevauction.values.top_value_density
        assert mevauction.revenue.top_value_density is not originals[1]
        assert mevauction.equilibrium.rival_max_hazard_ratio is not originals[2]
        path = tmp_path / "b.csv"
        path.write_text("tx_hash,block_number,mev_type,builder,searcher,tip_usdc,profit_usdc\n"
                        + "".join(f"0x{i},{i},backrun,b,s,1,2\n" for i in range(2000)))
        records = tracer.call("cli.test", lambda: list(mevauction.cli.iter_bundles(path)))
    finally:
        tracer.uninstall()
    assert (mevauction.cli.iter_bundles, mevauction.revenue.top_value_density,
            mevauction.equilibrium.rival_max_hazard_ratio,
            mevauction.iter_bundles) == originals
    assert len(records) == 2000
    root, gen = tracer.spans
    assert (gen[NAME], gen[PARENT], gen[COUNT]) == ("empirics.iter_bundles", 0, 2000)
    assert 0 < gen[BUSY] <= root[BUSY]


# ---------------------------------------------------------------------------
# every output check fails on a deliberately wrong output
# ---------------------------------------------------------------------------

REFERENCE = json.loads((HERE / "reference.json").read_text())


def test_solve_check():
    ref = REFERENCE["flagship"]["solve"]
    good = {"cutoff": ref["cutoff"], "curve": {"nodes": 1000}}
    assert checks.check_solve(good, ref) == []
    assert checks.check_solve({**good, "cutoff": "inf"}, ref)
    wrong = f"{float(ref['cutoff']) * (1 + 1e-8):.12g}"
    assert checks.check_solve({**good, "cutoff": wrong}, ref)


@pytest.mark.parametrize("label", sorted(REFERENCE))
def test_sweep_check(label):
    ref = REFERENCE[label]["sweep"]
    expect = workloads.THEORY_PROFILES[label][1]
    good = {"regime": ref["regime"], "epsilon_star": ref["epsilon_star"],
            "profile": {"revenues": list(ref["revenues"])}}
    assert checks.check_sweep(good, ref, expect) == []
    bumped = copy.deepcopy(good)
    bumped["profile"]["revenues"][7] *= 1 + 1e-8
    assert checks.check_sweep(bumped, ref, expect)
    assert checks.check_sweep({**good, "regime": "unknown"}, ref, expect)
    assert checks.check_sweep({**good, "epsilon_star": 0.5}, ref, expect)


def test_sweep_check_pins_the_regime_profiles():
    ref = REFERENCE["all_binding"]["sweep"]
    expect = workloads.THEORY_PROFILES["all_binding"][1]
    wrong = {"regime": "mixed", "epsilon_star": 0.0, "revenues": ref["revenues"]}
    doc = {"regime": "mixed", "epsilon_star": 0.0, "profile": {"revenues": ref["revenues"]}}
    assert len(checks.check_sweep(doc, wrong, expect)) == 2
    ref = REFERENCE["never_binding"]["sweep"]
    expect = workloads.THEORY_PROFILES["never_binding"][1]
    sloped = [r * (1 + 1e-4 * i) for i, r in enumerate(ref["revenues"])]
    doc = {"regime": ref["regime"], "epsilon_star": ref["epsilon_star"],
           "profile": {"revenues": sloped}}
    errors = checks.check_sweep(doc, {**ref, "revenues": sloped}, expect)
    assert errors == ["sweep: revenue profile is not flat"]


def test_simulate_check():
    good = {"blocks": 1000, "mean_builder_revenue": 100.0, "stderr_builder_revenue": 1.0,
            "frontrun_rate": 0.01, "defection_rate_realized": 0.2}
    assert checks.check_simulate(good, 1000, 101.0) == []
    assert checks.check_simulate(good, 1000, 100.0 + 1.01 * checks.SIM_SE_LIMIT)
    assert checks.check_simulate(good, 2000, 100.0)
    assert checks.check_simulate({**good, "frontrun_rate": 0.3}, 1000, 100.0)
    assert checks.check_simulate({**good, "stderr_builder_revenue": 0.0}, 1000, 100.0)


def test_generate_check():
    assert checks.check_generate(100, 100) == []
    assert checks.check_generate(100, 99)


def test_gamma_and_report_checks():
    planted = workloads.PIPELINE_GAMMAS
    good = {label: {"gamma_hat": g + 0.01} for label, g in planted.items()}
    assert checks.check_gammas(good, planted, "estimate") == []
    off = {**good, "backrun": {"gamma_hat": planted["backrun"] + 0.03}}
    assert checks.check_gammas(off, planted, "estimate")
    missing = {k: v for k, v in good.items() if k != "liquidation"}
    assert checks.check_gammas(missing, planted, "estimate")
    assert checks.check_gammas({**good, "sandwich": {"gamma_hat": 0.5}}, planted, "estimate")
    report = {"gamma_estimates": good,
              "data_quality": {"rows_read": 1000, "records": 997, "malformed": 3,
                               "nonpositive_extracted_value": 5}}
    assert checks.check_report(report, planted, 1000, 3, 5) == []
    assert checks.check_report(report, planted, 1000, 2, 5)
    assert checks.check_report(report, planted, 1000, 3, 6)


def test_a_wrong_output_counts_as_a_failed_command(tmp_path):
    reference = copy.deepcopy(REFERENCE)
    reference["never_binding"]["sweep"]["revenues"][0] *= 1 + 1e-6
    reference["never_binding"]["solve"]["cutoff"] = "1.0"
    workload = workloads.Theory(0, profiles=["never_binding"], reference=reference)
    tally = Tally()
    run_pass(workload.prepare(tmp_path), cli_main, tally)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_work_per_s_weighs_every_command_the_same():
    def tally(solve_s):
        t = Tally()
        for key, units, seconds in (("solve/a", 1, solve_s), ("sweep/a", 21, 10.0)):
            t.units[key] = units
            t.times[key] = [seconds, seconds]
        return t

    # a 4x slower 0.05 s command halves the rate, though it is 2% of the time
    assert tally(0.2).work_per_s() == pytest.approx(tally(0.05).work_per_s() / 2)


def test_injected_rows_are_seeded(tmp_path):
    src = tmp_path / "in.csv"
    src.write_text("tx_hash,block_number,mev_type,builder,searcher,tip_usdc,profit_usdc\n"
                   + "".join(f"0x{i},{i},backrun,b,s,1,2\n" for i in range(10_000)))
    first = workloads.inject_bad_rows(src, tmp_path / "a.csv", 5)
    second = workloads.inject_bad_rows(src, tmp_path / "b.csv", 5)
    other = workloads.inject_bad_rows(src, tmp_path / "c.csv", 6)
    assert first == second == other == (10_000 + 5 + 20, 5, 20)
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
    assert (tmp_path / "a.csv").read_text() != (tmp_path / "c.csv").read_text()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "theory",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
