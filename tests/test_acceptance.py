"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criterion 8 needs a real bundle export; point LIBMEV_CSV at the file to
enable the numeric reproduction checks, otherwise only the format contract
is exercised and the numeric half is skipped.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy.stats import norm

from mevauction import (
    DEFAULT_EPSILON_GRID,
    deviation_payoff_grid,
    expected_revenue,
    ipv_bid,
    revenue_derivative,
    revenue_sweep,
    run_many,
    solve_bid_ode,
    solve_strategy,
)
from mevauction.cli import main as cli_main
from mevauction.empirics import BundleTable, bribe_schedule, decompose, estimate_gamma
from mevauction.equilibrium import PiecewiseStrategy
from mevauction.profiles import MevType
from mevauction.synthetic import SyntheticSpec

from conftest import (MU, SIGMA, curve_for, generated_records, make_profile, marginal_quantile,
                      table_from_records)

# ---------------------------------------------------------------------------
# profile matrix
# ---------------------------------------------------------------------------

BINDING_GAMMA = 0.95      # deterrence level above the bid share everywhere
NONBINDING_GAMMA = 0.015  # below the bid share at every tested valuation

BEST_RESPONSE_PROFILES = [
    make_profile(n=4, rho=rho, gamma=gamma, tau=MevType.SANDWICH)
    for rho in (0.0, 0.3, 0.6)
    for gamma in (BINDING_GAMMA, NONBINDING_GAMMA)
]

ALL_BINDING = make_profile(n=3, rho=0.2, gamma=0.998, tau=MevType.SANDWICH)
NEVER_BINDING = make_profile(n=10, rho=0.4, gamma=0.05, sigma=0.5,
                             tau=MevType.LIQUIDATION)
FLAGSHIP = make_profile()  # n=5, rho=0.3, gamma=0.74

SIM_MATRIX = [(p, 0.3) for p in BEST_RESPONSE_PROFILES] + [
    (FLAGSHIP, 0.2),
    (ALL_BINDING, 0.3),
    (NEVER_BINDING, 0.5),
]


def note(criterion, text):
    print(f"[criterion {criterion}] PASS: {text}")


def test_criterion_1_ipv_oracle():
    worst = {}
    for n in (3, 5, 10):
        profile = make_profile(n=n, rho=0.0)
        start = time.monotonic()
        curve = solve_bid_ode(profile)
        qs = norm.cdf((np.log(curve.grid) - MU) / SIGMA)
        mask = (qs >= 0.05) & (qs <= 0.999)
        sample = curve.grid[mask][:: max(1, mask.sum() // 40)]
        oracle = ipv_bid(sample, n, MU, SIGMA)
        elapsed = time.monotonic() - start
        rel = float(np.max(np.abs(curve.bid(sample) - oracle) / oracle))
        assert rel < 1e-3, f"n={n}: relative error {rel:.2e}"
        assert elapsed < 10.0, f"n={n}: took {elapsed:.1f}s"
        worst[n] = rel
    note(1, "closed-form iid bids reproduced; worst relative errors "
            + ", ".join(f"n={n}: {e:.1e}" for n, e in worst.items()))


def test_criterion_2_best_response():
    start = time.monotonic()
    quantiles = np.linspace(0.10, 0.999, 20)
    worst = -np.inf
    for profile in BEST_RESPONSE_PROFILES:
        curve = curve_for(profile)
        for epsilon in (0.0, 0.3):
            strategy = solve_strategy(profile, epsilon, curve=curve)
            for qi, q in enumerate(quantiles):
                v = marginal_quantile(q)
                b_eq = float(strategy.bid(v))
                bids = b_eq * np.linspace(0.8, 1.2, 41)
                scan = deviation_payoff_grid(
                    v, bids, strategy, profile, blocks=100_000,
                    seed=1000 + qi, reference_index=20)
                best = int(np.argmax(scan.means))
                gain = scan.means[best] - scan.means[20]
                allowance = 2.0 * scan.stderrs[best]
                worst = max(worst, gain - allowance)
                assert gain <= allowance, (
                    f"{profile.tau.value} rho={profile.rho} gamma={profile.gamma} "
                    f"eps={epsilon} q={q:.3f}: deviation gain {gain:.3g} "
                    f"exceeds 2 SE {allowance:.3g}")
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    note(2, f"equilibrium bids grid-optimal at 240 sampled valuations "
            f"({elapsed:.0f}s; worst gain minus allowance {worst:.2e})")


def test_criterion_3_high_extractability_monotone():
    result = revenue_sweep(ALL_BINDING, DEFAULT_EPSILON_GRID, curve=curve_for(ALL_BINDING))
    assert result.regime == "high_extractability"
    revenues = result.revenues
    level = float(np.max(np.abs(revenues)))
    increments = np.diff(revenues)
    assert np.all(increments > 1e-6 * level), increments.min()
    assert np.all(result.derivatives[1:-1] > 0.0)
    assert result.epsilon_star == DEFAULT_EPSILON_GRID[-1]
    note(3, f"revenue strictly increasing over the grid "
            f"(min increment {increments.min():.4g} on level {level:.4g}); "
            f"derivative positive at all interior points")


def test_criterion_4_low_extractability_flat():
    result = revenue_sweep(NEVER_BINDING, DEFAULT_EPSILON_GRID,
                           curve=curve_for(NEVER_BINDING))
    assert result.regime == "low_extractability"
    revenues = result.revenues
    spread = float(revenues.max() - revenues.min())
    level = float(np.max(np.abs(revenues)))
    assert spread < 1e-6 * level, spread
    note(4, f"revenue flat across the grid (spread {spread:.2e} on level {level:.4g})")


def test_criterion_5_derivative_consistency():
    curve = curve_for(ALL_BINDING)

    def revenue_at(eps):
        strat = solve_strategy(ALL_BINDING, eps, curve=curve)
        return expected_revenue(eps, strat, ALL_BINDING)

    worst = 0.0
    for eps in np.arange(0.1, 0.95, 0.1):
        eps = round(float(eps), 10)
        strat = solve_strategy(ALL_BINDING, eps, curve=curve)
        analytic = revenue_derivative(eps, strat, ALL_BINDING)
        step = 1e-4
        fd = (revenue_at(eps + step) - revenue_at(eps - step)) / (2 * step)
        rel = abs(analytic - fd) / abs(fd)
        worst = max(worst, rel)
        assert rel < 1e-3, f"eps={eps}: relative gap {rel:.2e}"
    note(5, f"analytic derivative matches central differences at nine rates "
            f"(worst relative gap {worst:.2e})")


def test_criterion_6_quadrature_vs_simulation():
    worst = 0.0
    for profile, epsilon in SIM_MATRIX:
        strategy = solve_strategy(profile, epsilon, curve=curve_for(profile))
        quadrature = expected_revenue(epsilon, strategy, profile)
        report = run_many(strategy, profile, 1_000_000, seed=271828)
        z = (quadrature - report.mean_builder_revenue) / report.stderr_builder_revenue
        worst = max(worst, abs(z))
        assert abs(z) < 3.0, (
            f"{profile.tau.value} n={profile.n} rho={profile.rho} "
            f"gamma={profile.gamma} eps={epsilon}: z={z:.2f}")
    note(6, f"expected revenue within 3 standard errors of the game engine on "
            f"{len(SIM_MATRIX)} profiles (worst |z| = {worst:.2f})")


def test_criterion_7_planted_parameter_recovery():
    planted = {MevType.NAKED_ARB: 0.74, MevType.LIQUIDATION: 0.88,
               MevType.BACKRUN: 0.60}
    specs, estimates = [], {}
    for tau, gamma in planted.items():
        profile = make_profile(n=5, rho=0.3, gamma=gamma, tau=tau)
        specs.append(SyntheticSpec(
            profile=profile, epsilon=0.3,
            strategy=solve_strategy(profile, 0.3, curve=curve_for(profile))))
    table = table_from_records(generated_records(specs, 100_000, seed=514))
    recovered = {}
    for tau, gamma in planted.items():
        est = estimate_gamma(bribe_schedule(table, tau))
        recovered[tau] = est.gamma_hat
        assert abs(est.gamma_hat - gamma) <= 0.02, (tau, est.gamma_hat, gamma)
        estimates[tau] = est

    report = decompose(table, estimates)
    assert report.total_foregone >= 0.0
    assert all(t.foregone_surplus >= 0.0 for t in report.per_type)

    # bids planted exactly at gamma*v: the decomposition collapses below 1%
    profile = make_profile(n=5, rho=0.3, gamma=0.88)
    curve = curve_for(profile)
    exact = PiecewiseStrategy(curve=curve, cutoff=curve.v_min, gamma=0.88, epsilon=0.0)
    exact_table = table_from_records(generated_records(
        [SyntheticSpec(profile=profile, epsilon=0.0, strategy=exact)],
        50_000, seed=515))
    est = estimate_gamma(bribe_schedule(exact_table, profile.tau))
    flat = decompose(exact_table, {profile.tau: est})
    assert flat.total_foregone < 0.01 * flat.total_tips
    note(7, "planted replicable shares recovered within 0.02 "
            + ", ".join(f"{t.value}: {g:.4f}" for t, g in recovered.items())
            + f"; exact-bid decomposition at {flat.total_ratio:.2e} of tips")


def _format_contract_bundle(tmp_path, blocks=3000):
    out = tmp_path / "gen"
    assert cli_main([
        "generate", "--type", "naked_arb", "--n", "4", "--rho", "0.2",
        "--gamma", "0.74", "--mu", "1.102", "--sigma", "1.5",
        "--epsilon", "0.3", "--blocks", str(blocks), "--seed", "99",
        "--out-dir", str(out)]) == 0
    return out / "bundles.csv"


def test_criterion_8_report_pipeline(tmp_path):
    bundles = _format_contract_bundle(tmp_path)
    out = tmp_path / "report"
    assert cli_main(["report", "--input", str(bundles), "--out-dir", str(out)]) == 0
    for name in ("tab1_summary.csv", "fig2_naked_arb.csv", "fig3_decomposition.csv",
                 "fig4_bergemann.csv", "figA1_pairs.csv", "figA2_lorenz.csv",
                 "figA3_board.csv", "tabA1_builders.csv", "report.json"):
        assert (out / name).exists(), name

    # table-1 aggregates must match the input exactly at desk scale
    table = BundleTable.read(bundles)
    values = table.value[table.value > 0]
    row = (out / "tab1_summary.csv").read_text().splitlines()[1].split(",")
    assert int(row[1]) == values.size
    assert float(row[2]) == pytest.approx(values.sum(), rel=1e-9)
    assert float(row[4]) == pytest.approx(np.median(values), rel=1e-9)

    real = os.environ.get("LIBMEV_CSV")
    if not real:
        note(8, "format contract verified on a synthetic export "
                "(real-data reproduction skipped: no LIBMEV_CSV supplied)")
        pytest.skip("real bundle export not supplied; criteria 1-7 constitute "
                    "acceptance per the conditional clause")
    real_out = tmp_path / "real"
    assert cli_main(["report", "--input", real, "--out-dir", str(real_out)]) == 0
    table = (real_out / "tab1_summary.csv").read_text().splitlines()
    totals = {r.split(",")[0]: r.split(",") for r in table[1:]}
    assert int(totals["all"][1]) == 2_216_621
    assert abs(float(totals["all"][2]) - 168.5e6) < 0.001 * 168.5e6
    report = json.loads((real_out / "report.json").read_text())
    assert abs(report["gamma_estimates"]["naked_arb"]["gamma_hat"] - 0.74) <= 0.02
    assert abs(report["gamma_estimates"]["liquidation"]["gamma_hat"] - 0.88) <= 0.02
    decomp = report["decomposition"]
    assert abs(decomp["total_foregone"] - 49.4e6) < 0.01 * 49.4e6
    assert abs(decomp["ratio"] - 0.488) < 0.01 * 0.488
    builders = (real_out / "tabA1_builders.csv").read_text().splitlines()
    beaver = next(r for r in builders if r.startswith("beaverbuild.org"))
    fields = beaver.split(",")
    assert int(fields[1]) == 920_935
    assert abs(float(fields[2]) - 59.50e6) < 0.005 * 59.50e6
    note(8, "real bundle export reproduced: table 1, plateau estimates, "
            "decomposition, builder table")


def test_criterion_9_determinism(tmp_path):
    flags = ["--type", "naked_arb", "--n", "4", "--rho", "0.2", "--gamma", "0.74",
             "--mu", "1.102", "--sigma", "1.5", "--epsilon", "0.25"]
    pairs = {
        "solve": ["solve", *flags],
        "simulate": ["simulate", *flags, "--blocks", "20000", "--seed", "5"],
        "generate": ["generate", *flags, "--blocks", "2000", "--seed", "5"],
    }
    for name, argv in pairs.items():
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        for out in (a, b):
            assert cli_main([*argv, "--out-dir", str(out)]) == 0
        for produced in a.iterdir():
            if produced.name == "timing.json":
                continue
            twin = b / produced.name
            assert produced.read_bytes() == twin.read_bytes(), produced.name

    profile = FLAGSHIP
    strategy = solve_strategy(profile, 0.2, curve=curve_for(profile))
    serial = run_many(strategy, profile, 200_000, seed=11, workers=1)
    threaded = run_many(strategy, profile, 200_000, seed=11, workers=4)
    assert serial == threaded
    note(9, "byte-identical reruns for solve/simulate/generate; Monte Carlo "
            "reports invariant to worker count")
