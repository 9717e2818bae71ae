import os
import subprocess
import sys
import types
from pathlib import Path

import mevauction

# one entry point per job: solve, revenue, simulate, the bundle pipeline
PUBLIC = {
    # value model
    "MevType", "TypeProfile", "rival_max_cdf", "rival_max_hazard_ratio",
    "top_value_cdf", "top_value_density", "top_value_mean", "top_value_quantile",
    "top_value_sf", "top_value_tail_mean",
    # equilibrium
    "BidCurve", "GridSpec", "PiecewiseStrategy", "default_grid", "indifference_epsilon",
    "ipv_bid", "ode_residual", "solve_bid_ode", "solve_cutoff", "solve_strategy",
    "truncation_mass",
    # revenue
    "DEFAULT_EPSILON_GRID", "OptimalEpsilon", "RevenueProfile", "classify_regime",
    "expected_revenue", "first_price_revenue", "optimal_epsilon", "revenue_derivative",
    "revenue_sweep",
    # game engine
    "DeviationScan", "SimReport", "deviation_payoff_grid", "payoff_of_deviation",
    "run_many",
    # bundle pipeline
    "BribeSchedule", "BundleRecord", "BundleTable", "DecompositionReport",
    "GammaEstimate", "IngestReport", "bergemann_threshold", "bribe_schedule",
    "decompose", "estimate_gamma", "ingest", "iter_bundles", "validate_bergemann_rule",
    "write_bundles",
    # diagnostics
    "affiliation_diagnostic", "affiliation_pairs", "board_diagnostic", "builder_table",
    "concentration", "effective_bidder_counts", "gini_coefficient",
    # synthetic data
    "SyntheticSpec", "generate_synthetic",
}


def test_all_lists_the_public_names_and_no_submodule():
    assert sorted(mevauction.__all__) == sorted(PUBLIC)
    for name in mevauction.__all__:
        assert not isinstance(getattr(mevauction, name), types.ModuleType), name



def test_the_cli_imports_no_scipy_stats():
    # scipy.stats is slow to import; the package needs only scipy.special's
    # normal primitives, so a fresh interpreter must not load it
    src = str(Path(mevauction.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, mevauction.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
