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
    "DEFAULT_EPSILON_GRID", "RevenueProfile", "expected_revenue", "revenue_derivative",
    "revenue_sweep",
    # game engine
    "DeviationScan", "SimReport", "deviation_payoff_grid", "run_many",
    # bundle pipeline
    "BribeSchedule", "BundleRecord", "BundleTable", "DecompositionReport",
    "GammaEstimate", "IngestReport", "bergemann_threshold", "bribe_schedule",
    "decompose", "estimate_gamma", "iter_bundles", "write_bundles",
    # diagnostics
    "affiliation_diagnostic", "affiliation_pairs", "board_diagnostic", "builder_table",
    "concentration", "effective_bidder_counts", "gini_coefficient",
    # synthetic data
    "SyntheticSpec",
}


def test_all_lists_the_public_names_and_no_submodule():
    assert sorted(mevauction.__all__) == sorted(PUBLIC)
    for name in mevauction.__all__:
        assert not isinstance(getattr(mevauction, name), types.ModuleType), name



def test_the_cli_imports_no_scipy_stats():
    # scipy.stats is slow to import, and scipy.integrate, scipy.interpolate
    # and scipy.optimize share a few hundred modules with scipy.linalg and
    # scipy.sparse; the package needs only scipy.special, so a fresh
    # interpreter must load none of them, and exits with the names of those
    # it did load
    src = str(Path(mevauction.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    heavy = ("scipy.stats", "scipy.integrate", "scipy.interpolate", "scipy.optimize",
             "scipy.linalg", "scipy.sparse")
    code = ("import sys, mevauction.cli; "
            f"sys.exit(' '.join(m for m in {heavy!r} if m in sys.modules) or None)")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
