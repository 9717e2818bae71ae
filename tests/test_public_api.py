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


def _fresh_python(code):
    """A fresh interpreter that imports the package from this checkout runs
    ``code``: (exit code, standard error)."""
    src = str(Path(mevauction.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    return run.returncode, run.stderr


def test_estimate_and_report_load_no_scipy_and_a_solve_loads_only_scipy_special(tmp_path):
    # scipy.special is imported at the first call of the normal CDF, its
    # logarithm or its inverse (values._special); the bundle pipeline calls
    # none of them, so importing the package and running estimate and report
    # loads no scipy module at all, while a solve loads scipy.special and
    # none of the modules the test above keeps out
    from mevauction.cli import main

    flags = ["--type", "naked_arb", "--n", "4", "--rho", "0.2", "--gamma", "0.74",
             "--mu", "1.102", "--sigma", "1.5", "--epsilon", "0.3"]
    gen = tmp_path / "gen"
    assert main(["generate", *flags, "--blocks", "200", "--seed", "17",
                 "--out-dir", str(gen)]) == 0
    bundles = str(gen / "bundles.csv")
    heavy = ("scipy.stats", "scipy.integrate", "scipy.interpolate", "scipy.optimize",
             "scipy.linalg", "scipy.sparse")
    code = f"""
import sys, mevauction, mevauction.cli
from mevauction import cli
scipy = lambda: [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
loaded = scipy()
for command in ("estimate", "report"):
    assert cli.main([command, "--input", {bundles!r},
                     "--out-dir", {str(tmp_path / "out")!r} + command]) == 0
    loaded += scipy()
if loaded:
    sys.exit("loaded before a solve: " + " ".join(sorted(set(loaded))))
assert cli.main(["solve", *{flags!r}, "--out-dir", {str(tmp_path / "solve")!r}]) == 0
if "scipy.special" not in sys.modules:
    sys.exit("a solve loaded no scipy.special")
sys.exit(" ".join(m for m in {heavy!r} if m in sys.modules) or None)
"""
    returncode, stderr = _fresh_python(code)
    assert returncode == 0, stderr


def test_a_first_special_call_from_two_threads_equals_a_warmed_call():
    # the first call of a scipy.special function may come from two pool
    # threads at once; both must get the function itself, so a multi-row
    # integral whose two shares make that first call equals the same call
    # made again once the module is loaded, bit for bit
    code = """
import sys
import numpy as np
from mevauction import values
from mevauction.profiles import MevType, TypeProfile
values._usable_cpus = lambda: 2
assert "scipy.special" not in sys.modules
profile = TypeProfile(MevType.NAKED_ARB, n=4, rho=0.2, gamma=0.74, mu=1.102, sigma=1.5)
v = np.geomspace(0.5, 40.0, 300)
first = values.rival_max_hazard_ratio(v, profile)
assert "scipy.special" in sys.modules
warmed = values.rival_max_hazard_ratio(v, profile)
if first.tobytes() != warmed.tobytes():
    sys.exit("the first call differs from a warmed call")
"""
    returncode, stderr = _fresh_python(code)
    assert returncode == 0, stderr
