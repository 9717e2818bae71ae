"""Metamorphic oracles: the model has no unit of money.

Values are LogNormal(mu, sigma^2), so shifting mu by ln c scales every value
by c.  The bid ODE, the hazard ratio v r(v), the indifference rate and the
bribe shares are homogeneous, so the bid grid, the bids, the sweep's
revenues and cutoffs, the game engine's money figures and the report's
dollar columns all scale by c, while every rate, share, regime and argmax
stays the same.  The relations are
deterministic and catch an absolute tolerance, floor or unit slip, which
neither the Monte Carlo checks nor the 1e-9 reference pins can see.
"""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mevauction import DEFAULT_EPSILON_GRID, revenue_sweep, run_many, solve_strategy
from mevauction.cli import main
from mevauction.equilibrium import PiecewiseStrategy, solve_bid_ode, solve_cutoff
from mevauction.errors import SolverError

from conftest import curve_for, make_profile
from test_acceptance import ALL_BINDING, FLAGSHIP, NEVER_BINDING

SCALES = [2.0, 1000.0, 1 / 1024]
# the largest relative gap measured over these profiles and scales is 2.3e-14
# (the cutoffs); a relative slip of 1e-9 anywhere stays far above this
RTOL = 1e-12
N50 = make_profile(n=50)
GAMMA_CROSSES = make_profile(gamma=0.32)  # gamma v crosses the bid in the grid's bulk
THEORY = {"flagship": FLAGSHIP, "all_binding": ALL_BINDING, "never_binding": NEVER_BINDING,
          "n50": N50}
MIXED = {"flagship": FLAGSHIP, "n50": N50, "gamma0.32": GAMMA_CROSSES}


def _scaled(profile, c):
    """The profile whose values are c times those of ``profile``."""
    return dataclasses.replace(profile, mu=profile.mu + math.log(c))


def _assert_solve_and_sweep_scale(profile, c):
    curve, scaled = curve_for(profile), solve_bid_ode(_scaled(profile, c))
    np.testing.assert_allclose(scaled.grid, c * curve.grid, rtol=RTOL, atol=0)
    np.testing.assert_allclose(scaled.bids, c * curve.bids, rtol=RTOL, atol=0)
    sweep = revenue_sweep(profile, DEFAULT_EPSILON_GRID, curve=curve)
    got = revenue_sweep(_scaled(profile, c), DEFAULT_EPSILON_GRID, curve=scaled)
    np.testing.assert_allclose(got.revenues, c * sweep.revenues, rtol=RTOL, atol=0)
    np.testing.assert_allclose(got.cutoffs, c * sweep.cutoffs, rtol=RTOL, atol=0)
    assert got.regime == sweep.regime
    assert got.epsilon_star == sweep.epsilon_star


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("label", THEORY)
def test_solve_and_sweep_scale_with_values(label, c):
    _assert_solve_and_sweep_scale(THEORY[label], c)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(log_c=st.floats(min_value=-30.0, max_value=30.0))
def test_solve_and_sweep_scale_with_any_unit(log_c):
    _assert_solve_and_sweep_scale(FLAGSHIP, math.exp(log_c))


def _accepted(curve, cutoff, gamma):
    """Whether the strategy with this cutoff passes the monotonicity check."""
    try:
        PiecewiseStrategy(curve=curve, cutoff=cutoff, gamma=gamma, epsilon=0.0)
    except SolverError:
        return False
    return True


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("label", MIXED)
def test_monotonicity_check_is_scale_free(label, c):
    # at the eps = 0 cutoff gamma v crosses the curve; just below it the safe
    # bid dips under the risky bid, which is tolerated up to 1e-9 of the
    # cutoff: a dip of about 1e-13 of it passes and one of about 1e-6 fails,
    # in every unit
    profile = MIXED[label]
    curve, scaled = curve_for(profile), solve_bid_ode(_scaled(profile, c))
    crossing = solve_cutoff(curve, profile.gamma, 0.0)
    assert math.isfinite(crossing)
    outcomes = []
    for shift in (1e-12, 1e-5):
        cutoff = crossing * (1.0 - shift)
        unscaled = _accepted(curve, cutoff, profile.gamma)
        assert _accepted(scaled, c * cutoff, profile.gamma) == unscaled
        outcomes.append(unscaled)
    assert outcomes == [True, False]


@pytest.mark.parametrize("profile,blocks", [(FLAGSHIP, 1_000_000), (N50, 250_000)],
                         ids=["flagship", "n50"])
def test_engine_scales_with_values(profile, blocks):
    c = 1024.0
    strat = solve_strategy(profile, 0.2, curve=curve_for(profile))
    scaled_profile = _scaled(profile, c)
    scaled = solve_strategy(scaled_profile, 0.2, curve=solve_bid_ode(scaled_profile))
    want = run_many(strat, profile, blocks, seed=5)
    got = run_many(scaled, scaled_profile, blocks, seed=5)
    for name in ("mean_builder_revenue", "stderr_builder_revenue", "mean_searcher_surplus",
                 "stderr_searcher_surplus"):
        assert getattr(got, name) == pytest.approx(c * getattr(want, name), rel=RTOL), name
    assert got.blocks == want.blocks
    assert got.frontrun_rate == want.frontrun_rate
    assert got.defection_rate_realized == want.defection_rate_realized


# the report's money columns; every other column is a share, a count, a
# label or a proxy and must print the same
DOLLAR_COLUMNS = {
    "tab1_summary.csv": {"total_extracted", "mean", "median", "std"},
    "fig2_naked_arb.csv": {"value_lo", "value_hi"},
    "fig2_backrun.csv": {"value_lo", "value_hi"},
    "fig3_decomposition.csv": {"observed_tips", "foregone_surplus"},
    "figA1_pairs.csv": set(),
    "figA2_lorenz.csv": set(),
    "tabA1_builders.csv": {"total_extracted"},
    "figA3_board.csv": {"mean_revenue"},
    "fig4_bergemann.csv": set(),
}
LOG_COLUMNS = {"figA1_pairs.csv": {"log_value_top", "log_value_second"}}
REPORT_GENERATE_INI = """\
[generate]
blocks = 20000
seed = 99
opportunities_per_block = 2

[generate.type.naked_arb]
n = 5
rho = 0.3
gamma = 0.74
mu = 1.102
sigma = 2.524
epsilon = 0.3

[generate.type.backrun]
n = 7
rho = 0.4
gamma = 0.6
mu = 1.102
sigma = 2.524
epsilon = 0.3
"""


def _csv_columns(path):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())


def test_report_scales_with_values(tmp_path):
    # tip and profit times 1024 (a power of two, so every sum, share and
    # Lorenz ordinate is exact): the money columns scale by 1024 to their 12
    # printed digits, the log values shift by ln 1024, and the rest is unchanged
    c = 1024.0
    config = tmp_path / "run.ini"
    config.write_text(REPORT_GENERATE_INI)
    assert main(["generate", "--config", str(config), "--out-dir", str(tmp_path / "gen")]) == 0
    with open(tmp_path / "gen" / "bundles.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    scaled_csv = tmp_path / "scaled.csv"
    with open(scaled_csv, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + [  # repr keeps every digit of c x
            row[:5] + [repr(c * float(row[5])), repr(c * float(row[6]))] for row in rows])
    out = {}
    for name, source in (("base", tmp_path / "gen" / "bundles.csv"), ("scaled", scaled_csv)):
        out[name] = tmp_path / name
        assert main(["report", "--input", str(source), "--out-dir", str(out[name])]) == 0

    for name, dollars in DOLLAR_COLUMNS.items():
        base, scaled = _csv_columns(out["base"] / name), _csv_columns(out["scaled"] / name)
        assert base.keys() == scaled.keys() and base, name
        logs = LOG_COLUMNS.get(name, set())
        for column, cells in base.items():
            got = scaled[column]
            assert len(got) == len(cells) > 0, (name, column)
            if column in dollars:
                np.testing.assert_allclose(np.array(got, dtype=float),
                                           c * np.array(cells, dtype=float),
                                           rtol=1e-11, atol=0, err_msg=f"{name}:{column}")
            elif column in logs:
                np.testing.assert_allclose(np.array(got, dtype=float),
                                           np.array(cells, dtype=float) + math.log(c),
                                           rtol=0, atol=1e-9, err_msg=f"{name}:{column}")
            else:
                assert got == cells, (name, column)
        if not dollars and not logs:
            assert (out["base"] / name).read_bytes() == (out["scaled"] / name).read_bytes()

    base, scaled = (json.loads((out[k] / "report.json").read_text()) for k in ("base", "scaled"))
    for key in ("data_quality", "gamma_estimates", "concentration", "bergemann"):
        assert scaled[key] == base[key], key
    for key in ("total_tips", "total_foregone"):
        assert scaled["decomposition"][key] == pytest.approx(c * base["decomposition"][key],
                                                             rel=RTOL)
    assert scaled["decomposition"]["ratio"] == base["decomposition"]["ratio"]
    assert scaled["affiliation"].keys() == base["affiliation"].keys() == {"naked_arb", "backrun"}
    for t, want in base["affiliation"].items():
        got = scaled["affiliation"][t]
        assert got["pairs"] == want["pairs"] > 0
        for key in ("slope", "correlation"):
            assert got[key] == pytest.approx(want[key], rel=RTOL), (t, key)
