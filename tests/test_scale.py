"""Metamorphic oracles: the model has no unit of money.

Values are LogNormal(mu, sigma^2), so shifting mu by ln c scales every value
by c.  The bid ODE, the hazard ratio v r(v), the indifference rate and the
bribe shares are homogeneous, so the bid grid, the bids, the sweep's
revenues and cutoffs, and the game engine's money figures all scale by c,
while every rate, regime and argmax stays the same.  The relations are
deterministic and catch an absolute tolerance, floor or unit slip, which
neither the Monte Carlo checks nor the 1e-9 reference pins can see.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mevauction import DEFAULT_EPSILON_GRID, revenue_sweep, run_many, solve_strategy
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
