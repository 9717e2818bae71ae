import math

import numpy as np
import pytest
from scipy.stats import norm

from mevauction import (
    BidCurve,
    GridSpec,
    PiecewiseStrategy,
    default_grid,
    indifference_epsilon,
    ipv_bid,
    ode_residual,
    solve_bid_ode,
    solve_cutoff,
    solve_strategy,
    truncation_mass,
)
from mevauction import equilibrium
from mevauction.equilibrium import IndifferenceLevel
from mevauction.errors import (
    BoundaryError,
    CutoffMonotonicityError,
    DomainError,
    ParameterError,
    SolverError,
)

from conftest import MU, SIGMA, THEORY_PROFILES, curve_for, make_profile, marginal_quantile


class TestSolveBidOde:
    def test_matches_independent_values_closed_form(self, solved):
        profile, curve = solved(n=3, rho=0.0)
        qs = norm.cdf((np.log(curve.grid) - MU) / SIGMA)
        mask = (qs >= 0.05) & (qs <= 0.999)
        sample = curve.grid[mask][::97]
        oracle = ipv_bid(sample, 3, MU, SIGMA)
        rel = np.abs(curve.bid(sample) - oracle) / oracle
        assert rel.max() < 1e-3

    def test_ode_residual_small(self, flagship):
        profile, curve = flagship
        resid = ode_residual(curve, profile)
        assert np.all(resid < 1e-6 * curve.grid[2:-2])

    def test_epsilon_never_enters(self):
        # identical profiles solve to bit-identical curves; no rate argument exists
        profile = make_profile(n=3, rho=0.2)
        a = solve_bid_ode(profile)
        b = solve_bid_ode(profile)
        np.testing.assert_array_equal(a.bids, b.bids)

    def test_boundary_error_contracts(self, monkeypatch):
        # +-10% boundary perturbation must wash out by the median
        profile = make_profile(n=4, rho=0.3)
        spec = default_grid(profile)

        def solve_with_anchor_scaled(factor):
            monkeypatch.setattr(equilibrium, "ipv_bid",
                                lambda *args: factor * ipv_bid(*args))
            return solve_bid_ode(profile, spec)

        up = solve_with_anchor_scaled(1.1)
        down = solve_with_anchor_scaled(0.9)
        assert up.bids[0] == pytest.approx(1.1 / 0.9 * down.bids[0], rel=1e-12)
        median = marginal_quantile(0.5)
        sel = up.grid >= median
        rel = np.abs(up.bids[sel] - down.bids[sel]) / up.bids[sel]
        assert rel.max() < 1e-4

    def test_competitive_limit_large_n(self):
        # oracle value: closed-form iid bid share at the 90th percentile, n=200
        profile = make_profile(n=200, rho=0.0)
        curve = solve_bid_ode(profile)
        v90 = marginal_quantile(0.9)
        oracle_share = float(ipv_bid(v90, 200, MU, SIGMA)) / v90
        assert abs(curve.bid(v90) / v90 - oracle_share) < 5e-4
        assert 1.0 - curve.bid(v90) / v90 < 0.07

    def test_shading_strictly_positive(self, flagship):
        _, curve = flagship
        assert np.all(curve.bids < curve.grid)
        assert np.all(curve.bids >= 0)

    def test_small_sigma_still_shades(self):
        profile = make_profile(n=3, rho=0.0, sigma=1e-3)
        curve = solve_bid_ode(profile)
        center = math.exp(MU)
        assert curve.bid(center) < center

    def test_boundary_underflow_reported(self):
        profile = make_profile(n=40, rho=0.0)
        spec = GridSpec(v_min=math.exp(MU - 30 * SIGMA), v_max=math.exp(MU + 5), nodes=500)
        with pytest.raises(BoundaryError):
            solve_bid_ode(profile, spec)

    def test_rejects_thin_grid(self):
        with pytest.raises(ParameterError):
            GridSpec(v_min=0.1, v_max=10.0, nodes=100)
        with pytest.raises(ParameterError, match="inf"):
            GridSpec(v_min=0.1, v_max=math.inf, nodes=2000)


class TestBidCurve:
    def test_extension_preserves_share(self, flagship):
        _, curve = flagship
        below = curve.v_min / 7.0
        assert curve.bid(below) == pytest.approx(curve.bids[0] / curve.v_min * below)
        above = curve.v_max * 3.0
        assert curve.bid(above) < above

    def test_monotone_everywhere(self, flagship):
        _, curve = flagship
        vs = np.geomspace(curve.v_min / 10, curve.v_max * 10, 500)
        bids = curve.bid(vs)
        assert np.all(np.diff(bids) >= -1e-12)

    def test_rejects_corrupt_inputs(self):
        with pytest.raises(SolverError):
            BidCurve(grid=np.array([1.0, 2.0]), bids=np.array([0.5, 2.5]))
        with pytest.raises(ParameterError):
            BidCurve(grid=np.array([2.0, 1.0]), bids=np.array([0.5, 0.5]))


class TestIndifference:
    def test_full_replicability_gives_one(self, flagship):
        _, curve = flagship
        vs = np.geomspace(curve.v_min, curve.v_max, 9)
        np.testing.assert_allclose(indifference_epsilon(vs, curve, 1.0), 1.0, atol=1e-12)

    def test_zero_bid_gives_gamma(self):
        curve = BidCurve(grid=np.array([1.0, 2.0, 4.0]), bids=np.array([0.0, 0.5, 1.5]))
        assert indifference_epsilon(1.0, curve, 0.6) == pytest.approx(0.6)

    def test_priced_threat_gives_zero(self, flagship):
        profile, curve = flagship
        cutoff = solve_cutoff(curve, profile.gamma, 0.0)
        assert abs(indifference_epsilon(cutoff, curve, profile.gamma)) < 1e-9

    def test_never_exceeds_gamma(self, flagship):
        _, curve = flagship
        vs = np.geomspace(curve.v_min, curve.v_max, 50)
        assert np.all(indifference_epsilon(vs, curve, 0.74) <= 0.74 + 1e-12)

    @pytest.mark.parametrize("label", list(THEORY_PROFILES))
    def test_float_evaluator_is_the_array_path(self, label):
        # the root finder's bid and ebar on Python floats and the array
        # path's, bit for bit: at every node and midpoint, at seeded points
        # inside panels and on both linear extensions
        profile = make_profile(**THEORY_PROFILES[label])
        curve = curve_for(profile)
        grid = curve.grid
        rng = np.random.default_rng(2024)
        panel = rng.integers(0, grid.size - 1, 1000)
        inside = grid[panel] + rng.uniform(0.0, 1.0, 1000) * np.diff(grid)[panel]
        vs = np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:]), inside,
                             [curve.v_min / 3.0, 3.0 * curve.v_max]])
        assert [curve._bid_at(v) for v in vs.tolist()] == curve.bid(vs).tolist()
        assert [curve._indifference(v, profile.gamma) for v in vs.tolist()] \
            == indifference_epsilon(vs, curve, profile.gamma).tolist()

    def test_float_evaluator_raises_the_array_paths_error(self):
        # valid at its nodes, but the interpolant reaches the value near 0.9
        curve = BidCurve(grid=np.array([0.5, 1.0, 2.0]), bids=np.array([0.0, 0.999, 0.9995]))
        with pytest.raises(SolverError) as array_error:
            indifference_epsilon(0.9, curve, 0.5)
        with pytest.raises(SolverError) as float_error:
            curve._indifference(0.9, 0.5)
        assert str(float_error.value) == str(array_error.value)


class TestSolveCutoff:
    def test_dense_scan_oracle(self, flagship):
        profile, curve = flagship
        cutoff = solve_cutoff(curve, profile.gamma, 0.2)
        assert abs(indifference_epsilon(cutoff, curve, profile.gamma) - 0.2) < 1e-9
        # independent oracle: locate the crossing on a 10^4-point dense scan
        dense = np.geomspace(curve.v_min, curve.v_max, 10_000)
        ebar = indifference_epsilon(dense, curve, profile.gamma)
        idx = int(np.flatnonzero(np.sign(ebar[:-1] - 0.2) != np.sign(ebar[1:] - 0.2))[0])
        assert dense[idx] <= cutoff <= dense[idx + 1]

    def test_zero_rate_stops_at_binding_boundary(self, flagship):
        profile, curve = flagship
        cutoff = solve_cutoff(curve, profile.gamma, 0.0)
        assert abs(profile.gamma * cutoff - curve.bid(cutoff)) < 1e-9 * cutoff

    def test_rate_below_indifference_everywhere(self, solved):
        # deterrence premium never worth paying: stay on the curve
        profile, curve = solved(n=3, rho=0.2, gamma=0.95)
        assert solve_cutoff(curve, 0.95, 0.3) == math.inf

    def test_full_replicability_never_switches(self, flagship):
        _, curve = flagship
        assert solve_cutoff(curve, 1.0, 0.5) == math.inf

    def test_threat_never_binding(self, solved):
        profile, curve = solved(n=10, rho=0.4, gamma=0.05, sigma=0.5)
        assert solve_cutoff(curve, 0.05, 0.3) == math.inf

    def test_rate_above_indifference_everywhere(self, solved):
        # eps dominates ebar wherever the threat binds: deter from the start
        profile, curve = solved(n=3, rho=0.2, gamma=0.95)
        cutoff = solve_cutoff(curve, 0.95, 0.96)
        ebar = indifference_epsilon(curve.grid, curve, 0.95)
        if np.all(ebar > 0):
            assert cutoff == curve.v_min

    def test_rate_above_partial_binding_stops_at_boundary(self, flagship):
        # eps dominates ebar everywhere but the threat binds only up top:
        # the switch lands exactly where it starts to bind
        profile, curve = flagship
        ebar_max = float(np.max(indifference_epsilon(curve.grid, curve, profile.gamma)))
        eps = min(0.99, ebar_max + 0.01)
        cutoff = solve_cutoff(curve, profile.gamma, eps)
        assert math.isfinite(cutoff)
        assert abs(profile.gamma * cutoff - curve.bid(cutoff)) < 1e-9 * cutoff

    def test_non_monotone_raises_with_interval(self):
        grid = np.array([1.0, 2.0, 3.0, 4.0])
        bids = np.array([0.5, 1.4, 1.8, 2.6])  # share dips then recovers
        curve = BidCurve(grid=grid, bids=bids)
        with pytest.raises(CutoffMonotonicityError) as err:
            solve_cutoff(curve, 0.75, 0.2)
        assert err.value.interval is not None

    def test_invalid_rate(self, flagship):
        _, curve = flagship
        with pytest.raises(ParameterError):
            solve_cutoff(curve, 0.74, 1.0)


class TestIndifferenceLevel:
    @pytest.mark.parametrize("params", [{}, {"gamma": 0.32}, {"n": 50}],
                             ids=["flagship", "gamma0.32", "n50"])
    def test_kinks_sit_where_ebar_changes_sign(self, solved, params):
        # each kink lies between the two grid nodes where ebar changes sign,
        # and ebar vanishes there
        profile, curve = solved(**params)
        ebar = indifference_epsilon(curve.grid, curve, profile.gamma)
        changes = np.flatnonzero(np.sign(ebar[:-1]) != np.sign(ebar[1:]))
        kinks = IndifferenceLevel(curve, profile.gamma).kinks()
        assert len(kinks) == changes.size >= 1
        for kink, i in zip(kinks, changes):
            assert curve.grid[i] < kink < curve.grid[i + 1]
            assert abs(indifference_epsilon(kink, curve, profile.gamma)) <= 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0],
                         ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("wrap", [float, lambda x: np.array([1.0, x])],
                         ids=["scalar", "array"])
@pytest.mark.parametrize("name", ["BidCurve.bid", "PiecewiseStrategy.bid",
                                  "indifference_epsilon", "ipv_bid"])
def test_value_must_be_positive_and_finite(flagship, name, bad, wrap):
    profile, curve = flagship
    strategy = solve_strategy(profile, 0.2, curve=curve)
    call = {
        "BidCurve.bid": curve.bid,
        "PiecewiseStrategy.bid": strategy.bid,
        "indifference_epsilon": lambda v: indifference_epsilon(v, curve, profile.gamma),
        "ipv_bid": lambda v: ipv_bid(v, profile.n, profile.mu, profile.sigma),
    }[name]
    with pytest.raises(DomainError, match="v must be positive"):
        call(wrap(bad))


class TestPiecewiseStrategy:
    def test_branches(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        below = strat.cutoff * 0.9
        above = strat.cutoff * 1.1
        assert strat.bid(below) == pytest.approx(curve.bid(below))
        assert strat.bid(above) == pytest.approx(profile.gamma * above)

    def test_jump_up_only(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        eps = 1e-9 * strat.cutoff
        low = strat.bid(strat.cutoff - eps)
        high = strat.bid(strat.cutoff + eps)
        assert high >= low

    def test_monotone_bid_function(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.3, curve=curve)
        vs = np.geomspace(curve.v_min, curve.v_max, 2000)
        bids = strat.bid(vs)
        assert np.all(np.diff(bids) >= -1e-12)

    def test_pure_curve_when_cutoff_infinite(self, solved):
        profile, curve = solved(n=10, rho=0.4, gamma=0.05, sigma=0.5)
        strat = solve_strategy(profile, 0.0, curve=curve)
        assert strat.cutoff == math.inf
        vs = np.geomspace(curve.v_min, curve.v_max, 11)
        np.testing.assert_allclose(strat.bid(vs), curve.bid(vs), rtol=1e-12)

    def test_safe_bid_dominates_at_cutoff(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.25, curve=curve)
        assert profile.gamma * strat.cutoff >= curve.bid(strat.cutoff) - 1e-12

    def test_rejects_downward_jump(self, flagship):
        _, curve = flagship
        v_mid = float(np.exp(0.5 * (np.log(curve.v_min) + np.log(curve.v_max))))
        with pytest.raises(SolverError):
            PiecewiseStrategy(curve=curve, cutoff=v_mid, gamma=0.001, epsilon=0.2)

    @staticmethod
    def _where_rule(strat, v):
        # the rule written with both branches evaluated everywhere
        v = np.asarray(v, dtype=float)
        return np.where(v >= strat.cutoff, strat.gamma * v, strat.curve.bid(v))

    @pytest.mark.parametrize("cutoff_kind", ["finite", "inf"])
    def test_bid_matches_where_rule(self, flagship, cutoff_kind):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        if cutoff_kind == "inf":
            strat = PiecewiseStrategy(curve=curve, cutoff=math.inf,
                                      gamma=profile.gamma, epsilon=0.2)
        else:
            assert math.isfinite(strat.cutoff)
        c = strat.cutoff if math.isfinite(strat.cutoff) else curve.v_max
        vs = np.concatenate([np.geomspace(curve.v_min / 10, 100 * c, 997),
                             [c, np.nextafter(c, 0.0), np.nextafter(c, math.inf)]])
        for v in (vs, vs.reshape(-1, 5)):
            np.testing.assert_array_equal(strat.bid(v), self._where_rule(strat, v))
        empty = strat.bid(np.empty(0))
        assert empty.shape == (0,)

    def test_scalar_in_float_out(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        for v in (0.5 * strat.cutoff, 2.0 * strat.cutoff, np.float64(strat.cutoff)):
            out = strat.bid(v)
            assert type(out) is float
            assert out == self._where_rule(strat, v)

    @pytest.mark.parametrize("bad", [0.0, -1.0, [0.0], [1e9, -3.0]])
    def test_nonpositive_value_raises(self, flagship, bad):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        with pytest.raises(DomainError):
            strat.bid(bad)

    def test_curve_sees_only_values_below_cutoff(self, flagship, monkeypatch):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        seen = []
        original = BidCurve.bid

        def counting(self, v):
            seen.append(np.array(v, dtype=float))
            return original(self, v)

        monkeypatch.setattr(BidCurve, "bid", counting)
        vs = strat.cutoff * np.geomspace(0.1, 10.0, 101)
        strat.bid(vs)
        np.testing.assert_array_equal(np.concatenate(seen), vs[vs < strat.cutoff])
        seen.clear()
        strat.bid(vs[vs >= strat.cutoff])
        assert sum(s.size for s in seen) == 0

    def test_truncation_mass(self, flagship):
        profile, curve = flagship
        strat = solve_strategy(profile, 0.2, curve=curve)
        mass = truncation_mass(strat, profile)
        assert 0.0 < mass["marginal_mass_above_cutoff"] < 1.0
        assert mass["top_mass_above_cutoff"] >= mass["marginal_mass_above_cutoff"]
        free = solve_strategy(make_profile(gamma=1.0), 0.5, curve=curve)
        assert truncation_mass(free, make_profile(gamma=1.0)) == {
            "marginal_mass_above_cutoff": 0.0,
            "top_mass_above_cutoff": 0.0,
        }
