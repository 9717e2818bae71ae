"""Builder-side objective: expected revenue, its derivative, and the best
defection rate.

Below the cutoff the builder collects the risky bid b when honoring and
max(b, gamma*v) when defecting (evaluated pointwise, never assumed), so at
defection rate eps it collects b + eps * (gamma*v - b)^+.  Against the
density f1 of the highest valuation the risky branch is ``bid + eps * gap``,
with bid and gap the integrals of b and (gamma*v - b)^+ over (0, v*); neither
depends on eps, so a sweep computes them once per distinct cutoff.  At and
above the cutoff the deterrence bid gamma*v leaves nothing to frontrun, so
that branch is gamma * E[v_(1) 1{v_(1) > v*}], in closed form.  The
derivative in eps is ``gap`` plus the boundary term of a moving cutoff, and
honest first-price revenue is ``bid``.  The Monte Carlo engine in
``simulate`` implements the game mechanics independently, and the acceptance
suite requires the two to agree.

Without a finite cutoff the quadrature runs to the 1 - 1e-8 quantile of the
max-value distribution and both tails beyond it are added analytically with
the bid frozen there, a sub-1e-7 relative approximation.  Each quadrature's
error estimate must meet the tolerance it asked for.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .errors import (
    AssumptionViolationError,
    ConsistencyError,
    DegenerateCutoffError,
    ParameterError,
    SolverError,
)
from .equilibrium import BidCurve, PiecewiseStrategy, indifference_epsilon, \
    solve_bid_ode, solve_cutoff
from .profiles import TypeProfile
from .values import (
    top_value_density,
    top_value_quantile,
    top_value_sf,
    top_value_tail_mean,
)

DEFAULT_EPSILON_GRID = tuple(round(0.05 * k, 2) for k in range(20)) + (0.99,)

_TAIL_Q = 1.0 - 1e-8
_EPSREL = 1e-10


def _check_consistent(epsilon, strategy, profile):
    if abs(strategy.epsilon - epsilon) > 1e-12:
        raise ConsistencyError(
            f"strategy solved for epsilon={strategy.epsilon}, got {epsilon}"
        )
    if abs(strategy.gamma - profile.gamma) > 1e-12:
        raise ConsistencyError(
            f"strategy gamma={strategy.gamma} does not match profile gamma={profile.gamma}"
        )


def _binding_kink(curve: BidCurve, gamma: float):
    """Smallest v where gamma*v crosses the risky bid, if it crosses on-grid."""
    diff = gamma * curve.grid - curve.bids
    s = np.flatnonzero(np.sign(diff[:-1]) * np.sign(diff[1:]) < 0)
    if not s.size:
        return None
    i = int(s[0])
    return float(brentq(lambda v: gamma * v - curve.bid(v),
                        curve.grid[i], curve.grid[i + 1]))


def _quad(integrand, hi, points, epsabs):
    """Adaptive quadrature on (0, hi) whose error estimate must meet its tolerance."""
    val, err = quad(integrand, 0.0, hi, points=points, limit=400,
                    epsabs=epsabs, epsrel=_EPSREL)
    tol = max(epsabs, _EPSREL * abs(val))
    if err > tol:
        raise SolverError(
            f"revenue quadrature on (0, {hi:.6g}) has error estimate {err:.3g} "
            f"above its tolerance {tol:.3g}"
        )
    return val


def _frozen_tail(gamma, b_cap, cap, profile):
    """(bid, gap) integrals beyond the cap with the bid frozen at ``b_cap``.

    Exact in f1; only the bid's variation beyond the cap is neglected.
    """
    bid = b_cap * top_value_sf(cap, profile)
    if gamma == 0.0:
        return bid, 0.0
    # (gamma*v - b_cap)^+ is positive beyond the crossing b_cap/gamma
    w = max(cap, b_cap / gamma)
    return bid, gamma * top_value_tail_mean(w, profile) - b_cap * top_value_sf(w, profile)


def _risky_parts(curve: BidCurve, profile: TypeProfile, v_star: float):
    """(bid, gap, safe) for the strategy with cutoff ``v_star``.

    ``bid`` and ``gap`` integrate b and (gamma*v - b)^+ against f1 below the
    cutoff, plus the frozen tail beyond the cap when the cutoff is infinite;
    ``safe`` is the deterrence branch above a finite cutoff.
    """
    gamma = profile.gamma
    cap = top_value_quantile(_TAIL_Q, profile)
    if math.isfinite(v_star):
        cap = max(cap, min(v_star, curve.v_max))
    hi = min(v_star, cap)
    pts = sorted({p for p in (_binding_kink(curve, gamma), curve.v_min, curve.v_min * 30)
                  if p is not None and 0.0 < p < hi}) or None
    epsabs = 1e-9 * max(1.0, gamma * top_value_tail_mean(0.0, profile))

    def bid_integrand(v):
        return curve.bid(v) * top_value_density(v, profile) if v > 0.0 else 0.0

    def gap_integrand(v):
        if v <= 0.0:
            return 0.0
        return max(gamma * v - curve.bid(v), 0.0) * top_value_density(v, profile)

    bid = _quad(bid_integrand, hi, pts, epsabs)
    gap = _quad(gap_integrand, hi, pts, epsabs)
    if math.isfinite(v_star):
        return bid, gap, gamma * top_value_tail_mean(hi, profile)
    tail_bid, tail_gap = _frozen_tail(gamma, curve.bid(cap), cap, profile)
    return bid + tail_bid, gap + tail_gap, 0.0


def _derivative(epsilon, strategy: PiecewiseStrategy, profile: TypeProfile, gap):
    """``gap`` plus the boundary term when the cutoff tracks epsilon."""
    v_star = strategy.cutoff
    if not math.isfinite(v_star):
        return float(gap)
    curve, gamma = strategy.curve, profile.gamma
    ebar_star = indifference_epsilon(v_star, curve, gamma)
    if epsilon > 0.0 and abs(ebar_star - epsilon) < 1e-9:
        ebar_grid = indifference_epsilon(curve.grid, curve, gamma)
        slope = float(PchipInterpolator(curve.grid, ebar_grid).derivative()(v_star))
        if abs(slope) < 1e-12:
            raise DegenerateCutoffError(
                f"indifference level is flat at the cutoff (|slope|={abs(slope):.2e})"
            )
        dvstar = 1.0 / slope
        gap -= dvstar * v_star * epsilon * (1.0 - gamma) * top_value_density(v_star, profile)
    return float(gap)


def expected_revenue(epsilon: float, strategy: PiecewiseStrategy,
                     profile: TypeProfile) -> float:
    """Ex-ante builder revenue for the piecewise strategy at ``epsilon``."""
    _check_consistent(epsilon, strategy, profile)
    profile.require_dispersion()
    bid, gap, safe = _risky_parts(strategy.curve, profile, strategy.cutoff)
    return float(bid + epsilon * gap + safe)


def first_price_revenue(curve: BidCurve, profile: TypeProfile) -> float:
    """Honest first-price revenue: the risky bid against the top density."""
    profile.require_dispersion()
    bid, _, _ = _risky_parts(curve, profile, math.inf)
    return float(bid)


def revenue_derivative(epsilon: float, strategy: PiecewiseStrategy,
                       profile: TypeProfile, *, require_binding: bool = True) -> float:
    """d E[R] / d epsilon.

    The interior term integrates (gamma*v - bid) below the cutoff; the
    boundary term moves the cutoff by implicit differentiation of the
    indifference condition.  When the threat binds nowhere the derivative is
    exactly zero.  A partially binding region below the cutoff violates the
    formula's maintained assumption: with ``require_binding`` (default) that
    raises, otherwise the non-binding part simply contributes nothing (the
    positive part is integrated, which is the exact Leibniz derivative of
    ``expected_revenue``).
    """
    _check_consistent(epsilon, strategy, profile)
    profile.require_dispersion()
    curve = strategy.curve

    gap = profile.gamma * curve.grid - curve.bids
    if np.all(gap <= 0.0):
        return 0.0

    below = curve.grid < strategy.cutoff
    if require_binding and np.any(gap[below] <= 0.0):
        raise AssumptionViolationError(
            "frontrunning threat does not bind on all of [v_min, v*); "
            "the closed-form derivative assumption fails (pass "
            "require_binding=False for the positive-part derivative)"
        )

    _, gap_integral, _ = _risky_parts(curve, profile, strategy.cutoff)
    return _derivative(epsilon, strategy, profile, gap_integral)


# ---------------------------------------------------------------------------
# sweep over defection rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RevenueProfile:
    """Revenue, analytic derivative, and cutoff per defection rate."""

    epsilons: np.ndarray
    revenues: np.ndarray
    derivatives: np.ndarray
    cutoffs: np.ndarray
    regime: str

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        if np.any(np.diff(eps) <= 0):
            raise ParameterError("epsilons must be strictly increasing")
        for name in ("revenues", "derivatives", "cutoffs"):
            if np.asarray(getattr(self, name)).shape != eps.shape:
                raise ParameterError(f"{name} length differs from epsilons")
        if self.regime not in ("high_extractability", "low_extractability", "mixed"):
            raise ParameterError(f"unknown regime {self.regime!r}")
        if self.regime == "low_extractability":
            level = max(abs(float(np.max(self.revenues))), 1e-12)
            if np.any(np.abs(self.derivatives) > 1e-6 * level):
                raise ParameterError(
                    "low-extractability profile must have vanishing derivatives"
                )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("epsilon,revenue,derivative,cutoff\n")
        for e, r, d, c in zip(self.epsilons, self.revenues,
                              self.derivatives, self.cutoffs):
            cut = "inf" if math.isinf(c) else f"{c:.12g}"
            buf.write(f"{e:.12g},{r:.12g},{d:.12g},{cut}\n")
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "regime": self.regime,
                "epsilons": [float(e) for e in self.epsilons],
                "revenues": [float(r) for r in self.revenues],
                "derivatives": [float(d) for d in self.derivatives],
                "cutoffs": ["inf" if math.isinf(c) else float(c) for c in self.cutoffs],
            },
            indent=1,
        )


@dataclass(frozen=True)
class OptimalEpsilon:
    epsilon_star: float
    regime: str
    profile: RevenueProfile


def classify_regime(curve: BidCurve, gamma: float) -> str:
    """Sign pattern of gamma*v - bid over the working support."""
    gap = gamma * curve.grid - curve.bids
    if np.all(gap > 0.0):
        return "high_extractability"
    if np.all(gap < 0.0):
        return "low_extractability"
    return "mixed"


def revenue_sweep(profile: TypeProfile, grid, curve: BidCurve | None = None) -> RevenueProfile:
    """Revenue, derivative, and cutoff at each grid rate (any grid size >= 1).

    The bid curve is shared across the sweep (it never depends on epsilon);
    only the cutoff is re-solved per grid point, and the integrals are
    computed once per distinct cutoff.  Derivatives are the positive-part
    form (``require_binding=False``).
    """
    eps_grid = np.asarray(grid, dtype=float)
    if eps_grid.ndim != 1 or eps_grid.size < 1:
        raise ParameterError("epsilon grid must be a nonempty 1-d sequence")
    if np.any((eps_grid < 0.0) | (eps_grid >= 1.0)) or np.any(np.diff(eps_grid) <= 0):
        raise ParameterError("epsilon grid must be increasing within [0, 1)")

    curve = curve if curve is not None else solve_bid_ode(profile)
    profile.require_dispersion()
    binds = np.any(profile.gamma * curve.grid - curve.bids > 0.0)
    parts = {}  # cutoff -> (bid, gap, safe)
    revenues, derivatives, cutoffs = [], [], []
    for eps in map(float, eps_grid):
        cut = solve_cutoff(curve, profile.gamma, eps)
        strat = PiecewiseStrategy(curve=curve, cutoff=cut,
                                  gamma=profile.gamma, epsilon=eps)
        if cut not in parts:
            parts[cut] = _risky_parts(curve, profile, cut)
        bid, gap, safe = parts[cut]
        revenues.append(bid + eps * gap + safe)
        derivatives.append(_derivative(eps, strat, profile, gap) if binds else 0.0)
        cutoffs.append(cut)

    return RevenueProfile(
        epsilons=eps_grid,
        revenues=np.array(revenues),
        derivatives=np.array(derivatives),
        cutoffs=np.array(cutoffs),
        regime=classify_regime(curve, profile.gamma),
    )


def optimal_epsilon(profile: TypeProfile, grid=None,
                    curve: BidCurve | None = None) -> OptimalEpsilon:
    """Grid argmax of expected revenue with regime classification.

    A flat profile reports the lowest grid point as the maximizer, since the
    whole grid is then argmax.
    """
    eps_grid = np.asarray(DEFAULT_EPSILON_GRID if grid is None else grid, dtype=float)
    if eps_grid.size < 21:
        raise ParameterError("epsilon grid needs at least 21 points")
    rp = revenue_sweep(profile, eps_grid, curve=curve)
    revenues = rp.revenues
    level = max(abs(float(revenues.max())), 1e-12)
    if revenues.max() - revenues.min() <= 1e-6 * level:
        star = float(eps_grid[0])
    else:
        star = float(eps_grid[int(np.argmax(revenues))])
    return OptimalEpsilon(epsilon_star=star, regime=rp.regime, profile=rp)
