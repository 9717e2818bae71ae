"""Builder-side objective: expected revenue, its derivative, and the best
defection rate.

Below the cutoff the builder collects the risky bid b when honoring and
max(b, gamma*v) when defecting (evaluated pointwise, never assumed), so at
defection rate eps it collects b + eps * (gamma*v - b)^+.  Against the
density f1 of the highest valuation the risky branch is ``bid + eps * gap``,
with bid and gap the integrals of b and (gamma*v - b)^+ over (0, v*).  At and
above the cutoff the deterrence bid gamma*v leaves nothing to frontrun, so
that branch is gamma * E[v_(1) 1{v_(1) > v*}], in closed form.  The
derivative in eps is ``gap`` plus the boundary term of a moving cutoff, and
honest first-price revenue is ``bid``.  The Monte Carlo engine in
``simulate`` implements the game mechanics independently, and the acceptance
suite requires the two to agree.

Where the threat binds is decided in ``equilibrium.IndifferenceLevel``: the
cutoffs, the crossings of gamma*v and the bid, the slope of the indifference
level and the regime all come from it, and this module only integrates.
Neither integrand depends on eps or on the cutoff, so both are tabulated
once per (curve, profile) in a panel table over s = ln v: a 4-node
Gauss-Legendre rule on every panel of the curve's own grid and on 60 panels
over the 12 ln-units below it, with panels split at every crossing of
gamma*v and the bid and at the cap (below).  The table stores cumulative
panel sums, so a cutoff costs one ``searchsorted`` and one partial panel.  A
sweep builds one indifference level and one table for all its rates.

Without a finite cutoff the integrals run to the 1 - 1e-8 quantile of the
max-value distribution (the cap) and both tails beyond it are added
analytically with the bid frozen there, a sub-1e-7 relative approximation.
The same nodes must reproduce E[v_(1) 1{v_(1) <= cap}], known in closed form,
to 1e-9 relative, or the table raises ``SolverError``; the check costs no
density evaluations of its own.
``RevenueProfile`` holds numbers; ``cli.py`` writes its files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolationError,
    ConsistencyError,
    DegenerateCutoffError,
    ParameterError,
    SolverError,
)
from .equilibrium import BidCurve, IndifferenceLevel, PiecewiseStrategy, \
    indifference_epsilon, solve_bid_ode
from .profiles import TypeProfile
from .values import (
    top_value_density,
    top_value_quantile,
    top_value_sf,
    top_value_tail_mean,
)

DEFAULT_EPSILON_GRID = tuple(round(0.05 * k, 2) for k in range(20)) + (0.99,)

_TAIL_Q = 1.0 - 1e-8
_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)
# panels per ln-unit below the grid (and above it, should the cap lie beyond)
_EDGE_PANELS_PER_UNIT = 5.0
_LEFT_SPAN = 12.0
_CHECK_RTOL = 1e-9


def _check_consistent(epsilon, strategy, profile):
    if abs(strategy.epsilon - epsilon) > 1e-12:
        raise ConsistencyError(
            f"strategy solved for epsilon={strategy.epsilon}, got {epsilon}"
        )
    if abs(strategy.gamma - profile.gamma) > 1e-12:
        raise ConsistencyError(
            f"strategy gamma={strategy.gamma} does not match profile gamma={profile.gamma}"
        )


def _panel_sums(curve: BidCurve, profile: TypeProfile, lo, hi):
    """Gauss-Legendre sums over the s = ln v panels (lo, hi), shape (3, panels).

    The rows integrate b, (gamma*v - b)^+ and v against f1 (times v, the
    Jacobian of s); one density call covers every node, and bounds its own
    memory by evaluating them in blocks.
    """
    half = 0.5 * (hi - lo)
    s = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_X
    v = np.exp(s).ravel()
    f1v = top_value_density(v, profile) * v
    b = curve.bid(v)
    rows = np.stack([b, np.maximum(profile.gamma * v - b, 0.0), v]) * f1v
    return (rows * (half[:, None] * _GL_W).ravel()).reshape(3, -1, _GL_X.size).sum(axis=2)


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


class _PanelTable:
    """Cumulative panel sums of the bid and gap integrands for one curve.

    The panels split at the level's kinks.  Everything here is free of eps
    and of the cutoff; ``parts`` adds the cutoff-dependent pieces.
    """

    def __init__(self, level: IndifferenceLevel, profile: TypeProfile):
        self.curve = curve = level.curve
        self.profile = profile
        self.cap = cap = top_value_quantile(_TAIL_Q, profile)
        s_min, s_max, s_cap = math.log(curve.v_min), math.log(curve.v_max), math.log(cap)
        pieces = [np.log(curve.grid),
                  np.linspace(s_min - _LEFT_SPAN, s_min,
                              int(_LEFT_SPAN * _EDGE_PANELS_PER_UNIT) + 1),
                  np.log(level.kinks()), [s_cap]]
        if s_cap > s_max:
            pieces.append(np.linspace(s_max, s_cap, 2 + int(
                (s_cap - s_max) * _EDGE_PANELS_PER_UNIT)))
        self.edges = edges = np.unique(np.concatenate(pieces))
        sums = _panel_sums(curve, profile, edges[:-1], edges[1:])
        self.cumulative = np.concatenate([np.zeros((3, 1)), np.cumsum(sums, axis=1)], axis=1)

        mass = self.cumulative[2, np.searchsorted(edges, s_cap)]
        exact = top_value_tail_mean(0.0, profile) - top_value_tail_mean(cap, profile)
        if abs(mass - exact) > _CHECK_RTOL * exact:
            raise SolverError(
                f"revenue panels give E[v_(1); v_(1) <= {cap:.6g}] = {mass:.12g}, "
                f"closed form {exact:.12g} (relative error above {_CHECK_RTOL:g})"
            )
        self.tail = _frozen_tail(profile.gamma, curve.bid(cap), cap, profile)

    def parts(self, v_star: float):
        """(bid, gap, safe) for the strategy with cutoff ``v_star``.

        ``bid`` and ``gap`` integrate b and (gamma*v - b)^+ against f1 below
        the cutoff, plus the frozen tail beyond the cap when the cutoff is
        infinite; ``safe`` is the deterrence branch above a finite cutoff.
        """
        finite = math.isfinite(v_star)
        hi = min(v_star, max(self.cap, self.curve.v_max)) if finite else self.cap
        s_hi = math.log(hi)
        k = int(np.searchsorted(self.edges, s_hi, side="right")) - 1
        if k < 0:
            bid = gap = 0.0
        else:
            bid, gap, _ = self.cumulative[:, k]
            if s_hi > self.edges[k]:
                part_bid, part_gap, _ = _panel_sums(
                    self.curve, self.profile, self.edges[k:k + 1], np.array([s_hi]))[:, 0]
                bid, gap = bid + part_bid, gap + part_gap
        if finite:
            return bid, gap, self.profile.gamma * top_value_tail_mean(hi, self.profile)
        tail_bid, tail_gap = self.tail
        return bid + tail_bid, gap + tail_gap, 0.0


def _derivative(epsilon, strategy: PiecewiseStrategy, level, profile, gap):
    """``gap`` plus the boundary term when the cutoff tracks epsilon."""
    v_star, gamma = strategy.cutoff, level.gamma
    if not math.isfinite(v_star):
        return float(gap)
    ebar_star = indifference_epsilon(v_star, level.curve, gamma)
    if epsilon > 0.0 and abs(ebar_star - epsilon) < 1e-9:
        slope = float(level.slope(v_star))
        # the slope is per unit of money; its elasticity v* slope has no unit
        if abs(slope * v_star) < 1e-12:
            raise DegenerateCutoffError(
                f"indifference level is flat at the cutoff "
                f"(|v* slope|={abs(slope * v_star):.2e})"
            )
        dvstar = 1.0 / slope
        gap -= dvstar * v_star * epsilon * (1.0 - gamma) * top_value_density(v_star, profile)
    return float(gap)


def expected_revenue(epsilon: float, strategy: PiecewiseStrategy,
                     profile: TypeProfile) -> float:
    """Ex-ante builder revenue for the piecewise strategy at ``epsilon``."""
    _check_consistent(epsilon, strategy, profile)
    profile.require_dispersion()
    level = IndifferenceLevel(strategy.curve, profile.gamma)
    bid, gap, safe = _PanelTable(level, profile).parts(strategy.cutoff)
    return float(bid + epsilon * gap + safe)


def first_price_revenue(curve: BidCurve, profile: TypeProfile) -> float:
    """Honest first-price revenue: the risky bid against the top density."""
    profile.require_dispersion()
    bid, _, _ = _PanelTable(IndifferenceLevel(curve, profile.gamma), profile).parts(math.inf)
    return float(bid)


def revenue_derivative(epsilon: float, strategy: PiecewiseStrategy,
                       profile: TypeProfile) -> float:
    """d E[R] / d epsilon.

    The interior term integrates (gamma*v - bid) below the cutoff; the
    boundary term moves the cutoff by implicit differentiation of the
    indifference condition.  When the threat binds nowhere the derivative is
    exactly zero.  A partially binding region below the cutoff violates the
    formula's maintained assumption and raises AssumptionViolationError;
    ``revenue_sweep`` reports the positive-part derivative there (the
    non-binding part contributes nothing, which is the exact Leibniz
    derivative of ``expected_revenue``).
    """
    _check_consistent(epsilon, strategy, profile)
    profile.require_dispersion()
    level = IndifferenceLevel(strategy.curve, profile.gamma)
    if not level.binds:
        return 0.0
    if not level.binds_below(strategy.cutoff):
        raise AssumptionViolationError(
            "frontrunning threat does not bind on all of [v_min, v*); "
            "the closed-form derivative assumption fails (revenue_sweep "
            "reports the positive-part derivative)"
        )

    _, gap, _ = _PanelTable(level, profile).parts(strategy.cutoff)
    return _derivative(epsilon, strategy, level, profile, gap)


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

    @property
    def epsilon_star(self) -> float:
        """The rate of the highest revenue on the grid.  A flat profile
        (revenues within 1e-6 relative) reports the lowest rate, since the
        whole grid is then argmax."""
        revenues = np.asarray(self.revenues, dtype=float)
        level = max(abs(float(revenues.max())), 1e-12)
        flat = revenues.max() - revenues.min() <= 1e-6 * level
        return float(np.asarray(self.epsilons)[0 if flat else int(np.argmax(revenues))])


@dataclass(frozen=True)
class OptimalEpsilon:
    epsilon_star: float
    regime: str
    profile: RevenueProfile


def revenue_sweep(profile: TypeProfile, grid, curve: BidCurve | None = None) -> RevenueProfile:
    """Revenue, derivative, and cutoff at each grid rate (any grid size >= 1).

    The bid curve is shared across the sweep (it never depends on epsilon);
    only the cutoff is re-solved per grid point, on one indifference level
    computed and checked once.  One panel table serves every rate, and each
    distinct cutoff is evaluated on it once.
    Derivatives are the positive-part form, also where the threat binds on
    only part of [v_min, v*) and ``revenue_derivative`` raises.
    """
    eps_grid = np.asarray(grid, dtype=float)
    if eps_grid.ndim != 1 or eps_grid.size < 1:
        raise ParameterError("epsilon grid must be a nonempty 1-d sequence")
    if np.any(~((eps_grid >= 0.0) & (eps_grid < 1.0))) or np.any(np.diff(eps_grid) <= 0):
        raise ParameterError("epsilon grid must be increasing within [0, 1)")

    curve = curve if curve is not None else solve_bid_ode(profile)
    profile.require_dispersion()
    level = IndifferenceLevel(curve, profile.gamma)
    table = _PanelTable(level, profile)
    parts = {}  # cutoff -> (bid, gap, safe)
    revenues, derivatives, cutoffs = [], [], []
    for eps in map(float, eps_grid):
        cut = level.cutoff(eps)
        strat = PiecewiseStrategy(curve=curve, cutoff=cut,
                                  gamma=profile.gamma, epsilon=eps)
        if cut not in parts:
            parts[cut] = table.parts(cut)
        bid, gap, safe = parts[cut]
        revenues.append(bid + eps * gap + safe)
        derivatives.append(_derivative(eps, strat, level, profile, gap) if level.binds
                           else 0.0)
        cutoffs.append(cut)

    return RevenueProfile(
        epsilons=eps_grid,
        revenues=np.array(revenues),
        derivatives=np.array(derivatives),
        cutoffs=np.array(cutoffs),
        regime=level.regime,
    )


def optimal_epsilon(profile: TypeProfile, grid=None,
                    curve: BidCurve | None = None) -> OptimalEpsilon:
    """Grid argmax of expected revenue (``RevenueProfile.epsilon_star``)
    with regime classification, on at least 21 rates."""
    eps_grid = np.asarray(DEFAULT_EPSILON_GRID if grid is None else grid, dtype=float)
    if eps_grid.size < 21:
        raise ParameterError("epsilon grid needs at least 21 points")
    rp = revenue_sweep(profile, eps_grid, curve=curve)
    return OptimalEpsilon(epsilon_star=rp.epsilon_star, regime=rp.regime, profile=rp)
