"""Piecewise bidding equilibrium: risky bid curve, indifference level, cutoff.

The risky-regime bid function solves

    b'(v) = r(v) * (v - b(v)),    r(v) = h(v|v) / H(v|v)

forward from a left boundary anchored at the independent-values closed form
(the affiliation correction is negligible that deep in the left tail, and the
equation contracts any boundary error going right).  The defection rate never
enters the solver: scaling the risky payoff by (1 - eps) does not move its
argmax, so the curve is shared by every eps.

A searcher deterring the builder bids gamma * v, the cheapest bid that makes
frontrunning unprofitable.  The indifference defection rate at valuation v is

    ebar(v) = (gamma * v - b(v)) / (v - b(v)),

and the piecewise strategy bids the curve below the cutoff and gamma * v at
and above it.  For log-normal values, proportional shading (v - b(v)) / v
*rises* with v on any realistic grid, so ebar is strictly increasing; the
cutoff solver checks strict monotonicity of ebar wherever the threat binds
(either direction) and refuses to pick among multiple roots.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.special import log_ndtr
from scipy.stats import norm

from .errors import (
    BoundaryError,
    CutoffMonotonicityError,
    DomainError,
    ParameterError,
    SolverError,
    TailUnderflowError,
)
from .profiles import TypeProfile
from .values import rival_max_hazard_ratio

DEFAULT_NODES = 2000
DEFAULT_Q_LO = 1e-4
# grid top covers the 1 - 1e-9 quantile of the max via the union bound
DEFAULT_TOP_TAIL = 1e-9

# explicit RK4 needs h * v * r(v) comfortably inside its stability region
_STABILITY_LIMIT = 2.0


@dataclass(frozen=True)
class GridSpec:
    v_min: float
    v_max: float
    nodes: int

    def __post_init__(self):
        if not (0.0 < self.v_min < self.v_max):
            raise ParameterError("need 0 < v_min < v_max")
        if self.nodes < 200:
            raise ParameterError("need at least 200 grid nodes")


def default_grid(profile: TypeProfile, nodes: int = DEFAULT_NODES) -> GridSpec:
    """Log grid from the 1e-4 marginal quantile to beyond the max-value tail.

    For large bidder counts the left edge is lifted so the rival-max CDF
    F(v)^(n-1) stays representable; the iid bound is conservative under
    affiliation, which only raises the conditional CDF at low own values.
    """
    profile.require_dispersion()
    q_lo = max(DEFAULT_Q_LO, math.exp(-600.0 / (profile.n - 1)))
    v_min = math.exp(profile.mu + profile.sigma * norm.ppf(q_lo))
    v_max = math.exp(profile.mu + profile.sigma * norm.isf(DEFAULT_TOP_TAIL / profile.n))
    return GridSpec(v_min=v_min, v_max=v_max, nodes=nodes)


# ---------------------------------------------------------------------------
# bid curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BidCurve:
    """Tabulated risky-regime bid function on a strictly increasing value grid.

    Between nodes the curve is the monotone piecewise-cubic (PCHIP)
    interpolant; outside the grid it is extended linearly through the origin
    at the boundary bid share, which keeps 0 <= bid < v everywhere.
    """

    grid: np.ndarray
    bids: np.ndarray
    _interp: PchipInterpolator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        bids = np.asarray(self.bids, dtype=float)
        if grid.ndim != 1 or grid.shape != bids.shape or grid.size < 2:
            raise ParameterError("grid and bids must be equal-length 1-d arrays")
        if np.any(np.diff(grid) <= 0) or grid[0] <= 0:
            raise ParameterError("grid must be positive and strictly increasing")
        if np.any(bids < 0) or np.any(bids >= grid):
            raise SolverError("bid curve violates 0 <= bid < v")
        if np.any(np.diff(bids) < 0):
            raise SolverError("bid curve must be nondecreasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "bids", bids)
        object.__setattr__(self, "_interp", PchipInterpolator(grid, bids, extrapolate=False))

    @property
    def v_min(self) -> float:
        return float(self.grid[0])

    @property
    def v_max(self) -> float:
        return float(self.grid[-1])

    def bid(self, v):
        """Risky bid at v (interpolated; share-preserving outside the grid)."""
        v = np.asarray(v, dtype=float)
        scalar = v.ndim == 0
        v = np.atleast_1d(v)
        if np.any(v <= 0):
            raise DomainError("v must be positive")
        lo_share = self.bids[0] / self.grid[0]
        hi_share = self.bids[-1] / self.grid[-1]
        out = np.where(
            v < self.grid[0],
            lo_share * v,
            np.where(v > self.grid[-1], hi_share * v,
                     self._interp(np.clip(v, self.grid[0], self.grid[-1]))),
        )
        return float(out[0]) if scalar else out

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("v,beta\n")
        for v, b in zip(self.grid, self.bids):
            buf.write(f"{v:.12g},{b:.12g}\n")
        return buf.getvalue()

    def _json_dict(self) -> dict:
        return {
            "v_min": f"{self.v_min:.12g}",
            "v_max": f"{self.v_max:.12g}",
            "nodes": int(self.grid.size),
            "interpolation": "pchip",
            "grid": [f"{v:.12g}" for v in self.grid],
            "bids": [f"{b:.12g}" for b in self.bids],
        }

    def to_json(self) -> str:
        return json.dumps(self._json_dict(), indent=1)

    @classmethod
    def from_csv(cls, text: str) -> "BidCurve":
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        arr = np.array([[float(a), float(b)] for a, b in rows])
        return cls(grid=arr[:, 0], bids=arr[:, 1])


# ---------------------------------------------------------------------------
# independent-values closed form (left boundary anchor and test oracle)
# ---------------------------------------------------------------------------

def ipv_bid(v, n: int, mu: float, sigma: float):
    """First-price bid for iid LogNormal(mu, sigma^2) values.

    b(v) = v - int_0^v F(y)^(n-1) dy / F(v)^(n-1), integrated with the
    exponent normalized at v so the deep left tail never underflows.
    """
    if sigma <= 0:
        raise ParameterError("sigma must be > 0")
    vs = np.atleast_1d(np.asarray(v, dtype=float))
    if np.any(vs <= 0):
        raise DomainError("v must be positive")
    out = np.empty_like(vs)
    for i, vi in enumerate(vs):
        log_gv = (n - 1) * log_ndtr((math.log(vi) - mu) / sigma)

        def shading(y, _log_gv=log_gv):
            if y <= 0:
                return 0.0
            return math.exp((n - 1) * log_ndtr((math.log(y) - mu) / sigma) - _log_gv)

        shade, _ = quad(shading, 0.0, vi, limit=200)
        out[i] = vi - shade
    return float(out[0]) if np.isscalar(v) or np.asarray(v).ndim == 0 else out


# ---------------------------------------------------------------------------
# ODE solver
# ---------------------------------------------------------------------------

def solve_bid_ode(profile: TypeProfile, grid_spec: GridSpec | None = None,
                  boundary_bid: float | None = None) -> BidCurve:
    """Solve the risky-regime bid equation on a log grid.

    Classical RK4 in s = ln v; the node count is raised automatically when
    the left-boundary hazard would put the explicit step outside its
    stability region (large n).  The defection rate plays no role here.

    The left boundary anchors at the independent-values closed form unless
    ``boundary_bid`` overrides it (useful for verifying that boundary error
    contracts away going right).
    """
    profile.require_dispersion()
    spec = grid_spec or default_grid(profile)

    try:
        w_min = spec.v_min * rival_max_hazard_ratio(spec.v_min, profile)
    except TailUnderflowError as exc:
        raise BoundaryError(
            f"hazard underflows at v_min={spec.v_min:g}; choose a larger v_min"
        ) from exc

    nodes = spec.nodes
    span = math.log(spec.v_max / spec.v_min)
    while span / (nodes - 1) * w_min > _STABILITY_LIMIT:
        nodes *= 2
        if nodes > 300_000:
            raise SolverError("grid refinement exceeded 300k nodes; hazard too stiff")

    grid = np.exp(np.linspace(math.log(spec.v_min), math.log(spec.v_max), nodes))
    mids = np.sqrt(grid[:-1] * grid[1:])
    w_all = np.concatenate([grid, mids]) * rival_max_hazard_ratio(
        np.concatenate([grid, mids]), profile
    )
    w_node, w_mid = w_all[:nodes], w_all[nodes:]
    h = span / (nodes - 1)

    bids = np.empty(nodes)
    bids[0] = (ipv_bid(spec.v_min, profile.n, profile.mu, profile.sigma)
               if boundary_bid is None else float(boundary_bid))
    for i in range(nodes - 1):
        b = bids[i]
        k1 = w_node[i] * (grid[i] - b)
        k2 = w_mid[i] * (mids[i] - (b + 0.5 * h * k1))
        k3 = w_mid[i] * (mids[i] - (b + 0.5 * h * k2))
        k4 = w_node[i + 1] * (grid[i + 1] - (b + h * k3))
        bids[i + 1] = b + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return BidCurve(grid=grid, bids=bids)


def ode_residual(curve: BidCurve, profile: TypeProfile) -> np.ndarray:
    """|b' - r(v)(v - b)| at interior nodes, b' by fourth-order differences.

    Independent of the integrator: the derivative is re-estimated from the
    tabulated solution alone.
    """
    g, b = curve.grid, curve.bids
    s = np.log(g)
    h = s[1] - s[0]
    # five-point centered stencil in ln v
    dbds = (b[:-4] - 8 * b[1:-3] + 8 * b[3:-1] - b[4:]) / (12.0 * h)
    v_int = g[2:-2]
    rhs = v_int * rival_max_hazard_ratio(v_int, profile) * (v_int - b[2:-2])
    return np.abs(dbds - rhs)


# ---------------------------------------------------------------------------
# indifference level and cutoff
# ---------------------------------------------------------------------------

def indifference_epsilon(v, curve: BidCurve, gamma: float):
    """Defection rate at which valuation v is indifferent between regimes.

    ebar(v) = (gamma v - b(v)) / (v - b(v)); positive exactly where the
    deterrence bid exceeds the risky bid, and never above gamma.
    """
    if not (0.0 <= gamma <= 1.0):
        raise ParameterError("gamma must be in [0, 1]")
    v_arr = np.atleast_1d(np.asarray(v, dtype=float))
    b = np.atleast_1d(curve.bid(v_arr))
    if np.any(b >= v_arr):
        raise SolverError("corrupt curve: bid >= v inside indifference_epsilon")
    out = (gamma * v_arr - b) / (v_arr - b)
    return float(out[0]) if np.isscalar(v) or np.asarray(v).ndim == 0 else out


def solve_cutoff(curve: BidCurve, gamma: float, epsilon: float) -> float:
    """Valuation at which bidding switches to the deterrence branch.

    Returns the unique root of ebar(v) = epsilon when the level is crossed
    on the grid.  Without a crossing:

      * threat never binds on the grid (gamma v < bid everywhere): +inf,
        the curve is the whole strategy;
      * epsilon below ebar everywhere: +inf, deterrence is never worth its
        premium and everyone stays on the risky curve;
      * epsilon at or above ebar everywhere it binds: the lower edge of the
        binding region (v_min when the threat binds from the first node).

    Raises CutoffMonotonicityError when ebar is not strictly monotone over
    the binding region; a non-unique crossing is never resolved silently.
    """
    if not (0.0 <= epsilon < 1.0):
        raise ParameterError("epsilon must be in [0, 1)")
    if not (0.0 <= gamma <= 1.0):
        raise ParameterError("gamma must be in [0, 1]")

    grid = curve.grid
    ebar = indifference_epsilon(grid, curve, gamma)
    binding = ebar > 0.0

    if np.any(binding):
        idx = np.flatnonzero(binding)
        steps = np.diff(ebar[idx[0]: idx[-1] + 1])
        rising, falling = np.any(steps > 0.0), np.any(steps < 0.0)
        if rising and falling:
            j = idx[0] + int(np.argmax(steps) if steps[0] < 0 else np.argmin(steps))
            hi = min(j + 1, grid.size - 1)
            raise CutoffMonotonicityError(
                "indifference level is not monotone on the binding region "
                f"near v in [{grid[j]:.6g}, {grid[hi]:.6g}]",
                interval=(float(grid[j]), float(grid[hi])),
            )

    diff = ebar - epsilon
    sign_change = np.flatnonzero(np.sign(diff[:-1]) * np.sign(diff[1:]) < 0)
    exact = np.flatnonzero(diff == 0.0)

    if sign_change.size + exact.size > 1:
        lo = int(min(sign_change.min() if sign_change.size else grid.size,
                     exact.min() if exact.size else grid.size))
        hi = int(max(sign_change.max() + 1 if sign_change.size else 0,
                     exact.max() if exact.size else 0))
        raise CutoffMonotonicityError(
            "multiple crossings of the indifference level",
            interval=(float(grid[lo]), float(grid[hi])),
        )

    if exact.size:
        return float(grid[exact[0]])
    if sign_change.size:
        i = int(sign_change[0])
        root = brentq(
            lambda x: indifference_epsilon(x, curve, gamma) - epsilon,
            grid[i], grid[i + 1], xtol=1e-13 * grid[i], rtol=8.9e-16,
        )
        if abs(indifference_epsilon(root, curve, gamma) - epsilon) >= 1e-9:
            raise SolverError("cutoff refinement failed to reach 1e-9")
        return float(root)

    if np.all(diff > 0.0):
        # deterrence premium exceeds the defection risk at every valuation
        return math.inf
    # epsilon >= ebar everywhere: deterrence wherever the threat binds
    if not np.any(binding):
        return math.inf
    first = int(np.flatnonzero(binding)[0])
    if first == 0:
        return float(grid[0])
    return float(
        brentq(
            lambda x: indifference_epsilon(x, curve, gamma),
            grid[first - 1], grid[first], xtol=1e-13 * grid[first - 1], rtol=8.9e-16,
        )
    )


# ---------------------------------------------------------------------------
# piecewise strategy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseStrategy:
    """Risky curve below the cutoff, deterrence bid gamma*v at and above it."""

    curve: BidCurve
    cutoff: float
    gamma: float
    epsilon: float

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0):
            raise ParameterError("gamma must be in [0, 1]")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ParameterError("epsilon must be in [0, 1]")
        if not (self.cutoff > 0.0):
            raise ParameterError("cutoff must be positive (or +inf)")
        if math.isfinite(self.cutoff):
            b_star = self.curve.bid(self.cutoff)
            if self.gamma * self.cutoff < b_star - 1e-9 * self.cutoff:
                raise SolverError(
                    "safe bid below risky bid at the cutoff; strategy not monotone"
                )

    def bid(self, v):
        """gamma*v at and above the cutoff, the curve below it.

        Only values below the cutoff reach the curve; NaN and v <= 0 take
        that path too, so the curve's DomainError still fires.
        """
        v_arr = np.asarray(v, dtype=float)
        scalar = v_arr.ndim == 0
        v_arr = np.atleast_1d(v_arr)
        out = self.gamma * v_arr
        risky = ~(v_arr >= self.cutoff)
        out[risky] = self.curve.bid(v_arr[risky])
        return float(out[0]) if scalar else out

    def to_json(self) -> str:
        return json.dumps(
            {
                "gamma": self.gamma,
                "epsilon": self.epsilon,
                "cutoff": "inf" if math.isinf(self.cutoff) else f"{self.cutoff:.12g}",
                "curve": self.curve._json_dict(),
            },
            indent=1,
        )


def solve_strategy(profile: TypeProfile, epsilon: float,
                   curve: BidCurve | None = None) -> PiecewiseStrategy:
    """Solve (or reuse) the curve and attach the cutoff for ``epsilon``."""
    curve = curve if curve is not None else solve_bid_ode(profile)
    cutoff = solve_cutoff(curve, profile.gamma, epsilon)
    return PiecewiseStrategy(curve=curve, cutoff=cutoff,
                             gamma=profile.gamma, epsilon=epsilon)


def equilibrium_bid(v, strategy: PiecewiseStrategy):
    """Bid prescribed by the piecewise strategy at valuation v."""
    return strategy.bid(v)


def truncation_mass(strategy: PiecewiseStrategy, profile: TypeProfile) -> dict:
    """Probability mass above the cutoff (marginal and for the max).

    The risky curve ignores that rivals above the cutoff leave the curve;
    this reports how much mass sits up there so users can judge the
    approximation.  Small mass means the distortion is second order.
    """
    from .values import top_value_sf

    if math.isinf(strategy.cutoff):
        return {"marginal_mass_above_cutoff": 0.0, "top_mass_above_cutoff": 0.0}
    z = (math.log(strategy.cutoff) - profile.mu) / profile.sigma
    return {
        "marginal_mass_above_cutoff": float(norm.sf(z)),
        "top_mass_above_cutoff": float(top_value_sf(strategy.cutoff, profile)),
    }
