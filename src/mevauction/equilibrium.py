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
and above it.  The threat binds exactly where ebar > 0, and
``IndifferenceLevel`` alone decides where: the cutoffs, the kinks where
gamma * v crosses the bid, the slope of ebar and the regime (``revenue``
reads them and only integrates).  For log-normal values, proportional
shading (v - b(v)) / v *rises* with v on any realistic grid, so ebar is
strictly increasing; before its first cutoff the level checks strict
monotonicity of ebar wherever the threat binds (either direction), and it
refuses to pick among multiple roots.
The curve and the strategy hold numbers; ``cli.py`` writes their files.

Between grid nodes the curve and ebar's slope are the monotone cubic Hermite
interpolant of Fritsch and Carlson (1980), written here in numpy so that it
matches scipy's ``PchipInterpolator`` bit for bit; roots come from
``values._brentq``, a port of scipy's ``brentq``.  From scipy the module
uses only ``scipy.special`` (the normal CDF, its logarithm and inverse), and
only through ``values._special``, which imports it at its first call: the
grid, the boundary bid and the truncation mass load it, importing the
module does not.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BoundaryError,
    CutoffMonotonicityError,
    ParameterError,
    SolverError,
    TailUnderflowError,
)
from .profiles import TypeProfile
from .values import (
    _brentq,
    _in_blocks,
    _positive,
    _special,
    rival_max_hazard_ratio,
    top_value_sf,
)

DEFAULT_NODES = 2000
DEFAULT_Q_LO = 1e-4
# grid top covers the 1 - 1e-9 quantile of the max via the union bound
DEFAULT_TOP_TAIL = 1e-9

# explicit RK4 needs h * v * r(v) comfortably inside its stability region
_STABILITY_LIMIT = 2.0

_CORRUPT_CURVE = "corrupt curve: bid >= v inside indifference_epsilon"


def _ipv_rule():
    """ipv_bid's nodes and weights in t = ln v - ln y: 24 Gauss-Legendre
    panels of 20 nodes, the first [0, 1e-4], the rest geometric up to t = 60
    (the integrand is below e^-t, and e^-60 < 1e-26)."""
    x, w = np.polynomial.legendre.leggauss(20)
    edges = np.concatenate([[0.0], np.geomspace(1e-4, 60.0, 24)])
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


_IPV_T, _IPV_W = _ipv_rule()


@dataclass(frozen=True)
class GridSpec:
    v_min: float
    v_max: float
    nodes: int

    def __post_init__(self):
        if not (0.0 < self.v_min < self.v_max < math.inf):
            raise ParameterError("need 0 < v_min < v_max < inf")
        if self.nodes < 200:
            raise ParameterError("need at least 200 grid nodes")


def default_grid(profile: TypeProfile, nodes: int = DEFAULT_NODES) -> GridSpec:
    """Log grid from the 1e-4 marginal quantile to beyond the max-value tail.

    For large bidder counts the left edge is lifted so the rival-max CDF
    F(v)^(n-1) stays representable; the iid bound is conservative under
    affiliation, which only raises the conditional CDF at low own values.
    """
    q_lo = max(DEFAULT_Q_LO, math.exp(-600.0 / (profile.n - 1)))
    v_min = math.exp(profile.mu + profile.sigma * _special.ndtri(q_lo))
    v_max = math.exp(profile.mu - profile.sigma * _special.ndtri(DEFAULT_TOP_TAIL / profile.n))
    return GridSpec(v_min=v_min, v_max=v_max, nodes=nodes)


# ---------------------------------------------------------------------------
# monotone cubic Hermite interpolation (PCHIP)
# ---------------------------------------------------------------------------

def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end, kept shape preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x, y):
    """Coefficients, shape (4, len(x) - 1), of the PCHIP through (x, y).

    Fritsch-Carlson slopes: zero where the data turn or are flat, else the
    weighted harmonic mean of the two secant slopes, and Moler's one-sided
    rule at the ends.  Row k multiplies (v - x[i])^(3 - k) on interval i.
    Every operation is scipy's (``PchipInterpolator``, ``CubicHermiteSpline``),
    in its order, so the coefficients agree bit for bit.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.empty_like(y)
    if x.size == 2:
        d[:] = m[0]
    else:
        sign = np.sign(m)
        flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        # a zero secant is flagged flat; one below about 1e-304 overflows
        # w / m to inf, and 1 / inf = 0 is the harmonic mean's limit
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def _ppoly(x, coef, v):
    """The piecewise polynomial ``coef`` on breakpoints ``x``, at ``v``.

    The end pieces extend beyond the grid.  The sum runs from the constant
    term up, with powers of s = v - x[i] by repeated products, as scipy's
    ``PPoly`` evaluates; Horner's rule would move the last bits.  The binary
    search dominates the cost, as it does in scipy's compiled loop.
    """
    i = np.clip(np.searchsorted(x, v, "right") - 1, 0, x.size - 2)
    s = v - x[i]
    out, power = 0.0 + coef[-1][i], s
    for k in range(coef.shape[0] - 2, -1, -1):
        out += coef[k][i] * power
        if k:
            power = power * s
    return out


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
    _coef: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_coef", _pchip(grid, bids))

    @property
    def v_min(self) -> float:
        return float(self.grid[0])

    @property
    def v_max(self) -> float:
        return float(self.grid[-1])

    def bid(self, v):
        """Risky bid at v (interpolated; share-preserving outside the grid)."""
        v, scalar = _positive("v", v)
        lo_share = self.bids[0] / self.grid[0]
        hi_share = self.bids[-1] / self.grid[-1]
        out = np.where(
            v < self.grid[0],
            lo_share * v,
            np.where(v > self.grid[-1], hi_share * v,
                     _ppoly(self.grid, self._coef, np.clip(v, self.grid[0], self.grid[-1]))),
        )
        return float(out[0]) if scalar else out

    @cached_property
    def _floats(self):
        """The grid and the four coefficient rows, copied byte for byte into
        arrays of doubles (lists of floats would take four times the memory),
        and the two end shares."""
        return (*(array("d", row.tobytes()) for row in (self.grid, *self._coef)),
                float(self.bids[0] / self.grid[0]), float(self.bids[-1] / self.grid[-1]))

    def _bid_at(self, v: float) -> float:
        """``bid`` at one positive finite float, on Python floats: its and
        ``_ppoly``'s IEEE operations in their order, at a small fraction of
        their per-call cost."""
        grid, c0, c1, c2, c3, lo_share, hi_share = self._floats
        if v < grid[0]:
            return lo_share * v
        if v > grid[-1]:
            return hi_share * v
        i = min(max(bisect_right(grid, v) - 1, 0), len(grid) - 2)
        s = v - grid[i]
        b = 0.0 + c3[i]
        b += c2[i] * s
        power = s * s
        b += c1[i] * power
        power = power * s
        b += c0[i] * power
        return b

    def _indifference(self, v: float, gamma: float) -> float:
        """``indifference_epsilon`` at one positive finite float, on Python
        floats (``_bid_at``)."""
        b = self._bid_at(v)
        if b >= v:
            raise SolverError(_CORRUPT_CURVE)
        return (gamma * v - b) / (v - b)

# ---------------------------------------------------------------------------
# independent-values closed form (left boundary anchor and test oracle)
# ---------------------------------------------------------------------------

def ipv_bid(v, n: int, mu: float, sigma: float):
    """First-price bid for iid LogNormal(mu, sigma^2) values.

    b(v) = v - int_0^v F(y)^(n-1) dy / F(v)^(n-1).  In t = ln v - ln y the
    shading is v int_0^inf e^-t (F(v e^-t) / F(v))^(n-1) dt, with the ratio
    taken in logs so the deep left tail never underflows.  A fixed rule of
    24 Gauss-Legendre panels (``_ipv_rule``) integrates it for a block of
    own values at a time, split over the usable CPUs (``values._in_blocks``),
    so memory stays bounded in the size of ``v``; each thread applies the
    row and node terms one row at a time, so it takes no numpy broadcast
    buffer.  A 40-digit mpmath oracle in the tests puts its relative error
    near 1e-14.
    """
    if sigma <= 0:
        raise ParameterError("sigma must be > 0")
    vs, scalar = _positive("v", v)
    out = _in_blocks(lambda vb: _ipv_rows(vb, n, mu, sigma), vs)
    return float(out[0]) if scalar else out


def _ipv_rows(v, n, mu, sigma):
    # one (rows, 480) array, updated in place: a 256-row block holds 1 MB.
    # The terms of a row (z) or of a node (_IPV_T, _IPV_W) are applied one
    # row at a time, as scalar and same-shape ufuncs: a broadcasting ufunc
    # over rows of 480 takes a 64 kB buffer per thread (numpy 2.4)
    z = (np.log(v) - mu) / sigma
    t = _IPV_T / sigma
    terms = np.empty((v.size, t.size))
    for row, zk in zip(terms, z):
        np.subtract(zk, t, out=row)
    _special.log_ndtr(terms, out=terms)
    for row, ck in zip(terms, _special.log_ndtr(z)):
        row -= ck
        row *= n - 1
        row -= _IPV_T
    np.exp(terms, out=terms)
    for row in terms:
        row *= _IPV_W
    return v - v * terms.sum(axis=1)


# ---------------------------------------------------------------------------
# ODE solver
# ---------------------------------------------------------------------------

def solve_bid_ode(profile: TypeProfile, grid_spec: GridSpec | None = None) -> BidCurve:
    """Solve the risky-regime bid equation on a log grid.

    Classical RK4 in s = ln v; the node count is raised automatically when
    the left-boundary hazard would put the explicit step outside its
    stability region (large n).  The defection rate plays no role here.

    The left boundary anchors at the independent-values closed form,
    ``ipv_bid(v_min)``; the equation contracts its error going right.
    """
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

    # the loop runs on Python floats: the same IEEE arithmetic as numpy
    # scalars, without their per-operation overhead
    g, m, wn, wm = grid.tolist(), mids.tolist(), w_node.tolist(), w_mid.tolist()
    b = ipv_bid(spec.v_min, profile.n, profile.mu, profile.sigma)
    bids = [b]
    for i in range(nodes - 1):
        k1 = wn[i] * (g[i] - b)
        k2 = wm[i] * (m[i] - (b + 0.5 * h * k1))
        k3 = wm[i] * (m[i] - (b + 0.5 * h * k2))
        k4 = wn[i + 1] * (g[i + 1] - (b + h * k3))
        b = b + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        bids.append(b)

    return BidCurve(grid=grid, bids=np.array(bids))


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
    v_arr, scalar = _positive("v", v)
    b = curve.bid(v_arr)
    if np.any(b >= v_arr):
        raise SolverError(_CORRUPT_CURVE)
    out = (gamma * v_arr - b) / (v_arr - b)
    return float(out[0]) if scalar else out


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
    return IndifferenceLevel(curve, gamma).cutoff(epsilon)


def _crossings(x):
    """Indices i where x changes sign strictly between nodes i and i + 1."""
    return np.flatnonzero(np.sign(x[:-1]) * np.sign(x[1:]) < 0)


class IndifferenceLevel:
    """Where the frontrunning threat binds, for one curve and one gamma.

    ``levels`` is ebar on the curve's grid, evaluated once; every answer
    below reads it, and ``_root`` finds every root between two nodes (a
    cutoff at ebar = eps, a kink at ebar = 0).  The root finder evaluates
    ebar on Python floats (``BidCurve._indifference``), with the same IEEE
    operations as ``indifference_epsilon``, so a root costs no array call.
    Strict monotonicity is checked once, before the first cutoff; the regime
    and kinks need none.
    """

    def __init__(self, curve: BidCurve, gamma: float):
        self.curve, self.gamma = curve, gamma
        self.levels = indifference_epsilon(curve.grid, curve, gamma)

    @property
    def binds(self) -> bool:
        """Whether the threat binds at some grid node."""
        return bool(np.any(self.levels > 0.0))

    @property
    def regime(self) -> str:
        """Sign pattern of ebar (that is, of gamma*v - bid) over the grid."""
        if np.all(self.levels > 0.0):
            return "high_extractability"
        if np.all(self.levels < 0.0):
            return "low_extractability"
        return "mixed"

    def kinks(self) -> list:
        """Every v between grid nodes where gamma*v crosses the risky bid."""
        return [self._root(int(i), 0.0) for i in _crossings(self.levels)]

    @cached_property
    def _slope_coef(self):
        return _pchip(self.curve.grid, self.levels)[:-1] * np.array([[3.0], [2.0], [1.0]])

    def slope(self, v):
        """Derivative of the PCHIP through the levels on the grid, at v."""
        return _ppoly(self.curve.grid, self._slope_coef, v)

    @cached_property
    def _monotone_levels(self):
        """The levels, once checked strictly monotone over the binding region."""
        grid, ebar = self.curve.grid, self.levels
        idx = np.flatnonzero(ebar > 0.0)
        if idx.size:
            steps = np.diff(ebar[idx[0]: idx[-1] + 1])
            if np.any(steps > 0.0) and np.any(steps < 0.0):
                j = idx[0] + int(np.argmax(steps) if steps[0] < 0 else np.argmin(steps))
                hi = min(j + 1, grid.size - 1)
                raise CutoffMonotonicityError(
                    "indifference level is not monotone on the binding region "
                    f"near v in [{grid[j]:.6g}, {grid[hi]:.6g}]",
                    interval=(float(grid[j]), float(grid[hi])),
                )
        return ebar

    def cutoff(self, epsilon: float) -> float:
        """``solve_cutoff`` at ``epsilon``."""
        grid = self.curve.grid
        diff = self._monotone_levels - epsilon
        sign_change = _crossings(diff)
        exact = np.flatnonzero(diff == 0.0)

        if sign_change.size + exact.size > 1:
            nodes = np.concatenate([sign_change, sign_change + 1, exact])
            raise CutoffMonotonicityError(
                "multiple crossings of the indifference level",
                interval=(float(grid[nodes.min()]), float(grid[nodes.max()])),
            )

        if exact.size:
            return float(grid[exact[0]])
        if sign_change.size:
            return self._root(int(sign_change[0]), epsilon)
        if np.all(diff > 0.0):
            # deterrence premium exceeds the defection risk at every valuation
            return math.inf
        # epsilon >= ebar everywhere: deterrence wherever the threat binds
        if not self.binds:
            return math.inf
        first = int(np.argmax(self.levels > 0.0))
        return float(grid[0]) if first == 0 else self._root(first - 1, 0.0)

    def _root(self, i: int, level: float) -> float:
        """The v between grid nodes i and i + 1 where ebar(v) = level."""
        grid, ebar, gamma = self.curve._floats[0], self.curve._indifference, self.gamma
        root = _brentq(lambda x: ebar(x, gamma) - level,
                       grid[i], grid[i + 1], xtol=1e-13 * grid[i], rtol=8.9e-16)
        if abs(ebar(root, gamma) - level) >= 1e-9:
            raise SolverError("cutoff refinement failed to reach 1e-9")
        return root


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
            b_star = self.curve._bid_at(self.cutoff)
            if self.gamma * self.cutoff < b_star - 1e-9 * self.cutoff:
                raise SolverError(
                    "safe bid below risky bid at the cutoff; strategy not monotone"
                )

    def bid(self, v):
        """gamma*v at and above the cutoff, the curve below it.

        Only values below the cutoff reach the curve; a value that is not
        positive and finite raises DomainError.
        """
        v_arr, scalar = _positive("v", v)
        out = self.gamma * v_arr
        risky = v_arr < self.cutoff
        out[risky] = self.curve.bid(v_arr[risky])
        return float(out[0]) if scalar else out


def solve_strategy(profile: TypeProfile, epsilon: float,
                   curve: BidCurve | None = None) -> PiecewiseStrategy:
    """Solve (or reuse) the curve and attach the cutoff for ``epsilon``."""
    curve = curve if curve is not None else solve_bid_ode(profile)
    cutoff = solve_cutoff(curve, profile.gamma, epsilon)
    return PiecewiseStrategy(curve=curve, cutoff=cutoff,
                             gamma=profile.gamma, epsilon=epsilon)


def truncation_mass(strategy: PiecewiseStrategy, profile: TypeProfile) -> dict:
    """Probability mass above the cutoff (marginal and for the max).

    The risky curve ignores that rivals above the cutoff leave the curve;
    this reports how much mass sits up there so users can judge the
    approximation.  Small mass means the distortion is second order.
    """
    if math.isinf(strategy.cutoff):
        return {"marginal_mass_above_cutoff": 0.0, "top_mass_above_cutoff": 0.0}
    z = (math.log(strategy.cutoff) - profile.mu) / profile.sigma
    return {
        "marginal_mass_above_cutoff": float(_special.ndtr(-z)),
        "top_mass_above_cutoff": float(top_value_sf(strategy.cutoff, profile)),
    }
