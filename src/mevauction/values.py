"""Probability primitives of the common-factor value model.

Model
-----
Searcher i receives a latent signal

    z_i = sqrt(rho) * Z + sqrt(1 - rho) * u_i,      Z, u_i ~ iid N(0, 1)

and values the opportunity at v_i = exp(mu + sigma * z_i).  The marginal of
every v_i is LogNormal(mu, sigma^2) for any rho in [0, 1); rho is the pairwise
correlation of signals and carries all the affiliation.  ``affiliated_signal``
is that map; the game engine and the deviation harness draw through it.

Conditioning on the common factor Z makes the v_i independent log-normals
with log-mean mu + sigma*sqrt(rho)*Z and log-sd sigma*sqrt(1-rho).  Every
conditional or order-statistic quantity here is therefore a one-dimensional
integral over Z, evaluated by Gauss-Hermite quadrature:

  * rival_max_cdf:   H(y|v) = E[ F_Z(y)^(n-1) | z_i ],  Z|z_i ~ N(sqrt(rho) z_i, 1-rho)
  * rival_max_hazard_ratio: h(v|v) / H(v|v), the diagonal conditional hazard
  * top_value_density: f1(v) = E[ n f_Z(v) F_Z(v)^(n-1) ] over the prior Z
  * top_value_cdf, top_value_sf: E[ F_Z(v)^n ] and E[ 1 - F_Z(v)^n ]

One kernel serves all five: ``_factor_nodes`` builds the prior or posterior
nodes of Z, and rho = 0 is the rule of one node, Z = 0, of weight one.  The
value distribution spans ten orders of magnitude (sigma around 2.5), so the
tails are summed in log space: log_ndtr per node, then one max-shifted numpy
log-sum (``_log_sum``) that keeps every Gauss-Hermite weight.  A conditional
CDF that underflows 1e-300 raises TailUnderflowError instead of silently
dividing by zero.

Every array-valued integral is evaluated ``_BLOCK`` own values at a time
(``_in_blocks``), so its (values x nodes) temporaries stay near 200 kB, inside
L2, at any input size.  The block is split over the c usable CPUs
(``_usable_cpus``) into sub-blocks of ``_BLOCK // c`` rows, run as c strided
shares on ``_in_order``, the package's one thread pool (``simulate.run_many``
plays its chunks on it too), so at most ``_BLOCK`` rows are in flight at any
CPU count and no thread outlives the call.  Each output row depends only on
its own input row, so neither the blocks nor the threads change any bits.
The tail mean E[v_(1) 1{v_(1) > limit}] is such an integral too: its rows are
the distinct (limit, node) windows of every limit asked for at once
(``_tail_means``).

The normal CDF, its logarithm and its inverse are scipy.special's ``ndtr``,
``log_ndtr`` and ``ndtri``, the package's one use of scipy.  Every call in
the package goes through ``_special``, which imports scipy.special at the
first call, so ``import mevauction`` loads no scipy, and the bundle pipeline
(``empirics``, ``diagnostics``), which calls none of the three, never does.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from importlib import import_module

import numpy as np

from .errors import DomainError, TailUnderflowError
from .profiles import TypeProfile

GH_ORDER = 96
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(GH_ORDER)
_GH_LOGW = np.log(_GH_W) - 0.5 * math.log(math.pi)

_GL_ORDER = 128
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_ORDER)

_LOG_TINY = math.log(1e-300)
_SQRT2 = math.sqrt(2.0)

# iterations before Brent's method gives up (scipy's default)
_BRENT_MAXITER = 100

# own values in flight in a factor integral, over all its threads: a
# (256, 96) temporary is 192 kB
_BLOCK = 256


class _Special:
    """``scipy.special``, imported at the first use of one of its functions.

    The package's one route to scipy: the first read of a function imports
    the module and caches the function on this object, so later reads are
    plain attribute lookups.  ``import_module`` returns the module once it
    is fully loaded (a concurrent first read waits on the import lock), with
    no read of the parent package's attribute.
    """

    def __getattr__(self, name):
        function = getattr(import_module("scipy.special"), name)
        setattr(self, name, function)
        return function


_special = _Special()


def _norm_logpdf(x):
    return -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Brent's root finder
# ---------------------------------------------------------------------------

def _brentq(f, a, b, xtol, rtol):
    """A root of f in [a, b] by Brent's method (Brent 1973, chapter 4).

    A line-for-line port of scipy's ``brentq`` (its C loop and its wrapper's
    errors), so every root, error and message is the same: ValueError for a
    NaN value or f(a), f(b) of one sign, and RuntimeError after
    ``_BRENT_MAXITER`` iterations without convergence.  f(a) or f(b) exactly
    zero returns that end.
    """
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    def negative(x):
        return math.copysign(1.0, x) < 0.0

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


# ---------------------------------------------------------------------------
# the signal draw
# ---------------------------------------------------------------------------

def affiliated_signal(common, idiosyncratic, rho: float, out=None):
    """z = sqrt(rho) * common + sqrt(1 - rho) * idiosyncratic (broadcasting
    ``common`` to the shape of ``idiosyncratic``), written into ``out`` when
    given, which may be ``idiosyncratic`` itself."""
    out = np.multiply(idiosyncratic, math.sqrt(1.0 - rho), out=out)
    out += math.sqrt(rho) * common
    return out


# ---------------------------------------------------------------------------
# the factor kernel
# ---------------------------------------------------------------------------

def _positive(name, x):
    """(x as a 1-d float array, whether x was a scalar); DomainError unless
    every entry is positive and finite."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x > 0.0)):
        raise DomainError(f"{name} must be positive and finite")
    return np.atleast_1d(x), x.ndim == 0


def _factor_nodes(profile, given=None):
    """Gauss-Hermite rule over the common factor Z: (shift, logw, s_perp).

    Given node j, a value is log-normal with log-mean mu + shift[k, j] and
    log-sd s_perp = sigma sqrt(1 - rho); logw[j] is the node's log-weight.
    Z follows its prior N(0, 1) (one row), or, for own values ``given``, the
    posterior Z | z_i ~ N(sqrt(rho) z_i, 1 - rho) of each own signal z_i (one
    row per own value).  rho = 0 is one node, Z = 0, of weight one.
    """
    rho, mu, sigma = profile.rho, profile.mu, profile.sigma
    if rho == 0.0:
        Z, logw = np.zeros((1, 1)), np.zeros(1)
    elif given is None:
        Z, logw = _SQRT2 * _GH_X[None, :], _GH_LOGW
    else:
        z_i = (np.log(given) - mu) / sigma
        Z = math.sqrt(rho) * z_i[:, None] + math.sqrt(1.0 - rho) * _SQRT2 * _GH_X[None, :]
        logw = _GH_LOGW
    return sigma * math.sqrt(rho) * Z, logw, sigma * math.sqrt(1.0 - rho)


def _standardized(y, profile, given=None):
    """(a, logw, s_perp): a[k, j] is ln y_k standardised given node j."""
    shift, logw, s_perp = _factor_nodes(profile, given)
    return (np.log(y)[:, None] - profile.mu - shift) / s_perp, logw, s_perp


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where that is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _in_order(work, count, workers, window):
    """``work(i)`` for i < ``count``, yielded in index order, on the calling
    thread for one worker, else on a pool of ``workers`` threads (at most one
    per call) made for this generator: call i is submitted once fewer than
    ``window(i)`` submitted calls are not yet yielded.  With a worker per
    call the calling thread would only wait, so it is call 0's worker and
    runs it when its result is first needed; with more calls it only submits
    and yields, so at most ``workers`` calls run at once.  The generator's
    end, failure (the lowest-index one, once every submitted call has
    stopped) or close joins the pool; a caller that may stop early closes it."""
    workers = min(workers, count)
    if workers <= 1:
        yield from map(work, range(count))
        return
    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        for i in range(count):
            while len(pending) >= window(i):
                yield pending.popleft()()
            pending.append(partial(work, 0) if i == 0 and count == workers
                           else pool.submit(work, i).result)
        while pending:
            yield pending.popleft()()


def _in_blocks(rows, *columns):
    """``rows`` mapped over the equal-length 1-d ``columns`` in sub-blocks of
    ``_BLOCK // cpus`` entries (``cpus`` usable, at most ``_BLOCK``), each
    sub-block's floats written into one output array.

    With w workers (one per usable CPU, at most one per sub-block), share k
    runs sub-blocks k, k + w, k + 2w, ... one at a time; ``_in_order`` runs
    the w shares at once, share 0 on the calling thread, so at most
    ``_BLOCK`` rows are in flight and no thread outlives the call.  An
    exception in any share is raised here once every share has stopped.  A
    one-value call runs ``rows`` directly, with no CPU count taken.
    """
    out = np.empty(columns[0].size)
    if out.size == 1:
        out[:] = rows(*columns)
        return out
    cpus = min(_usable_cpus(), _BLOCK)
    step = _BLOCK // cpus
    starts = range(0, out.size, step)
    workers = min(cpus, len(starts))

    def share(k):
        for lo in starts[k::workers]:
            out[lo:lo + step] = rows(*(c[lo:lo + step] for c in columns))

    for _ in _in_order(share, workers, workers, lambda k: workers):
        pass
    return out


def _log_sum(terms):
    """log of each row's sum of exp(terms), shifted by the row's max.

    A row of -inf sums to -inf.  Every node is kept: in the left tail at
    large n the extreme nodes carry the integral.
    """
    top = terms.max(axis=1)
    top = np.where(np.isfinite(top), top, 0.0)
    e = terms - top[:, None]
    np.exp(e, out=e)
    with np.errstate(divide="ignore"):
        return top + np.log(e.sum(axis=1))


# ---------------------------------------------------------------------------
# conditional distribution of the highest rival value
# ---------------------------------------------------------------------------

def rival_max_cdf(y, v, profile: TypeProfile):
    """H(y|v) = P(max of the n-1 rival values <= y | own value v)."""
    y, y_scalar = _positive("y", y)
    v, v_scalar = _positive("v", v)
    y, v = np.broadcast_arrays(y, v)
    out = _in_blocks(lambda yb, vb: _rival_cdf_rows(yb, vb, profile), y, v)
    return float(out[0]) if y_scalar and v_scalar else out


def _rival_cdf_rows(y, v, profile):
    a, logw, _ = _standardized(y, profile, given=v)
    return np.exp(_log_sum(logw + (profile.n - 1) * _special.log_ndtr(a)))


def rival_max_hazard_ratio(v, profile: TypeProfile):
    """Diagonal conditional hazard h(v|v)/H(v|v) of the highest rival value.

    Raises TailUnderflowError when H(v|v) is below 1e-300, which happens only
    for v absurdly deep in the left tail.
    """
    v, scalar = _positive("v", v)
    out = _in_blocks(lambda vb: _hazard_rows(vb, profile), v)
    return float(out[0]) if scalar else out


def _hazard_rows(v, profile):
    n = profile.n
    a, logw, s_perp = _standardized(v, profile, given=v)
    logPhi = _special.log_ndtr(a)
    logH = _log_sum(logw + (n - 1) * logPhi)
    if np.any(logH < _LOG_TINY):
        raise TailUnderflowError(
            "rival-max CDF underflows below 1e-300 at the requested v"
        )
    logh = _log_sum(
        logw
        + math.log(n - 1)
        + (n - 2) * logPhi
        + _norm_logpdf(a)
        - np.log(v * s_perp)[:, None]
    )
    return np.exp(logh - logH)


# ---------------------------------------------------------------------------
# highest order statistic of all n values
# ---------------------------------------------------------------------------

def top_value_density(v, profile: TypeProfile):
    """Density f1(v) of max(v_1..v_n); integrates to one over (0, inf)."""
    v, scalar = _positive("v", v)
    out = _in_blocks(lambda vb: _density_rows(vb, profile), v)
    return float(out[0]) if scalar else out


def _density_rows(v, profile):
    n = profile.n
    a, logw, s_perp = _standardized(v, profile)
    return np.exp(_log_sum(
        logw
        + math.log(n)
        + _norm_logpdf(a)
        - np.log(v * s_perp)[:, None]
        + (n - 1) * _special.log_ndtr(a)
    ))


def top_value_cdf(v, profile: TypeProfile):
    """P(max of all n values <= v)."""
    v, scalar = _positive("v", v)
    out = _in_blocks(lambda vb: _cdf_rows(vb, profile), v)
    return float(out[0]) if scalar else out


def _cdf_rows(v, profile):
    a, logw, _ = _standardized(v, profile)
    return np.exp(_log_sum(logw + profile.n * _special.log_ndtr(a)))


def top_value_sf(v, profile: TypeProfile):
    """P(max > v), computed without cancellation for deep right tails."""
    v, scalar = _positive("v", v)
    out = _in_blocks(lambda vb: _sf_rows(vb, profile), v)
    return float(out[0]) if scalar else out


def _sf_rows(v, profile):
    a, logw, _ = _standardized(v, profile)
    sf_terms = -np.expm1(profile.n * _special.log_ndtr(a))  # 1 - Phi^n, stable
    return np.sum(np.exp(logw) * sf_terms, axis=1)


def top_value_quantile(q: float, profile: TypeProfile) -> float:
    """Quantile of the maximum-value distribution, by Brent's method in ln v."""
    if not (0.0 < q < 1.0):
        raise DomainError("q must be in (0, 1)")
    # the max lies between the marginal q-quantile and the q^(1/n) union bound
    lo = profile.mu + profile.sigma * _special.ndtri(q) - 1.0
    top = _special.ndtri(1.0 - (1.0 - q) / profile.n)
    if not math.isfinite(top):  # 1 - (1 - q)/n rounded to 1
        top = -_special.ndtri((1.0 - q) / profile.n)
    hi = profile.mu + profile.sigma * top + 1.0
    f = lambda lv: top_value_cdf(math.exp(lv), profile) - q
    return math.exp(_brentq(f, lo, hi, xtol=1e-12, rtol=1e-14))


def top_value_tail_mean(limit: float, profile: TypeProfile) -> float:
    """E[v_(1) * 1{v_(1) > limit}] under the factor model.

    Conditioning on Z reduces the integrand to a shifted-normal integral of
    Phi(s + s_perp)^(n-1), handled by fixed Gauss-Legendre quadrature; the
    log-normal tail mean itself is analytic.
    """
    return float(_tail_means([limit], profile)[0])


def _tail_means(limits, profile: TypeProfile) -> np.ndarray:
    """``top_value_tail_mean`` at each of ``limits``, as one factor integral.

    Each (limit, Gauss-Hermite node) pair integrates over a window in s whose
    lower end alone fixes the result: the limit standardised at the node, or
    -8 where that lies below -8 (limit 0 at every node).  Each distinct window
    is one row of ``_in_blocks``, so memory stays bounded in the number of
    limits.
    """
    if not all(0.0 <= limit < math.inf for limit in limits):
        raise DomainError("limit must be >= 0 and finite")
    n = profile.n
    shift, logw, s_perp = _factor_nodes(profile)
    mu_z = profile.mu + shift[0]
    # math.log, not np.log: the two differ in the last bit on some inputs
    logs = np.array([math.log(limit) if limit > 0.0 else -math.inf for limit in limits])
    c = (logs[:, None] - mu_z) / s_perp - s_perp
    lo, window = np.unique(np.maximum(c, -8.0), return_inverse=True)
    J = _in_blocks(lambda lb: _tail_rows(lb, n, s_perp), lo)[window].reshape(c.shape)
    return n * np.sum(np.exp(logw) * np.exp(mu_z + 0.5 * s_perp**2) * J, axis=1)


def _tail_rows(lo, n, s_perp):
    """The integral of phi(s) Phi(s + s_perp)^(n-1) over (lo, inf), one row
    per lower end ``lo`` >= -8: by Gauss-Legendre up to 8 + s_perp, and in
    closed form, the normal tail, for an end beyond it."""
    hi = np.maximum(lo + 1e-12, 8.0 + s_perp)
    s = 0.5 * (hi - lo)[:, None] * _GL_X[None, :] + 0.5 * (hi + lo)[:, None]
    integrand = np.exp(_norm_logpdf(s) + (n - 1) * _special.log_ndtr(s + s_perp))
    J = np.sum(integrand * (0.5 * (hi - lo)[:, None] * _GL_W[None, :]), axis=1)
    deep = lo > 8.0 + s_perp
    if np.any(deep):
        J = np.where(deep, 1.0 - _special.ndtr(np.minimum(lo, 38.0)), J)
    return J


def top_value_mean(profile: TypeProfile) -> float:
    """E[v_(1)], the expected highest value among the n searchers."""
    return top_value_tail_mean(0.0, profile)
