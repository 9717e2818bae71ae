"""Probability primitives of the common-factor value model.

Model
-----
Searcher i receives a latent signal

    z_i = sqrt(rho) * Z + sqrt(1 - rho) * u_i,      Z, u_i ~ iid N(0, 1)

and values the opportunity at v_i = exp(mu + sigma * z_i).  The marginal of
every v_i is LogNormal(mu, sigma^2) for any rho in [0, 1); rho is the pairwise
correlation of signals and carries all the affiliation.

Conditioning on the common factor Z makes the v_i independent log-normals
with log-mean mu + sigma*sqrt(rho)*Z and log-sd sigma*sqrt(1-rho).  Every
conditional or order-statistic quantity here is therefore a one-dimensional
integral over Z, evaluated by Gauss-Hermite quadrature:

  * rival_max_cdf:   H(y|v) = E[ F_Z(y)^(n-1) | z_i ],  Z|z_i ~ N(sqrt(rho) z_i, 1-rho)
  * rival_max_hazard_ratio: h(v|v) / H(v|v), the diagonal conditional hazard
  * top_value_density: f1(v) = E[ n f_Z(v) F_Z(v)^(n-1) ] over the prior Z

With sigma around 2.5 the value distribution spans ten orders of magnitude,
so all tail arithmetic is done in log space (log_ndtr / logsumexp) and a
conditional CDF that underflows 1e-300 raises TailUnderflowError instead of
silently dividing by zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import log_ndtr, logsumexp, ndtr

from .errors import DomainError, TailUnderflowError
from .profiles import TypeProfile
from .rng import stream

GH_ORDER = 96
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(GH_ORDER)
_GH_LOGW = np.log(_GH_W) - 0.5 * math.log(math.pi)

_GL_ORDER = 128
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_ORDER)

_LOG_TINY = math.log(1e-300)
_SQRT2 = math.sqrt(2.0)


def _norm_logpdf(x):
    return -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueDraw:
    """One joint draw of the n searchers' signals and values."""

    common_factor: float
    idiosyncratic: np.ndarray
    signals: np.ndarray
    values: np.ndarray


def affiliated_signal(common, idiosyncratic, rho: float):
    """z = sqrt(rho) * common + sqrt(1 - rho) * idiosyncratic (broadcasting)."""
    return math.sqrt(rho) * common + math.sqrt(1.0 - rho) * idiosyncratic


def sample_signals(profile: TypeProfile, size: int, rng: np.random.Generator):
    """Draw ``size`` blocks of n signals; returns (Z, z) with shapes (size,), (size, n)."""
    Z = rng.standard_normal(size)
    u = rng.standard_normal((size, profile.n))
    return Z, affiliated_signal(Z[:, None], u, profile.rho)


def sample_values(profile: TypeProfile, seed: int) -> ValueDraw:
    """One draw of the n affiliated values for ``profile``."""
    rng = stream(seed)
    Z = float(rng.standard_normal())
    u = rng.standard_normal(profile.n)
    z = affiliated_signal(Z, u, profile.rho)
    v = np.exp(profile.mu + profile.sigma * z)
    return ValueDraw(common_factor=Z, idiosyncratic=u, signals=z, values=v)


# ---------------------------------------------------------------------------
# conditional distribution of the highest rival value
# ---------------------------------------------------------------------------

def _check_positive(name, x):
    x = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(x)) or np.any(x <= 0.0):
        raise DomainError(f"{name} must be positive and finite")
    return x


def _posterior_factor_nodes(z_i, rho):
    """Gauss-Hermite nodes of Z | z_i ~ N(sqrt(rho) z_i, 1 - rho)."""
    z_i = np.atleast_1d(z_i)
    return math.sqrt(rho) * z_i[:, None] + math.sqrt(1.0 - rho) * _SQRT2 * _GH_X[None, :]


def _log_rival_max_cdf(y, v, profile):
    """log H(y|v) for broadcastable positive arrays y, v."""
    n, rho, mu, sigma = profile.n, profile.rho, profile.mu, profile.sigma
    y = np.atleast_1d(np.asarray(y, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if rho == 0.0:
        a = (np.log(y) - mu) / sigma
        return (n - 1) * log_ndtr(a) * np.ones_like(v)
    z_i = (np.log(v) - mu) / sigma
    s_perp = sigma * math.sqrt(1.0 - rho)
    Zk = _posterior_factor_nodes(z_i, rho)
    a = (np.log(y)[:, None] - mu - sigma * math.sqrt(rho) * Zk) / s_perp
    return logsumexp(_GH_LOGW[None, :] + (n - 1) * log_ndtr(a), axis=1)


def rival_max_cdf(y, v, profile: TypeProfile):
    """H(y|v) = P(max of the n-1 rival values <= y | own value v)."""
    profile.require_dispersion()
    y = _check_positive("y", y)
    v = _check_positive("v", v)
    scalar = y.ndim == 0 and np.asarray(v).ndim == 0
    out = np.exp(_log_rival_max_cdf(y, v, profile))
    return float(out[0]) if (scalar or out.size == 1) else out


def rival_max_hazard_ratio(v, profile: TypeProfile):
    """Diagonal conditional hazard h(v|v)/H(v|v) of the highest rival value.

    Raises TailUnderflowError when H(v|v) is below 1e-300, which happens only
    for v absurdly deep in the left tail.
    """
    profile.require_dispersion()
    v = _check_positive("v", v)
    scalar = np.isscalar(v) or v.ndim == 0
    v = np.atleast_1d(v)
    n, rho, mu, sigma = profile.n, profile.rho, profile.mu, profile.sigma
    if rho == 0.0:
        a = (np.log(v) - mu) / sigma
        logF = log_ndtr(a)
        if np.any(logF * (n - 1) < _LOG_TINY):
            raise TailUnderflowError(
                "rival-max CDF underflows below 1e-300 at the requested v"
            )
        logf = _norm_logpdf(a) - np.log(v * sigma)
        out = np.exp(math.log(n - 1) + logf - logF)
        return float(out[0]) if scalar else out
    z_i = (np.log(v) - mu) / sigma
    s_perp = sigma * math.sqrt(1.0 - rho)
    Zk = _posterior_factor_nodes(z_i, rho)
    a = (np.log(v)[:, None] - mu - sigma * math.sqrt(rho) * Zk) / s_perp
    logPhi = log_ndtr(a)
    logH = logsumexp(_GH_LOGW[None, :] + (n - 1) * logPhi, axis=1)
    if np.any(logH < _LOG_TINY):
        raise TailUnderflowError(
            "rival-max CDF underflows below 1e-300 at the requested v"
        )
    logh = logsumexp(
        _GH_LOGW[None, :]
        + math.log(n - 1)
        + (n - 2) * logPhi
        + _norm_logpdf(a)
        - np.log(v * s_perp)[:, None],
        axis=1,
    )
    out = np.exp(logh - logH)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# highest order statistic of all n values
# ---------------------------------------------------------------------------

def _prior_conditional_terms(v, profile):
    """Per-node (a, log-weight) for the unconditional factor integral."""
    rho, mu, sigma = profile.rho, profile.mu, profile.sigma
    v = np.atleast_1d(np.asarray(v, dtype=float))
    s_perp = sigma * math.sqrt(1.0 - rho) if rho > 0 else sigma
    Zk = _SQRT2 * _GH_X if rho > 0 else np.zeros(1)
    logw = _GH_LOGW if rho > 0 else np.zeros(1)
    a = (np.log(v)[:, None] - mu - sigma * math.sqrt(rho) * Zk[None, :]) / s_perp
    return a, logw, s_perp


def top_value_density(v, profile: TypeProfile):
    """Density f1(v) of max(v_1..v_n); integrates to one over (0, inf)."""
    profile.require_dispersion()
    v = _check_positive("v", v)
    scalar = np.isscalar(v) or v.ndim == 0
    v = np.atleast_1d(v)
    n = profile.n
    a, logw, s_perp = _prior_conditional_terms(v, profile)
    terms = (
        logw[None, :]
        + math.log(n)
        + _norm_logpdf(a)
        - np.log(v * s_perp)[:, None]
        + (n - 1) * log_ndtr(a)
    )
    out = np.exp(logsumexp(terms, axis=1))
    return float(out[0]) if scalar else out


def top_value_cdf(v, profile: TypeProfile):
    """P(max of all n values <= v)."""
    profile.require_dispersion()
    v = _check_positive("v", v)
    scalar = np.isscalar(v) or v.ndim == 0
    v = np.atleast_1d(v)
    a, logw, _ = _prior_conditional_terms(v, profile)
    out = np.exp(logsumexp(logw[None, :] + profile.n * log_ndtr(a), axis=1))
    return float(out[0]) if scalar else out


def top_value_sf(v, profile: TypeProfile):
    """P(max > v), computed without cancellation for deep right tails."""
    profile.require_dispersion()
    v = _check_positive("v", v)
    scalar = np.isscalar(v) or v.ndim == 0
    v = np.atleast_1d(v)
    a, logw, _ = _prior_conditional_terms(v, profile)
    sf_terms = -np.expm1(profile.n * log_ndtr(a))  # 1 - Phi^n, stable
    out = np.sum(np.exp(logw)[None, :] * sf_terms, axis=1)
    return float(out[0]) if scalar else out


def top_value_quantile(q: float, profile: TypeProfile) -> float:
    """Quantile of the maximum-value distribution (bracketed bisection)."""
    profile.require_dispersion()
    if not (0.0 < q < 1.0):
        raise DomainError("q must be in (0, 1)")
    from scipy.stats import norm

    # the max lies between the marginal q-quantile and the q^(1/n) union bound
    lo = profile.mu + profile.sigma * norm.ppf(q) - 1.0
    hi = profile.mu + profile.sigma * norm.ppf(1.0 - (1.0 - q) / profile.n) + 1.0
    f = lambda lv: top_value_cdf(math.exp(lv), profile) - q
    return math.exp(brentq(f, lo, hi, xtol=1e-12, rtol=1e-14))


def top_value_tail_mean(limit: float, profile: TypeProfile) -> float:
    """E[v_(1) * 1{v_(1) > limit}] under the factor model.

    Conditioning on Z reduces the integrand to a shifted-normal integral of
    Phi(s + s_perp)^(n-1), handled by fixed Gauss-Legendre quadrature; the
    log-normal tail mean itself is analytic.
    """
    profile.require_dispersion()
    if limit < 0:
        raise DomainError("limit must be >= 0")
    n, rho, mu, sigma = profile.n, profile.rho, profile.mu, profile.sigma
    s_perp = sigma * math.sqrt(1.0 - rho) if rho > 0 else sigma
    Zk = _SQRT2 * _GH_X if rho > 0 else np.zeros(1)
    w = np.exp(_GH_LOGW) if rho > 0 else np.ones(1)
    mu_z = mu + sigma * math.sqrt(rho) * Zk
    if limit == 0.0:
        c = np.full_like(mu_z, -np.inf)
    else:
        c = (math.log(limit) - mu_z) / s_perp - s_perp
    lo = np.maximum(c, -8.0)
    hi = np.maximum(lo + 1e-12, 8.0 + s_perp)
    s = 0.5 * (hi - lo)[:, None] * _GL_X[None, :] + 0.5 * (hi + lo)[:, None]
    integrand = np.exp(_norm_logpdf(s) + (n - 1) * log_ndtr(s + s_perp))
    J = np.sum(integrand * (0.5 * (hi - lo)[:, None] * _GL_W[None, :]), axis=1)
    deep = c > 8.0 + s_perp
    if np.any(deep):
        J = np.where(deep, 1.0 - ndtr(np.minimum(c, 38.0)), J)
    return float(n * np.sum(w * np.exp(mu_z + 0.5 * s_perp**2) * J))


def top_value_mean(profile: TypeProfile) -> float:
    """E[v_(1)], the expected highest value among the n searchers."""
    return top_value_tail_mean(0.0, profile)
