import numpy as np
import pytest

from mevauction import solve_bid_ode
from mevauction.profiles import MevType, TypeProfile

MU, SIGMA = 1.102, 2.524


def make_profile(n=5, rho=0.3, gamma=0.74, mu=MU, sigma=SIGMA, tau=MevType.NAKED_ARB):
    return TypeProfile(tau=tau, n=n, rho=rho, gamma=gamma, mu=mu, sigma=sigma)


# the bid curve depends only on (n, rho, mu, sigma); share across gammas
_CURVES = {}


def curve_for(profile):
    key = (profile.n, profile.rho, profile.mu, profile.sigma)
    if key not in _CURVES:
        _CURVES[key] = solve_bid_ode(profile)
    return _CURVES[key]


@pytest.fixture(scope="session")
def flagship():
    profile = make_profile()
    return profile, curve_for(profile)


@pytest.fixture(scope="session")
def solved():
    """Callable returning (profile, shared curve) for ad-hoc parameters."""

    def _solve(**kwargs):
        profile = make_profile(**kwargs)
        return profile, curve_for(profile)

    return _solve


def marginal_quantile(q, mu=MU, sigma=SIGMA):
    from scipy.stats import norm

    return float(np.exp(mu + sigma * norm.ppf(q)))


def counted_pairs(counted):
    """The ``(record, proxy)`` pairs of a ``BidderCounts``, in its order."""
    return list(zip(counted.table.select(counted.order).records(), counted.proxy.tolist()))


def pair_rows(pairs):
    """The ``(MevType, log top, log second)`` rows of an ``AffiliationPairs``."""
    from mevauction.empirics import MEV_TYPES

    return list(zip(map(MEV_TYPES.__getitem__, pairs.mev_type.tolist()),
                    pairs.log_top.tolist(), pairs.log_second.tolist()))
