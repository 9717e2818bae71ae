import numpy as np
import pytest

from mevauction import solve_bid_ode
from mevauction.profiles import MevType, TypeProfile

MU, SIGMA = 1.102, 2.524


def make_profile(n=5, rho=0.3, gamma=0.74, mu=MU, sigma=SIGMA, tau=MevType.NAKED_ARB):
    return TypeProfile(tau=tau, n=n, rho=rho, gamma=gamma, mu=mu, sigma=sigma)


# the benchmark's theory profiles, whose sweeps perfbench/reference.json
# records, as make_profile arguments
THEORY_PROFILES = {
    "flagship": {},
    "all_binding": {"n": 3, "rho": 0.2, "gamma": 0.998, "tau": MevType.SANDWICH},
    "never_binding": {"n": 10, "rho": 0.4, "gamma": 0.05, "sigma": 0.5,
                      "tau": MevType.LIQUIDATION},
    "n50": {"n": 50},
}

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


def table_from_records(records):
    """Collect an iterable of BundleRecord into a BundleTable: builders and
    searchers are coded in first-seen order, types by ``MEV_TYPES``."""
    from mevauction.empirics import _TYPE_CODE, BundleTable

    records = list(records)
    builders, searchers = {}, {}
    return BundleTable(
        [r.tx_hash for r in records],
        np.array([r.block_number for r in records], dtype=np.int64),
        np.array([_TYPE_CODE[r.mev_type] for r in records], dtype=np.intp),
        np.array([builders.setdefault(r.builder, len(builders)) for r in records],
                 dtype=np.intp), tuple(builders),
        np.array([searchers.setdefault(r.searcher, len(searchers)) for r in records],
                 dtype=np.intp), tuple(searchers),
        np.array([r.tip for r in records], dtype=float),
        np.array([r.profit for r in records], dtype=float))


def generated_records(specs, blocks, seed, **kwargs):
    """The records of ``generate_chunks(specs, blocks, seed, **kwargs)``, in
    chunk order."""
    from mevauction.synthetic import generate_chunks

    return [rec for table in generate_chunks(specs, blocks, seed, **kwargs)
            for rec in table.records()]


def not_utf8_bundles(path, where):
    """Write a 2000-row bundle CSV to ``path`` that is UTF-8 but for one 0xe9
    byte (Latin-1 "e" acute): in the header's ``block_number`` (``where`` is
    "header") or in data row 1500's builder label ("data_row_1500")."""
    from mevauction.empirics import CSV_COLUMNS

    lines = [",".join(CSV_COLUMNS).encode()]
    lines += [f"0x{i:x},{i},naked_arb,b{i % 3},s,1.0,0.5".encode() for i in range(2000)]
    k = {"header": 0, "data_row_1500": 1500}[where]
    lines[k] = lines[k].replace(b",b", b",b\xe9", 1)
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path


def counted_pairs(counted):
    """The ``(record, proxy)`` pairs of a ``BidderCounts``, in its order."""
    return list(zip(counted.table.select(counted.order).records(), counted.proxy.tolist()))


def pair_rows(pairs):
    """The ``(MevType, log top, log second)`` rows of an ``AffiliationPairs``."""
    from mevauction.empirics import MEV_TYPES

    return list(zip(map(MEV_TYPES.__getitem__, pairs.mev_type.tolist()),
                    pairs.log_top.tolist(), pairs.log_second.tolist()))
