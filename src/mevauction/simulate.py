"""Monte Carlo engine for the full auction game.

Each block: draw the n affiliated values, apply the piecewise strategy, pick
the winner (highest bid, ties to the lowest index), flip the builder's
defection coin, and frontrun exactly when the defecting builder's replicated
value strictly exceeds the winning bid.  Revert protection means a frontrun
block pays the builder gamma * v_top, zeroes the searcher, and collects no
bid.

Blocks are generated in fixed-size chunks, each on its own split random
stream keyed (seed, chunk, purpose).  Reductions use exact summation over
chunk partials, so the report is bit-identical for any worker count and
``run_block`` reproduces block zero of ``run_many`` exactly.

The deviation harness conditions on the deviant's valuation: her signal is
pinned and rivals draw the common factor from its posterior, then their own
signals.  All bids in a deviation scan share the same draws, so grid
comparisons are paired.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .equilibrium import PiecewiseStrategy
from .errors import DomainError, ParameterError
from .profiles import TypeProfile
from .rng import stream
from .values import affiliated_signal

CHUNK = 1 << 16


@dataclass(frozen=True)
class BlockOutcome:
    winner_index: int
    winning_bid: float
    winner_value: float
    defected: bool
    frontran: bool
    builder_revenue: float
    searcher_surplus: float

    def __post_init__(self):
        if self.frontran and not self.defected:
            raise ParameterError("frontran implies defected")


@dataclass(frozen=True)
class SimReport:
    blocks: int
    mean_builder_revenue: float
    stderr_builder_revenue: float
    mean_searcher_surplus: float
    stderr_searcher_surplus: float
    frontrun_rate: float
    defection_rate_realized: float

    def __post_init__(self):
        if self.frontrun_rate > self.defection_rate_realized + 1e-12:
            raise ParameterError("frontrun rate cannot exceed realized defection rate")

    def to_json(self) -> str:
        return json.dumps(
            {
                "blocks": self.blocks,
                "mean_builder_revenue": self.mean_builder_revenue,
                "stderr_builder_revenue": self.stderr_builder_revenue,
                "mean_searcher_surplus": self.mean_searcher_surplus,
                "stderr_searcher_surplus": self.stderr_searcher_surplus,
                "frontrun_rate": self.frontrun_rate,
                "defection_rate_realized": self.defection_rate_realized,
            },
            indent=1,
        )


def _chunk_sizes(blocks: int):
    full, rem = divmod(blocks, CHUNK)
    sizes = [CHUNK] * full
    if rem:
        sizes.append(rem)
    return sizes


class _MomentAccumulator:
    """Combine per-chunk means and scatters without cancellation.

    Welford-style pairwise combination along the last axis; merging in chunk
    order keeps the result independent of who computed which chunk.
    """

    def __init__(self, width: int | None = None):
        shape = () if width is None else (width,)
        self.count = 0
        self._mean = np.zeros(shape)
        self._m2 = np.zeros(shape)

    def add(self, sample: np.ndarray):
        n = sample.shape[-1]
        if n == 0:
            return
        mean = sample.mean(axis=-1)
        m2 = np.sum((sample - np.expand_dims(mean, -1)) ** 2, axis=-1)
        if self.count == 0:
            self.count, self._mean, self._m2 = n, np.asarray(mean, dtype=float), m2
            return
        delta = mean - self._mean
        total = self.count + n
        self._mean = self._mean + delta * (n / total)
        self._m2 = self._m2 + m2 + delta**2 * (self.count * n / total)
        self.count = total

    @property
    def mean(self):
        return self._mean if self._mean.ndim else float(self._mean)

    @property
    def stderr(self):
        if self.count < 2:
            return np.zeros_like(self._m2) if self._m2.ndim else 0.0
        se = np.sqrt(self._m2 / (self.count - 1) / self.count)
        return se if se.ndim else float(se)


def _simulate_chunk(strategy, profile, seed, chunk_index, size, antithetic):
    rng_v = stream(seed, chunk_index, 0)
    if antithetic:
        if size % 2:
            raise ParameterError("antithetic sampling needs an even chunk size")
        half = rng_v.standard_normal(size // 2)
        Z = np.concatenate([half, -half])
    else:
        Z = rng_v.standard_normal(size)
    u = rng_v.standard_normal((size, profile.n))
    z = affiliated_signal(Z[:, None], u, profile.rho)
    values = np.exp(profile.mu + profile.sigma * z)
    bids = strategy.bid(values)
    winner = np.argmax(bids, axis=1)
    rows = np.arange(size)
    top_bid = bids[rows, winner]
    top_val = values[rows, winner]
    defect = stream(seed, chunk_index, 1).random(size) < strategy.epsilon
    frontrun = defect & (strategy.gamma * top_val > top_bid)
    revenue = np.where(frontrun, strategy.gamma * top_val, top_bid)
    surplus = np.where(frontrun, 0.0, top_val - top_bid)
    return winner, top_bid, top_val, defect, frontrun, revenue, surplus


def run_block(strategy: PiecewiseStrategy, profile: TypeProfile, seed: int) -> BlockOutcome:
    """Play a single block; identical to block zero of ``run_many``."""
    w, b, v, d, f, rev, sur = _simulate_chunk(strategy, profile, seed, 0, 1, False)
    return BlockOutcome(
        winner_index=int(w[0]),
        winning_bid=float(b[0]),
        winner_value=float(v[0]),
        defected=bool(d[0]),
        frontran=bool(f[0]),
        builder_revenue=float(rev[0]),
        searcher_surplus=float(sur[0]),
    )


def run_many(strategy: PiecewiseStrategy, profile: TypeProfile, blocks: int,
             seed: int, *, workers: int = 1, antithetic: bool = False,
             trace_path=None, trace_cap: int = 10_000) -> SimReport:
    """Aggregate ``blocks`` independent blocks into a SimReport.

    ``workers`` only parallelizes chunk evaluation; the result is identical
    for any value because chunk streams are keyed by index and partial sums
    are combined in index order with exact summation.
    """
    if blocks < 1:
        raise ParameterError("blocks must be >= 1")
    if antithetic and blocks % 2:
        raise ParameterError("antithetic sampling needs an even number of blocks")
    sizes = _chunk_sizes(blocks)

    def work(i):
        return _simulate_chunk(strategy, profile, seed, i, sizes[i], antithetic)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, range(len(sizes))))
    else:
        results = [work(i) for i in range(len(sizes))]

    rev_acc, sur_acc = _MomentAccumulator(), _MomentAccumulator()
    n_defect, n_front = 0, 0
    traced = 0
    trace_file = open(trace_path, "w", encoding="utf-8") if trace_path else None
    if trace_file:
        trace_file.write("block,winner_index,winning_bid,winner_value,"
                         "defected,frontran,builder_revenue,searcher_surplus\n")
    offset = 0
    for w, b, v, d, f, rev, sur in results:
        rev_acc.add(rev)
        sur_acc.add(sur)
        n_defect += int(np.sum(d))
        n_front += int(np.sum(f))
        if trace_file and traced < trace_cap:
            take = min(trace_cap - traced, w.size)
            for j in range(take):
                trace_file.write(
                    f"{offset + j},{w[j]},{b[j]:.12g},{v[j]:.12g},"
                    f"{int(d[j])},{int(f[j])},{rev[j]:.12g},{sur[j]:.12g}\n"
                )
            traced += take
        offset += w.size
    if trace_file:
        trace_file.close()

    rev_mean, rev_se = rev_acc.mean, rev_acc.stderr
    sur_mean, sur_se = sur_acc.mean, sur_acc.stderr
    return SimReport(
        blocks=blocks,
        mean_builder_revenue=rev_mean,
        stderr_builder_revenue=rev_se,
        mean_searcher_surplus=sur_mean,
        stderr_searcher_surplus=sur_se,
        frontrun_rate=n_front / blocks,
        defection_rate_realized=n_defect / blocks,
    )


# ---------------------------------------------------------------------------
# deviation payoffs (best-response harness)
# ---------------------------------------------------------------------------

def _rival_chunk(v, strategy, profile, seed, chunk_index, size):
    """Highest rival bid per block, rivals conditioned on the deviant's value."""
    z0 = (math.log(v) - profile.mu) / profile.sigma
    rng = stream(seed, chunk_index, 0)
    z_post = affiliated_signal(z0, rng.standard_normal(size), profile.rho)
    u = rng.standard_normal((size, profile.n - 1))
    z_riv = affiliated_signal(z_post[:, None], u, profile.rho)
    rival_values = np.exp(profile.mu + profile.sigma * z_riv)
    rival_top = np.max(strategy.bid(rival_values), axis=1)
    defect = stream(seed, chunk_index, 1).random(size) < strategy.epsilon
    return rival_top, defect


@dataclass(frozen=True)
class DeviationScan:
    """Paired payoff scan over a bid grid at one valuation."""

    valuation: float
    bids: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    diff_means: np.ndarray     # payoff(bid) - payoff(reference bid)
    diff_stderrs: np.ndarray
    reference_index: int


def deviation_payoff_grid(v: float, bids, strategy: PiecewiseStrategy,
                          profile: TypeProfile, blocks: int, seed: int,
                          reference_index: int | None = None) -> DeviationScan:
    """Monte Carlo payoffs for every bid in ``bids`` on shared draws.

    The deviant sits at index 0 (wins ties) with valuation ``v``; rivals play
    the strategy.  With defection, a bid below gamma*v is frontrun and pays
    zero.  Paired differences against the reference bid isolate the strategy
    effect from sampling noise.
    """
    if v <= 0:
        raise DomainError("v must be positive")
    profile.require_dispersion()
    bids = np.asarray(bids, dtype=float)
    if bids.ndim != 1 or bids.size == 0 or np.any(bids < 0):
        raise ParameterError("bids must be a 1-d array of nonnegative bids")
    ref = bids.size // 2 if reference_index is None else int(reference_index)
    sizes = _chunk_sizes(blocks)

    k = bids.size
    pay_acc = _MomentAccumulator(width=k)
    diff_acc = _MomentAccumulator(width=k)
    exposed = strategy.gamma * v > bids  # frontrunnable bids
    for i, size in enumerate(sizes):
        rival_top, defect = _rival_chunk(v, strategy, profile, seed, i, size)
        wins = bids[:, None] >= rival_top[None, :]
        zeroed = exposed[:, None] & defect[None, :]
        pay = np.where(wins & ~zeroed, v - bids[:, None], 0.0)
        pay_acc.add(pay)
        diff_acc.add(pay - pay[ref])

    return DeviationScan(valuation=float(v), bids=bids,
                         means=pay_acc.mean, stderrs=pay_acc.stderr,
                         diff_means=diff_acc.mean, diff_stderrs=diff_acc.stderr,
                         reference_index=ref)


def payoff_of_deviation(v: float, bid: float, strategy: PiecewiseStrategy,
                        profile: TypeProfile, blocks: int, seed: int):
    """Expected payoff (mean, stderr) of bidding ``bid`` at valuation ``v``."""
    scan = deviation_payoff_grid(v, np.array([float(bid)]), strategy, profile,
                                 blocks, seed, reference_index=0)
    return float(scan.means[0]), float(scan.stderrs[0])
