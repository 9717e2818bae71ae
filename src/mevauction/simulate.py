"""Monte Carlo engine for the full auction game.

Each block: draw the n affiliated values, pick the winner, price its bid
with the piecewise strategy, flip the builder's defection coin, and frontrun
exactly when the defecting builder's replicated value strictly exceeds the
winning bid.  Revert protection means a frontrun block pays the builder
gamma * v_top, zeroes the searcher, and collects no bid.

Tie rule: the highest idiosyncratic draw (equivalently, the highest
signal) wins, ties to the lowest index.  The searchers of a block share its
common factor, and a value rises with its draw (``sqrt(1 - rho) > 0`` and
``sigma >= 0``), so the winner is the highest-value searcher; only its
signal, value and bid are computed.  The strategy never decreases, so it is
also the highest bidder.  It differs from "highest bid, ties to the lowest
index" only where bids tie: where the strategy is flat (or dips at the
cutoff within the tolerance ``PiecewiseStrategy`` allows) the top bid is
the same but the higher value wins, and where values tie (``sigma = 0``, or
``exp`` rounding two signals to one float) the top value and bid are the
same but the higher draw wins.

One private kernel, ``_play``, draws and plays a chunk of auctions; the
game engine here and ``synthetic.generate_synthetic`` both call it, so the
rule is written once.  Blocks are generated in fixed-size chunks, each on
its own split random stream keyed (seed, chunk, purpose): the chunk sizes
are part of that stream schedule, so changing ``CHUNK`` changes the draws.
``run_many`` reduces each chunk as it is drawn and keeps no chunk arrays,
so its memory is O(chunk) however many blocks it plays.  Chunk moments are
combined in index order, so the report is bit-identical for any worker
count.

The deviation harness conditions on the deviant's valuation: her signal is
pinned and rivals draw the common factor from its posterior, then their own
signals.  All bids in a deviation scan share the same draws, so grid
comparisons are paired.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .equilibrium import PiecewiseStrategy
from .errors import DomainError, ParameterError
from .profiles import TypeProfile
from .rng import stream
from .values import affiliated_signal

CHUNK = 1 << 16


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


def _chunk_sizes(blocks: int, chunk: int = CHUNK):
    full, rem = divmod(blocks, chunk)
    sizes = [chunk] * full
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


def _play(strategy, profile, gamma, epsilon, key, shape, antithetic=False):
    """Draw and play the auctions of one chunk on the streams of ``key``.

    ``shape`` is (blocks,) or (blocks, auctions per block); the auctions of a
    block share its common factor.  Stream ``key + (0,)`` draws the values,
    ``key + (1,)`` the defection coins, which is returned so a caller can
    draw more from it.  The highest idiosyncratic draw (equivalently, the
    highest signal) wins, ties to the lowest index: the argmax is taken on
    the draws, and only the winner gets a signal, a value and a bid from
    ``strategy.bid``.  A defecting builder frontruns when
    ``gamma * top_val > top_bid``.  Where the strategy is flat, a higher
    value beats an equal bid at a lower index.
    Returns (winner, top_bid, top_val, defect, frontrun, coin_stream).
    """
    rng_v = stream(*key, 0)
    rows = shape[0]
    if antithetic:
        if rows % 2:
            raise ParameterError("antithetic sampling needs an even chunk size")
        half = rng_v.standard_normal(rows // 2)
        Z = np.concatenate([half, -half])
    else:
        Z = rng_v.standard_normal(rows)
    u = rng_v.standard_normal(shape + (profile.n,)).reshape(-1, profile.n)
    winner = np.argmax(u, axis=1)
    top_u = u[np.arange(winner.size), winner].reshape(shape)
    z = affiliated_signal(Z.reshape(Z.shape + (1,) * (len(shape) - 1)), top_u, profile.rho)
    top_val = np.exp(profile.mu + profile.sigma * z)
    top_bid = strategy.bid(top_val.ravel()).reshape(shape)
    coin = stream(*key, 1)
    defect = coin.random(shape) < epsilon
    frontrun = defect & (gamma * top_val > top_bid)
    return winner.reshape(shape), top_bid, top_val, defect, frontrun, coin


def _simulate_chunk(strategy, profile, seed, chunk_index, size, antithetic):
    winner, top_bid, top_val, defect, frontrun, _ = _play(
        strategy, profile, strategy.gamma, strategy.epsilon, (seed, chunk_index),
        (size,), antithetic)
    revenue = np.where(frontrun, strategy.gamma * top_val, top_bid)
    surplus = np.where(frontrun, 0.0, top_val - top_bid)
    return winner, top_bid, top_val, defect, frontrun, revenue, surplus


def _check_run_args(blocks, seed, workers, antithetic, trace_cap):
    """Reject ``run_many`` arguments up front (the CLI calls this first too)."""
    if blocks < 1:
        raise ParameterError("blocks must be >= 1")
    if seed < 0:
        raise ParameterError("seed must be >= 0")
    if antithetic and blocks % 2:
        raise ParameterError("antithetic sampling needs an even number of blocks")
    if workers < 1:
        raise ParameterError("workers must be >= 1")
    if trace_cap < 0:
        raise ParameterError("trace_cap must be >= 0")


def run_many(strategy: PiecewiseStrategy, profile: TypeProfile, blocks: int,
             seed: int, *, workers: int = 1, antithetic: bool = False,
             trace_path=None, trace_cap: int = 10_000) -> SimReport:
    """Aggregate ``blocks`` independent blocks into a SimReport.

    Each chunk is reduced (and traced) as it arrives, in index order, so
    memory is O(chunk).  ``workers`` only parallelizes chunk evaluation; the
    result is identical for any value because chunk streams are keyed by
    index and chunk moments are combined in index order.
    """
    _check_run_args(blocks, seed, workers, antithetic, trace_cap)
    sizes = _chunk_sizes(blocks)

    def work(i):
        return _simulate_chunk(strategy, profile, seed, i, sizes[i], antithetic)

    rev_acc, sur_acc = _MomentAccumulator(), _MomentAccumulator()
    n_defect, n_front = 0, 0
    traced = 0
    offset = 0
    with ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(ThreadPoolExecutor(max_workers=workers))
            chunks = pool.map(work, range(len(sizes)))
        else:
            chunks = map(work, range(len(sizes)))
        trace_file = None
        if trace_path:
            trace_file = stack.enter_context(open(trace_path, "w", encoding="utf-8"))
            trace_file.write("block,winner_index,winning_bid,winner_value,"
                             "defected,frontran,builder_revenue,searcher_surplus\n")
        for w, b, v, d, f, rev, sur in chunks:
            rev_acc.add(rev)
            sur_acc.add(sur)
            n_defect += int(np.sum(d))
            n_front += int(np.sum(f))
            if trace_file and traced < trace_cap:
                take = min(trace_cap - traced, w.size)
                columns = (a[:take].tolist() for a in (w, b, v, d, f, rev, sur))
                trace_file.write("".join(map("%d,%d,%.12g,%.12g,%d,%d,%.12g,%.12g\n".__mod__,
                                             zip(range(offset, offset + take), *columns))))
                traced += take
            offset += w.size

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
    """Highest rival bid per block, rivals conditioned on the deviant's value.

    As in ``_play``, the highest rival draw is the highest rival value, so
    only that one rival per block gets a signal, a value and a bid.
    """
    z0 = (math.log(v) - profile.mu) / profile.sigma
    rng = stream(seed, chunk_index, 0)
    z_post = affiliated_signal(z0, rng.standard_normal(size), profile.rho)
    u = rng.standard_normal((size, profile.n - 1))
    z_riv = affiliated_signal(z_post, u.max(axis=1), profile.rho)
    rival_top = strategy.bid(np.exp(profile.mu + profile.sigma * z_riv))
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
    if not 0 <= ref < bids.size:
        raise ParameterError(f"reference_index must be in [0, {bids.size})")
    if blocks < 1:
        raise ParameterError("blocks must be >= 1")
    if seed < 0:
        raise ParameterError("seed must be >= 0")
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
