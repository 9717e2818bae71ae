"""Monte Carlo engine for the full auction game.

Each block: draw the n affiliated values, pick the winner, price its bid
with the piecewise strategy, flip the builder's defection coin, and frontrun
exactly when the defecting builder's replicated value strictly exceeds the
winning bid.  Revert protection means a frontrun block pays the builder
gamma * v_top, zeroes the searcher, and collects no bid.

Winner rule: the highest idiosyncratic draw (equivalently, the highest
signal) wins.  The searchers of a block share its common factor, and a value
rises strictly with its draw (``sqrt(1 - rho) > 0`` and ``sigma > 0``), so
the winner is the highest-value searcher; only its signal, value and bid are
computed.  The strategy never decreases, so it is also the highest bidder.
The top draw is sampled as one order statistic, the maximum of n iid N(0, 1)
draws, whose CDF is Phi^n; by exchangeability the winner's index is uniform
on [0, n) and apart from its top draw.  It is the last draw on the value
stream, so only a caller that reads it draws it (the trace, the synthetic
records' searchers), and skipping it moves no other draw.  The other n - 1
draws are never made, so the cost of an auction does not grow with n.

One private kernel, ``_play``, draws and plays a chunk of auctions; the
game engine here and ``synthetic._chunks`` both call it, so the
rule is written once, and ``_top_draws`` is the one place that samples the
top draws, for ``_play`` and for the deviation harness.  Each stage writes
into the arrays the chunk already holds: the uniforms become the top draws,
then the winner's signal and value, in one array; the bid is a second.
Only commutative operations are reordered, so the bits are those of a fresh
array per stage.
Blocks are generated in fixed-size chunks, each on its own split random
stream keyed (seed, chunk, purpose): the chunk sizes are part of that
stream schedule, so changing ``CHUNK`` changes the draws.

``run_many`` plays its chunks on ``values._in_order``, the package's one
thread pool, with by default one worker per CPU this process may use
(``values._usable_cpus``, the count that also splits the factor integrals'
blocks).  Each worker reduces its chunk to moments (of the pair means under
antithetic sampling, whose halves are paired) in the two chunk-sized arrays
it holds, the surplus over the value and the revenue over the bid, and
copies out per-block arrays only for the blocks the trace still needs;
traced chunks are played one at a time and written in row slices by
``empirics._format_rows``, the others at most two per worker ahead of the
merge, so memory is O(workers x chunk) however many blocks it plays.
Chunk moments are merged in index order, so the report is bit-identical for
any worker count.

The deviation harness conditions on the deviant's valuation: her signal is
pinned and rivals draw the common factor from its posterior, then their own
signals.  All bids in a deviation scan share the same draws, so grid
comparisons are paired; the scan counts each bid's paid blocks on them, so
its memory is O(chunk + bids), with no (bids x blocks) payoff matrix.
"""

from __future__ import annotations

import math
from contextlib import closing, nullcontext
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .empirics import _format_rows
from .equilibrium import PiecewiseStrategy
from .errors import DomainError, ParameterError
from .profiles import TypeProfile
from .rng import stream
from .values import _in_order, _special, _usable_cpus, affiliated_signal

CHUNK = 1 << 16
DEFAULT_TRACE_CAP = 10_000
# trace rows formatted at once
_TRACE_ROWS = 1 << 11


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


def _moments(sample: np.ndarray):
    """(count, mean, scatter) of a 1-d ``sample``, which is overwritten by
    the squared deviations its scatter sums."""
    mean = sample.mean()
    sample -= mean
    np.square(sample, out=sample)
    return sample.size, mean, np.sum(sample)


class _MomentAccumulator:
    """Combine per-chunk means and scatters without cancellation.

    Welford-style pairwise combination; merging in chunk order keeps the
    result independent of who computed which chunk.
    """

    def __init__(self):
        self.count, self.mean, self._m2 = 0, 0.0, 0.0

    def merge(self, n: int, mean, m2):
        """Combine the (count, mean, scatter) of one more nonempty chunk; the
        first is taken exactly, as ``n / total`` is 1 and the cross term 0."""
        delta = mean - self.mean
        total = self.count + n
        self.mean = float(self.mean + delta * (n / total))
        self._m2 = self._m2 + m2 + delta**2 * (self.count * n / total)
        self.count = total

    @property
    def stderr(self):  # one block has scatter 0, so its stderr is 0
        return float(np.sqrt(self._m2 / max(self.count - 1, 1) / self.count))


def _top_draws(rng, rows: int, n: int):
    """The max of n iid N(0, 1) draws, for each of ``rows`` auctions.

    The max has CDF Phi^n, so it is Phi^-1(V^(1/n)) for V uniform; with
    V = 1 - U, its upper tail 1 - V^(1/n) is computed from U without
    cancellation.  By exchangeability the argmax is uniform and independent
    of the max, so a caller that needs it draws it from ``rng`` next, as
    ``rng.integers(n, size=rows)``.  ``rng.random()`` is 0 with probability
    2^-53, which would give an infinite max, so that draw takes the midpoint
    of its grid cell.
    """
    top = rng.random(rows)  # each step below writes into this one array
    np.maximum(top, 2.0**-54, out=top)
    np.negative(top, out=top)
    np.log1p(top, out=top)
    top /= n
    np.expm1(top, out=top)
    np.negative(top, out=top)
    _special.ndtri(top, out=top)
    return np.negative(top, out=top)


def _play(strategy, profile, gamma, epsilon, key, shape, antithetic=False):
    """Draw and play the auctions of one chunk on the streams of ``key``.

    ``shape`` is (blocks,) or (blocks, auctions per block); the auctions of a
    block share its common factor.  Stream ``key + (0,)`` draws the values,
    ``key + (1,)`` the defection coins; both are returned so a caller can
    draw more from them.  The highest idiosyncratic draw (equivalently, the
    highest signal) wins: ``_top_draws`` samples it after the common
    factors, and only the winner gets a signal, a value and a bid from
    ``strategy.bid``.  The winner's index, uniform on [0, n) and apart from
    its top draw, is the value stream's next draw, which a caller that reads
    it makes as ``value_stream.integers(n, size=shape)``.  A defecting
    builder frontruns when ``gamma * top_val > top_bid``.
    Returns (top_bid, top_val, defect, frontrun, value_stream, coin_stream).
    """
    rng_v = stream(*key, 0)
    rows = shape[0]
    if antithetic:
        if rows % 2:
            raise ParameterError("antithetic sampling needs an even chunk size")
        half = rng_v.standard_normal(rows // 2)
        common = np.concatenate([half, -half])
        del half
    else:
        common = rng_v.standard_normal(rows)
    # the top draws' array becomes the winner's signal, then its value
    top_val = _top_draws(rng_v, math.prod(shape), profile.n).reshape(shape)
    affiliated_signal(common.reshape(common.shape + (1,) * (len(shape) - 1)), top_val,
                      profile.rho, out=top_val)
    del common
    top_val *= profile.sigma
    top_val += profile.mu
    np.exp(top_val, out=top_val)
    top_bid = strategy.bid(top_val.ravel()).reshape(shape)
    coin = stream(*key, 1)
    defect = coin.random(shape) < epsilon
    frontrun = defect & (gamma * top_val > top_bid)
    return top_bid, top_val, defect, frontrun, rng_v, coin


class _ChunkResult(NamedTuple):
    """One chunk of ``run_many``, reduced where it was played."""

    revenue: tuple          # (count, mean, scatter) of builder revenue
    surplus: tuple          # (count, mean, scatter) of searcher surplus
    defections: int
    frontruns: int
    blocks: tuple | None    # (winner, bid, value, defect, frontrun, revenue,
                            # surplus) of the first blocks, for the trace


def _simulate_chunk(strategy, profile, seed, chunk_index, size, antithetic, keep=0):
    """Play chunk ``chunk_index`` and reduce it; keep the per-block arrays
    of its first ``keep`` blocks (none when ``keep`` is 0).

    The chunk is reduced in the two arrays ``_play`` returns: the surplus
    overwrites the value and the revenue the bid, and ``_moments`` squares
    them in place.  The kept blocks are copied before they are overwritten,
    and their winners drawn once those two arrays are dropped."""
    gamma = strategy.gamma
    top_bid, top_val, defect, frontrun, values, _ = _play(
        strategy, profile, gamma, strategy.epsilon, (seed, chunk_index), (size,), antithetic)
    kept = [a[:keep].copy() for a in (top_bid, top_val, defect, frontrun)]
    # a frontrun pays gamma * v and leaves no surplus
    revenue = np.multiply(top_val, gamma, out=top_bid, where=frontrun)
    surplus = np.subtract(top_val, revenue, out=top_val)
    np.copyto(surplus, 0.0, where=frontrun)
    del top_bid, top_val
    kept += [revenue[:keep].copy(), surplus[:keep].copy()]
    if antithetic:  # blocks j and j + size/2 share a common factor: one draw
        half = size // 2
        for a in (revenue, surplus):
            a[:half] += a[half:]
            a[:half] *= 0.5
        revenue, surplus = revenue[:half], surplus[:half]
    moments = _moments(revenue), _moments(surplus)
    del revenue, surplus
    blocks = None
    if keep:
        # only the trace reads the winners; the first ``keep`` of the chunk's
        # are the first ``keep`` drawn
        blocks = (values.integers(profile.n, size=keep), *kept)
    return _ChunkResult(*moments, int(np.count_nonzero(defect)),
                        int(np.count_nonzero(frontrun)), blocks)


def _check_run_args(blocks, seed, workers, antithetic, trace_cap):
    """Reject ``run_many`` arguments up front (the CLI calls this first too)."""
    if blocks < 1:
        raise ParameterError("blocks must be >= 1")
    if seed < 0:
        raise ParameterError("seed must be >= 0")
    if antithetic and blocks % 2:
        raise ParameterError("antithetic sampling needs an even number of blocks")
    if workers is not None and workers < 1:
        raise ParameterError("workers must be >= 1")
    if trace_cap < 0:
        raise ParameterError("trace_cap must be >= 0")


def _write_trace(file, start, blocks):
    """Write the traced blocks of one chunk, numbered from ``start``, in
    slices of ``_TRACE_ROWS`` rows, so only one slice is formatted at a time."""
    for lo in range(0, blocks[0].size, _TRACE_ROWS):
        columns = [a[lo:lo + _TRACE_ROWS].tolist() for a in blocks]
        file.write(_format_rows([range(start + lo, start + lo + len(columns[0])), *columns]))


def run_many(strategy: PiecewiseStrategy, profile: TypeProfile, blocks: int,
             seed: int, *, workers: int | None = None, antithetic: bool = False,
             trace_path=None, trace_cap: int = DEFAULT_TRACE_CAP) -> SimReport:
    """Aggregate ``blocks`` independent blocks into a SimReport.

    ``workers`` threads of ``values._in_order`` (default: one per usable CPU,
    at most one per chunk) play and reduce the chunks, at most two chunks per
    worker ahead of the merge (one chunk at a time while the trace still
    needs them), so memory is O(workers x chunk); no thread outlives the
    call, also when it raises.  The result is identical for any worker count,
    because chunk streams are keyed by index and chunk moments are merged
    (and traced) in index order.
    """
    _check_run_args(blocks, seed, workers, antithetic, trace_cap)
    sizes = _chunk_sizes(blocks)
    workers = _usable_cpus() if workers is None else workers
    trace_blocks = trace_cap if trace_path else 0

    def work(i):
        return _simulate_chunk(strategy, profile, seed, i, sizes[i], antithetic,
                               keep=min(sizes[i], max(0, trace_blocks - i * CHUNK)))

    # a chunk the trace needs holds its per-block arrays until they are
    # written: play those one at a time, so none waits beside the one being
    # written, and the moment-only chunks two per worker
    chunks = _in_order(work, len(sizes), workers,
                       lambda i: 1 if i * CHUNK < trace_blocks else 2 * workers)
    rev_acc, sur_acc = _MomentAccumulator(), _MomentAccumulator()
    n_defect, n_front = 0, 0
    # closing the chunks joins the pool's threads before an exception leaves
    with closing(chunks), (open(trace_path, "w", encoding="utf-8") if trace_path
                           else nullcontext()) as trace_file:
        if trace_path:
            trace_file.write("block,winner_index,winning_bid,winner_value,"
                             "defected,frontran,builder_revenue,searcher_surplus\n")
        start = 0
        for chunk in chunks:
            rev_acc.merge(*chunk.revenue)
            sur_acc.merge(*chunk.surplus)
            n_defect += chunk.defections
            n_front += chunk.frontruns
            if chunk.blocks is not None:
                _write_trace(trace_file, start, chunk.blocks)
            start += CHUNK
            del chunk  # drop a written chunk before the next one is requested

    return SimReport(
        blocks=blocks,
        mean_builder_revenue=rev_acc.mean,
        stderr_builder_revenue=rev_acc.stderr,
        mean_searcher_surplus=sur_acc.mean,
        stderr_searcher_surplus=sur_acc.stderr,
        frontrun_rate=n_front / blocks,
        defection_rate_realized=n_defect / blocks,
    )


# ---------------------------------------------------------------------------
# deviation payoffs (best-response harness)
# ---------------------------------------------------------------------------

def _rival_chunk(v, strategy, profile, seed, chunk_index, size):
    """Highest rival bid per block, rivals conditioned on the deviant's value.

    As in ``_play``, the highest rival draw is the highest rival value, so
    only that one rival per block gets a signal, a value and a bid, from the
    top of n - 1 draws sampled by ``_top_draws``.
    """
    z0 = (math.log(v) - profile.mu) / profile.sigma
    rng = stream(seed, chunk_index, 0)
    z_post = affiliated_signal(z0, rng.standard_normal(size), profile.rho)
    top_u = _top_draws(rng, size, profile.n - 1)
    z_riv = affiliated_signal(z_post, top_u, profile.rho)
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


def _atom_moments(blocks, atoms):
    """(mean, stderr) over ``blocks`` draws of a payoff that is zero except on
    ``atoms``, (value, count) pairs of arrays over the bids."""
    mean = sum(value * (count / blocks) for value, count in atoms)
    m2 = (blocks - sum(count for _, count in atoms)) * mean**2 + sum(
        count * (value - mean) ** 2 for value, count in atoms)
    return mean, np.sqrt(m2 / max(blocks - 1, 1) / blocks)


def deviation_payoff_grid(v: float, bids, strategy: PiecewiseStrategy,
                          profile: TypeProfile, blocks: int, seed: int,
                          reference_index: int | None = None) -> DeviationScan:
    """Monte Carlo payoffs for every bid in ``bids`` on shared draws.

    The deviant sits at index 0 (wins ties) with valuation ``v``; rivals play
    the strategy.  With defection, a bid below gamma*v is frontrun and pays
    zero.  Paired differences against the reference bid isolate the strategy
    effect from sampling noise.

    A bid is paid v - bid or nothing, so the scan counts each bid's paid
    blocks: the rival tops it matches or beats, among the blocks whose builder
    honours an exposed bid.  Exposed bids are the lower ones, so two bids are
    both paid in the smaller of their counts.  Memory is O(chunk + bids).
    """
    if not (v > 0 and math.isfinite(v)):
        raise DomainError("v must be positive and finite")
    bids = np.asarray(bids, dtype=float)
    if bids.ndim != 1 or bids.size == 0 or not np.all(np.isfinite(bids) & (bids >= 0)):
        raise ParameterError("bids must be a 1-d array of finite nonnegative bids")
    ref = bids.size // 2 if reference_index is None else int(reference_index)
    if not 0 <= ref < bids.size:
        raise ParameterError(f"reference_index must be in [0, {bids.size})")
    _check_run_args(blocks, seed, workers=None, antithetic=False, trace_cap=0)

    exposed = strategy.gamma * v > bids  # frontrunnable bids
    wins = np.zeros(bids.size, dtype=np.int64)
    for i, size in enumerate(_chunk_sizes(blocks)):
        rival_top, defect = _rival_chunk(v, strategy, profile, seed, i, size)
        wins += np.where(exposed, np.searchsorted(np.sort(rival_top[~defect]), bids, "right"),
                         np.searchsorted(np.sort(rival_top), bids, "right"))

    pay = v - bids
    both = np.minimum(wins, wins[ref])
    means, stderrs = _atom_moments(blocks, [(pay, wins)])
    diff_means, diff_stderrs = _atom_moments(
        blocks, [(pay - pay[ref], both), (pay, wins - both), (-pay[ref], wins[ref] - both)])
    return DeviationScan(valuation=float(v), bids=bids, means=means, stderrs=stderrs,
                         diff_means=diff_means, diff_stderrs=diff_stderrs,
                         reference_index=ref)
