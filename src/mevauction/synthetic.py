"""Synthetic bundle streams from the game engine.

For every block and configured type the auction is played once (or
``opportunities_per_block`` times with a shared per-block common factor) and
the winner is emitted as a bundle record: tip is the payment actually
collected and profit is value minus tip.  A frontrun block collects no
payment and emits no record, matching revert protection.

This is the verification harness for the estimators: plant a profile and a
defection rate (or a hand-built strategy with a known cutoff), generate,
and check that the bribe schedule and the plateau estimate recover what was
planted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .empirics import BundleRecord
from .equilibrium import PiecewiseStrategy, solve_strategy
from .errors import ParameterError
from .profiles import TypeProfile
from .rng import stream
from .values import affiliated_signal

DEFAULT_BUILDER_POOL = ("builder_alpha", "builder_beta", "builder_gamma", "builder_delta")
_CHUNK = 1 << 14


@dataclass(frozen=True)
class SyntheticSpec:
    """One type's generator configuration."""

    profile: TypeProfile
    epsilon: float
    strategy: PiecewiseStrategy | None = None
    searcher_pool: tuple | None = None

    def resolved_strategy(self) -> PiecewiseStrategy:
        if self.strategy is not None:
            return self.strategy
        return solve_strategy(self.profile, self.epsilon)

    def resolved_searchers(self) -> tuple:
        if self.searcher_pool is not None:
            if len(self.searcher_pool) != self.profile.n:
                raise ParameterError("searcher pool must have one label per entrant")
            return tuple(self.searcher_pool)
        return tuple(f"{self.profile.tau.value}_searcher_{i:02d}"
                     for i in range(self.profile.n))


def generate_synthetic(specs, blocks: int, seed: int, *,
                       opportunities_per_block: int = 1,
                       builder_pool=DEFAULT_BUILDER_POOL,
                       base_block_number: int = 1):
    """Yield bundle records for ``blocks`` blocks across the given specs.

    ``specs`` is an iterable of SyntheticSpec (or a mapping whose values are
    specs).  With ``opportunities_per_block`` > 1 the auctions of one block
    share the block's common factor, so within-block values are affiliated
    exactly as the signals are.
    """
    if blocks < 0:
        raise ParameterError("blocks must be >= 0")
    if opportunities_per_block < 1:
        raise ParameterError("opportunities_per_block must be >= 1")
    if isinstance(specs, dict):
        specs = list(specs.values())
    else:
        specs = list(specs)
    builder_pool = tuple(builder_pool)
    if not builder_pool:
        raise ParameterError("builder pool must be nonempty")
    if blocks == 0:
        return

    resolved = [(spec, spec.resolved_strategy(), spec.resolved_searchers())
                for spec in specs]

    for t_idx, (spec, strategy, searchers) in enumerate(resolved):
        profile = spec.profile
        n, k = profile.n, opportunities_per_block
        done = 0
        chunk_idx = 0
        while done < blocks:
            size = min(_CHUNK, blocks - done)
            rng = stream(seed, t_idx, chunk_idx, 0)
            Z = rng.standard_normal(size)  # one common factor per block
            u = rng.standard_normal((size, k, n))
            z = affiliated_signal(Z[:, None, None], u, profile.rho)
            values = np.exp(profile.mu + profile.sigma * z)
            bids = strategy.bid(values)
            winner = np.argmax(bids, axis=2)
            b_idx, o_idx = np.ogrid[:size, :k]
            top_bid = bids[b_idx, o_idx, winner]
            top_val = values[b_idx, o_idx, winner]
            aux = stream(seed, t_idx, chunk_idx, 1)
            defect = aux.random((size, k)) < spec.epsilon
            frontrun = defect & (profile.gamma * top_val > top_bid)
            builder_ids = aux.integers(0, len(builder_pool), size=(size, k))
            for b in range(size):
                block_no = base_block_number + done + b
                for o in range(k):
                    if frontrun[b, o]:
                        continue  # reverted, no payment, no record
                    tip = float(top_bid[b, o])
                    value = float(top_val[b, o])
                    yield BundleRecord(
                        tx_hash=f"0x{seed & 0xffffffff:08x}{t_idx:02x}"
                                f"{block_no:010x}{o:02x}",
                        block_number=block_no,
                        mev_type=profile.tau,
                        builder=builder_pool[builder_ids[b, o]],
                        searcher=searchers[int(winner[b, o])],
                        tip=tip,
                        profit=value - tip,
                    )
            done += size
            chunk_idx += 1
