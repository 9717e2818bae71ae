"""Synthetic bundle streams from the game engine.

For every block and configured type the auction is played once (or
``opportunities_per_block`` times with a shared per-block common factor) by
the game engine's one chunk kernel, ``simulate._play``, and the winner is
emitted as a bundle record: tip is the payment actually collected and
profit is value minus tip.  A frontrun block collects no payment and emits
no record, matching revert protection.  Records are drawn one chunk of
``_CHUNK`` blocks at a time and emitted as one ``BundleTable`` per chunk
(``generate_chunks``), so memory is O(chunk); ``generate_synthetic``
expands the same chunks into records.  The chunk size is part of the stream
schedule (keyed (seed, type, chunk, purpose)).  Blocks are numbered from 1
for every type, each winning bundle's builder is drawn uniformly from
``BUILDER_POOL``, and the searcher labels of type tau are
``<tau>_searcher_00`` to ``<tau>_searcher_<n-1>``, one per entrant.  A
record's tx hash is ``0x``, the seed's low 32 bits and the type's index in
hex, then ``%010x%02x`` of its block and its auction index within the block
(``_tx_hashes`` builds a chunk's hashes in bulk).

This is the verification harness for the estimators: plant a profile and a
defection rate (or a hand-built strategy with a known cutoff), generate,
and check that the bribe schedule and the plateau estimate recover what was
planted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .empirics import MEV_TYPES, BundleTable
from .equilibrium import PiecewiseStrategy, solve_strategy
from .errors import ParameterError
from .profiles import TypeProfile
from .simulate import _chunk_sizes, _play

BUILDER_POOL = ("builder_alpha", "builder_beta", "builder_gamma", "builder_delta")
_CHUNK = 1 << 14


@dataclass(frozen=True)
class SyntheticSpec:
    """One type's generator configuration."""

    profile: TypeProfile
    epsilon: float
    strategy: PiecewiseStrategy | None = None

    def resolved_strategy(self) -> PiecewiseStrategy:
        if self.strategy is not None:
            return self.strategy
        return solve_strategy(self.profile, self.epsilon)


def generate_synthetic(specs, blocks: int, seed: int, *,
                       opportunities_per_block: int = 1):
    """Return an iterator of bundle records for ``blocks`` blocks of each spec.

    ``specs`` is an iterable of SyntheticSpec.  With
    ``opportunities_per_block`` > 1 the auctions of one block share the
    block's common factor, so within-block values are affiliated exactly as
    the signals are.  The arguments are checked and every strategy is
    resolved here, before the first record is drawn, so a bad argument
    raises before a caller opens its output.
    """
    chunks = generate_chunks(specs, blocks, seed,
                             opportunities_per_block=opportunities_per_block)
    return (rec for table in chunks for rec in table.records())


def generate_chunks(specs, blocks: int, seed: int, *,
                    opportunities_per_block: int = 1):
    """The records of ``generate_synthetic`` as an iterator of BundleTable
    chunks, one per drawn chunk of blocks and type (same arguments and
    checks)."""
    if blocks < 0:
        raise ParameterError("blocks must be >= 0")
    if seed < 0:
        raise ParameterError("seed must be >= 0")
    if opportunities_per_block < 1:
        raise ParameterError("opportunities_per_block must be >= 1")
    resolved = [(spec, spec.resolved_strategy()) for spec in specs]
    return _chunks(resolved, blocks, seed, opportunities_per_block)


def _chunks(resolved, blocks, seed, k):
    for t_idx, (spec, strategy) in enumerate(resolved):
        profile = spec.profile
        type_code = MEV_TYPES.index(profile.tau)
        searchers = tuple(f"{profile.tau.value}_searcher_{i:02d}" for i in range(profile.n))
        prefix = f"0x{seed & 0xffffffff:08x}{t_idx:02x}"
        first_block = 1
        for chunk, size in enumerate(_chunk_sizes(blocks, _CHUNK)):
            winner, top_bid, top_val, _, frontrun, coin = _play(
                strategy, profile, profile.gamma, spec.epsilon, (seed, t_idx, chunk),
                (size, k))
            builder_ids = coin.integers(0, len(BUILDER_POOL), size=(size, k))
            # surviving auctions in block-major order; a frontrun one reverts
            # unpaid and leaves no record
            b, o = np.nonzero(~frontrun)
            block = first_block + b
            tip = top_bid[b, o]
            yield BundleTable(
                _tx_hashes(prefix, block, o),
                block.astype(np.int64), np.full(b.size, type_code, dtype=np.intp),
                builder_ids[b, o].astype(np.intp), BUILDER_POOL,
                winner[b, o].astype(np.intp), searchers,
                tip, top_val[b, o] - tip)
            first_block += size


_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _tx_hashes(prefix, block, auction):
    """``prefix + "%010x%02x" % (block, auction)`` for each pair of the
    nonnegative integer arrays ``block`` and ``auction``, as a list.

    The hashes are written as hex digits into one uint8 array, one line per
    hash, and decoded and split once; a hash whose block or auction index
    needs more than its 10 or 2 digits keeps the ``%`` format.
    """
    if block.size == 0:
        return []
    p = len(prefix)
    buf = np.empty((block.size, p + 13), dtype=np.uint8)
    buf[:, :p] = np.frombuffer(prefix.encode("ascii"), dtype=np.uint8)
    digits = [(block, shift) for shift in range(36, -1, -4)] + [(auction, 4), (auction, 0)]
    for column, (values, shift) in enumerate(digits, start=p):
        buf[:, column] = _HEX_DIGITS[(values >> shift) & 15]
    buf[:, -1] = ord("\n")
    hashes = buf.tobytes()[:-1].decode("ascii").split("\n")
    for i in np.flatnonzero((block >> 40) | (auction >> 8)).tolist():
        hashes[i] = prefix + "%010x%02x" % (block[i], auction[i])
    return hashes
