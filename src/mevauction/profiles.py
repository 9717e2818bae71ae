"""Structural parameters of an MEV opportunity type.

A :class:`TypeProfile` bundles everything the game needs about one MEV
category: how many searchers compete (``n``), how correlated their private
signals are (``rho``), what fraction of the opportunity a defecting builder
can replicate (``gamma``), and the log-normal value scale (``mu``, ``sigma``,
both on the log-USDC scale).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ParameterError


class MevType(str, enum.Enum):
    SANDWICH = "sandwich"
    NAKED_ARB = "naked_arb"
    LIQUIDATION = "liquidation"
    BACKRUN = "backrun"

    @classmethod
    def parse(cls, text: str) -> "MevType":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ParameterError(
                f"unknown MEV type {text!r}; expected one of "
                f"{[t.value for t in cls]}"
            ) from None


@dataclass(frozen=True)
class TypeProfile:
    """Per-type structural parameters.

    sigma = 0 is tolerated as a degenerate case (all values equal exp(mu)),
    but the equilibrium and revenue solvers require sigma > 0.
    """

    tau: MevType
    n: int
    rho: float
    gamma: float
    mu: float
    sigma: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ParameterError(f"n must be an integer >= 2, got {self.n!r}")
        if not (0.0 <= self.rho < 1.0) or not math.isfinite(self.rho):
            raise ParameterError(f"rho must be in [0, 1), got {self.rho!r}")
        if not (0.0 <= self.gamma <= 1.0) or not math.isfinite(self.gamma):
            raise ParameterError(f"gamma must be in [0, 1], got {self.gamma!r}")
        if not math.isfinite(self.mu):
            raise ParameterError(f"mu must be finite, got {self.mu!r}")
        if not (self.sigma >= 0.0) or not math.isfinite(self.sigma):
            raise ParameterError(f"sigma must be >= 0, got {self.sigma!r}")

    def require_dispersion(self):
        if self.sigma <= 0.0:
            raise ParameterError("this operation requires sigma > 0")
