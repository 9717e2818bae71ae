"""Exception hierarchy for the auction toolkit.

All public operations raise subclasses of :class:`MevAuctionError` so callers
can distinguish domain failures from programming errors.  The CLI maps these
to exit code 1; anything else is a bug.
"""


class MevAuctionError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(MevAuctionError, ValueError):
    """A structural parameter violates its contract (n, rho, gamma, sigma...)."""


class DomainError(MevAuctionError, ValueError):
    """A function argument is outside the mathematical domain (e.g. v <= 0)."""


class TailUnderflowError(MevAuctionError, FloatingPointError):
    """A conditional CDF underflowed below 1e-300 in the extreme left tail.

    Raised instead of silently dividing by zero; the caller should move the
    evaluation point toward the bulk of the distribution.
    """


class BoundaryError(MevAuctionError):
    """The ODE left boundary sits too deep in the tail; enlarge v_min."""


class SolverError(MevAuctionError):
    """The bid solver produced a curve violating its invariants."""


class CutoffMonotonicityError(MevAuctionError):
    """The indifference curve is not strictly monotone where the threat binds.

    Carries the offending grid interval; the cutoff would not be unique, so
    no root is selected silently.
    """

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class DegenerateCutoffError(MevAuctionError):
    """The indifference curve is locally flat at the cutoff (|slope| < 1e-12)."""


class ConsistencyError(MevAuctionError):
    """Mismatched pieces passed together (e.g. strategy solved for another epsilon)."""


class SchemaError(MevAuctionError):
    """An input file does not match the documented column schema."""


class IngestError(MevAuctionError):
    """Too many malformed rows while reading a bundle file."""


class ThinSampleError(MevAuctionError):
    """Not enough records of a type to build even a minimal bribe schedule."""


class ConfigurationError(MevAuctionError):
    """A required configuration entry (gamma estimate, proxy window) is
    missing or violates its contract."""
