"""Exception hierarchy shared by all modules."""


class BasisBoundError(Exception):
    """Base class for all library errors."""


class MalformedInputError(BasisBoundError):
    """Input violates a structural requirement (shape, range, field mix)."""


class HypothesisViolationError(BasisBoundError):
    """A stated hypothesis of the operation does not hold for the input."""

    def __init__(self, message, clause=None):
        super().__init__(message)
        self.clause = clause


class InsufficientInputError(BasisBoundError):
    """Too little data for the statistic (e.g. a single-vector system)."""


class UnsupportedOrderError(BasisBoundError):
    """Requested design order outside the implemented constructions."""


class SingularSystemError(BasisBoundError):
    """Linear system has no unique solution; carries the matrix rank."""

    def __init__(self, message, rank):
        super().__init__(message)
        self.rank = rank


class ResourceGuardError(BasisBoundError):
    """Search space exceeds the configured guard."""


class InternalInconsistencyError(BasisBoundError):
    """A construction or solver failed its own postcondition."""
