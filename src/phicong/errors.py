"""Exception hierarchy shared by all modules."""


class PhicongError(Exception):
    """Base class for all library errors."""


class DomainError(PhicongError, ValueError):
    """Input outside the mathematical domain of an operation."""


class UnsupportedPrimeError(DomainError):
    """Prime does not satisfy the congruence condition required here."""


class PrecisionError(PhicongError):
    """Inputs do not carry enough series precision for the request."""


class InternalConsistencyError(PhicongError, RuntimeError):
    """A cross-check that should be impossible to fail has failed (bug)."""
