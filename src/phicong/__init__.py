"""Exact computations for two families of phi-congruence subgroups of
the modular group: the quasi-unipotent family (membership, division
polynomials, noncongruence q-expansions, denominator analysis) and the
rank-4 symplectic family (Grassmannian actions, surjectivity, cusp and
genus invariants)."""

from .errors import (DomainError, InternalConsistencyError, PhicongError,
                     PrecisionError, UnsupportedPrimeError)

__version__ = "1.0.0"

__all__ = [
    "DomainError",
    "InternalConsistencyError",
    "PhicongError",
    "PrecisionError",
    "UnsupportedPrimeError",
    "__version__",
]
