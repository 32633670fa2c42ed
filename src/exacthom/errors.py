"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: InputError and its subclasses
mean malformed or inconsistent input (exit 2), ResourceBudgetError means a
configured size budget was exceeded (exit 3), and InvariantViolation means a
mathematical identity that must hold failed to hold (exit 1).
"""

__all__ = [
    "ExactHomError",
    "InputError",
    "ComplexValidityError",
    "UnsupportedFunctorError",
    "ResourceBudgetError",
    "InvariantViolation",
]


class ExactHomError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ExactHomError):
    """Malformed input: bad shapes, failed preconditions, unparsable data."""


class ComplexValidityError(InputError):
    """A chain complex whose differentials do not compose to zero or chain."""


class UnsupportedFunctorError(InputError):
    """A functor outside the supported set was requested for this operation."""


class ResourceBudgetError(ExactHomError):
    """A computation would exceed a configured size budget."""


class InvariantViolation(ExactHomError):
    """A mathematical invariant that the library guarantees was violated."""
