"""Exception hierarchy shared by all andovar modules."""

from __future__ import annotations


class AndovarError(Exception):
    """Base class for all andovar errors.

    Carries a ``details`` dict with the measured quantities (residuals,
    norms, shapes) so callers can report diagnostics.
    """

    def __init__(self, message: str = "", **details):
        super().__init__(message)
        self.details = details


class InputError(AndovarError, ValueError):
    """Malformed or out-of-contract input (bad shapes, non-finite entries, ...)."""


class ValidationError(AndovarError):
    """An input pair or matrix failed a mathematical validation check."""


class DimensionMismatchError(ValidationError):
    pass


class CommutationError(ValidationError):
    pass


class ContractionError(ValidationError):
    pass


class PurityError(ValidationError):
    """An operation that needs a pure contraction received a non-pure one."""


class NumericError(AndovarError):
    """A numerical routine failed (non-convergence, fatal conditioning)."""


class ChainViolationError(AndovarError):
    """The certified norm chain failed beyond its sampling slack.

    The underlying inequality is a theorem, so a violation indicates a bug
    in the pipeline rather than in the input; this is deliberately a hard
    error.
    """
