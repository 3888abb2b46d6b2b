"""Exception hierarchy.

Domain violations raise DomainError, structural size problems raise
DimensionMismatchError.  Quadrature that cannot certify a value within its
budget raises InconclusiveQuadratureError; this is deliberately distinct from
a computed value of +inf, which always comes from an analytic divergence
decision, never from a failed integration.
"""


class OrliczKitError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(OrliczKitError, ValueError):
    """Input outside the mathematical domain of an operation."""


class DimensionMismatchError(OrliczKitError, ValueError):
    """Incompatible matrix or atom-list dimensions."""


class ConvergenceError(OrliczKitError, RuntimeError):
    """An iterative solver exhausted its budget without bracketing a root."""


class InconclusiveQuadratureError(OrliczKitError, RuntimeError):
    """Numerical integration could not certify a finite value or a divergence.

    Raised by the quadrature kernel, it carries the `interval` integrated
    over, the error `budget`, the error `estimate` reached (inf for a
    non-finite integrand value) and the number of `panels` in use, and its
    message names them.  They are None when no quadrature was run (a missing
    envelope, a truncation bound that did not certify)."""

    def __init__(self, message, *, interval=None, budget=None, estimate=None, panels=None):
        if interval is not None:
            message = (
                f"{message} on [{interval[0]:.6g}, {interval[1]:.6g}]: error estimate "
                f"{estimate:.3g} against budget {budget:.3g} with {panels} panels"
            )
        super().__init__(message)
        self.interval = interval
        self.budget = budget
        self.estimate = estimate
        self.panels = panels
