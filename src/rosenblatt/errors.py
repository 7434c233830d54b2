"""Exception hierarchy for the rosenblatt package.

Every error raised on purpose derives from RosenblattError so callers can
catch the package's failures without swallowing programming mistakes.
"""
from __future__ import annotations


class RosenblattError(Exception):
    """Base class for all package-level errors."""


class InvalidInputError(RosenblattError):
    """Malformed or structurally invalid input (wrong shape, empty list, NaN)."""


class DomainError(RosenblattError):
    """Arguments outside the mathematical domain of the operation."""


class SizeError(RosenblattError):
    """Request exceeds a hard size cap (factorial or tensor blow-up)."""


class DivergentIntegralError(RosenblattError):
    """The requested integral diverges; carries the offending exponent(s)."""

    def __init__(self, message: str, exponents: dict[str, float] | None = None):
        super().__init__(message)
        self.exponents = dict(exponents) if exponents else {}


class QuadratureError(RosenblattError):
    """A quadrature produced a non-finite value for integrable input."""


class PathInfeasibleError(RosenblattError):
    """A boundary-path step would leave the admissible region."""

    def __init__(self, message: str, epsilon: float | None = None):
        super().__init__(message)
        self.epsilon = epsilon


class GridTooSmallError(RosenblattError):
    """Grid window too small for the requested tail tolerance."""

    def __init__(self, message: str, required_window: float | None = None):
        super().__init__(message)
        self.required_window = required_window


class FitError(RosenblattError):
    """Degenerate input to a regression (zero spread, identical points)."""
