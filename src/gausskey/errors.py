"""Exception types shared across the package.

``GaussKeyError.field`` names the argument at fault ("nbar"), or two names
joined by "/" ("tau_min/tau_max"), when a channel, ``SimConfig`` or threshold
argument fails its check; every other error, such as a state an engine built
itself, has ``field`` None.
"""

__all__ = [
    "GaussKeyError",
    "DomainError",
    "InvalidStateError",
    "NumericError",
    "UnsupportedChannelError",
    "DegenerateMeasurementError",
    "EmptyStatisticsError",
]


class GaussKeyError(Exception):
    """Base class for every error raised by this package."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class DomainError(GaussKeyError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidStateError(GaussKeyError, ValueError):
    """A matrix is not a valid Gaussian-state covariance matrix."""


class NumericError(GaussKeyError, ArithmeticError):
    """A numerical guard tripped beyond the tolerated float noise."""


class UnsupportedChannelError(GaussKeyError, ValueError):
    """The requested channel class is outside the supported set."""


class DegenerateMeasurementError(GaussKeyError, ValueError):
    """A homodyne measurement would condition on a zero-variance quadrature."""


class EmptyStatisticsError(GaussKeyError, RuntimeError):
    """A simulation kept too few rounds to form moment estimates."""
