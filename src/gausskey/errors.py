"""Exception types shared across the package, and the one argument rule.

A real is anything ``float()`` accepts, numpy scalars included, but no
complex number of any type and no array of one or more dimensions: numpy
converts those with a warning, dropping the imaginary part or (before numpy
2.4) the shape.  ``_float`` turns anything else into NaN, which the range
check after it refuses.  A count is a whole number that fits a float
(``_count``), and a choice is a ``str`` among its options (``_choice``).
Each refusal is a ``DomainError``.

``GaussKeyError.field`` names the argument at fault ("nbar"), or two names
joined by "/" ("tau_min/tau_max"), when a channel, ``SimConfig``, threshold,
``n_modes`` or mode argument fails its check (a mode list names the
caller's argument: ``keep``, ``modes``, ``measured_mode``, ``mode``, or
``i``/``j`` in ``mode_block``).  Every other error has ``field`` None:
variances outside ``SimConfig``, the engine and homodyne choices,
``kept_rounds``, ``entropy_g``, and states an engine built itself.
"""

import math
import numbers

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


def _nonreal(x) -> bool:
    """True for a complex number of any type and for an array of one or more dimensions."""
    t = type(x)
    return t is not float and t is not int and (
        getattr(x, "ndim", 0) != 0
        or isinstance(x, numbers.Complex) and not isinstance(x, numbers.Real)
    )


def _whole(x) -> bool:
    """True if ``x`` is a whole number that fits a float, such as 3 or 1e5."""
    if _nonreal(x):
        return False
    try:
        return int(x) == x and math.isfinite(x)
    except (TypeError, ValueError, OverflowError):  # nan, inf, 10**400, non-numbers
        return False


def _shown(x, fmt=str) -> str:
    """``fmt(x)`` for the message of an error that refuses ``x``.

    An int past Python's int-to-str digit limit (``sys.get_int_max_str_digits``),
    such as 10**5000, alone or inside a list, cannot be printed; it is
    described by its size instead, so building the message cannot raise.
    """
    try:
        return fmt(x)
    except ValueError:
        if isinstance(x, int):
            return f"{'a negative' if x < 0 else 'an'} integer of {x.bit_length()} bits"
        return f"a {type(x).__name__} holding an integer too long to print"


def _float(x) -> float:
    """``float(x)``, never raising: +-inf past float range (10**400), NaN for a non-real (None)."""
    if type(x) is float:
        return x
    if _nonreal(x):
        return math.nan
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf
    except (TypeError, ValueError):
        return math.nan


def _count(x, low: int, what: str, field: str | None = None) -> int:
    """``int(x)`` if ``x`` is a whole number >= ``low`` that fits a float, else raise."""
    if not (_whole(x) and x >= low):
        raise DomainError(f"{what} must be a whole number >= {low}, got {_shown(x, repr)}", field)
    return int(x)


def _choice(x, options: tuple, what: str, field: str | None = None) -> None:
    """Raise unless ``x`` is a ``str`` in ``options``."""
    if not (isinstance(x, str) and x in options):
        raise DomainError(f"unknown {what} {_shown(x, repr)}; expected one of {options}", field)
