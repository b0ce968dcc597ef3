"""Exception types shared across the package, and the count check that
raises them."""


class SqgradError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SqgradError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class DimensionMismatchError(SqgradError, ValueError):
    """Vector length does not match the dimension of the problem."""


class DimensionTooLargeError(SqgradError, ValueError):
    """Exact enumeration was requested above the supported ceiling."""


class NotInvertibleError(SqgradError):
    """The cdf has no functional inverse (purely atomic law)."""


class NoDensityError(SqgradError):
    """The law has no density, so density-based operations are undefined."""


class TupleError(SqgradError):
    """An estimator tuple violates a precondition at the evaluation point."""


class ConstructionError(SqgradError):
    """A numerically constructed object failed its internal sanity checks."""


class ScheduleError(SqgradError, ValueError):
    """A step-size schedule was built from invalid parameters."""


class EncodingError(SqgradError, ValueError):
    """An encoded state is invalid for the requested encoding law."""


class ConfigError(SqgradError, ValueError):
    """A configuration string or file could not be interpreted."""


class EmptyInputError(SqgradError, ValueError):
    """An aggregation was asked to summarise zero inputs."""


def _count(name: str, value, least: int = 1, error: type[Exception] = DomainError) -> int:
    """``value`` as an int; ``error`` naming it unless it is an integer
    (an integral float passes) of at least ``least``."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value or count < least:
        raise error(f"{name} must be an integer of at least {least}, got {value!r}")
    return count
