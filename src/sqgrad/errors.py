"""Exception types shared across the package, and the one check of spec
fields and counts, ``_checked``, that raises them."""

import numbers


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


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _count(name: str, value, least: int = 1, error: type[Exception] = DomainError) -> int:
    """``value`` as an int; ``error`` naming it unless it is a number (a
    bool is not one) with no fractional part, of at least ``least``."""
    try:
        count = int(value) if _is_number(value) else None
    except (ValueError, OverflowError):
        count = None
    if count is None or count != value or count < least:
        raise error(f"{name} must be an integer of at least {least}, got {value!r}")
    return count


_KIND_NAMES = {float: "a number", str: "a string", list: "an array", dict: "an object",
               tuple: "a number or an array of numbers"}


def _checked(name: str, value, kind, error: type[Exception] = ConfigError):
    """``value`` as ``kind``, else ``error`` naming ``name``.  An int kind
    is a count of at least that int; ``float`` makes any number a float;
    ``tuple`` takes a number, or a list, tuple or 1-D array of numbers as
    a tuple of floats; any other kind is a class ``value`` must be of."""
    if isinstance(kind, int):
        return _count(name, value, kind, error)
    if kind in (float, tuple):
        if _is_number(value):
            return float(value)
        if kind is tuple and (isinstance(value, (list, tuple)) or getattr(value, "ndim", 0) == 1):
            return tuple(_checked(name, v, float, error) for v in value)
    elif isinstance(value, kind):
        return value
    what = _KIND_NAMES.get(kind) or f"a {kind.__name__}"
    raise error(f"field {name!r} must be {what}, got {value!r}")


def _check_kinds(spec, kinds: dict, error: type[Exception] = ConfigError) -> None:
    """Check a spec dataclass however it was built: each field in ``kinds``
    becomes what ``_checked`` returns, and only one whose default is None
    may be None."""
    for name, kind in kinds.items():
        value = getattr(spec, name)
        if value is not None or spec.__dataclass_fields__[name].default is not None:
            object.__setattr__(spec, name, _checked(name, value, kind, error))
