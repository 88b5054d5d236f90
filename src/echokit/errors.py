"""Error types shared across the package.

Every error echokit raises for bad input or configuration derives from
EchokitError, so the command line can turn any of them into a failed
report while other exceptions still surface as tracebacks.
"""

from numbers import Integral


class EchokitError(Exception):
    """Base of the package's typed errors."""


class ShapeError(EchokitError, ValueError):
    """Operands have incompatible or invalid shapes."""


class ConfigurationError(EchokitError, ValueError):
    """A parameter value is outside its documented domain."""


class ValidationError(EchokitError, ValueError):
    """Input data violates a documented invariant (e.g. non-binary mask)."""


class DomainError(EchokitError, ValueError):
    """A physical quantity is outside its admissible range."""


class InputNotFoundError(EchokitError, FileNotFoundError):
    """A required input file or directory does not exist."""


def check_int_fields(config, **lengths) -> None:
    """Raise ConfigurationError unless each named field of *config* holds a
    non-negative integer, or, where its length is given, a tuple of that
    many non-negative integers.

    A bool is not an integer here.  Model configs call this first, so a
    value from a hand-edited checkpoint manifest cannot reach the layers.
    """
    for name, length in lengths.items():
        value = getattr(config, name)
        items = value if length is not None and isinstance(value, tuple) else (value,)
        if (length is not None and len(items) != length) or not all(
            isinstance(v, Integral) and not isinstance(v, bool) and v >= 0 for v in items
        ):
            shape = ("a non-negative integer" if length is None
                     else f"a tuple of {length} non-negative integers")
            raise ConfigurationError(f"{name} must be {shape}, got {value!r}")
