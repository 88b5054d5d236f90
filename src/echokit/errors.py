"""Error types shared across the package.

Every error echokit raises for bad input or configuration derives from
EchokitError, so the command line can turn any of them into a failed
report while other exceptions still surface as tracebacks.
"""


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
