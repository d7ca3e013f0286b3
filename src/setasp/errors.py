"""Exception types shared across the package."""


class SetAspError(Exception):
    """Base class for all errors raised by setasp."""


class ParseError(SetAspError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class SignatureError(SetAspError):
    """Inconsistent or illegal use of a symbol (arity clash, reserved name, ...)."""


class DomainLimitError(SetAspError):
    """A configured size cap would be exceeded.

    ``bound`` names the limit that fired so callers can report which knob
    to raise.
    """

    def __init__(self, message, bound):
        self.bound = bound
        super().__init__(f"{message} (limit: {bound})")


class BoundsError(SetAspError, ValueError):
    """A :class:`DomainBounds` field holds an illegal value."""


class RangeDeclarationError(SetAspError):
    """An evaluable function has no finite range declaration."""


class NotGZError(SetAspError):
    """The theory falls outside the aggregate-comparison fragment."""
