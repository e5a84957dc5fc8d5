"""Exception types shared across the package."""


class SegrenumError(Exception):
    """Base class for all package-specific errors."""


class RingMismatchError(SegrenumError):
    """Operands live in different ring contexts."""


class ZeroPolynomialError(SegrenumError):
    """An operation needed a nonzero polynomial."""


class ResourceLimitError(SegrenumError):
    """A budget was exceeded: `groebner.MAX_BASIS`, `MAX_DEGREE`,
    `rings.MAX_EXPONENT`, or Python's limit on the digits of a printed int.

    Carries partial statistics so the failure can be reported, never
    silently truncated.
    """

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = dict(stats or {})


class GenericityError(SegrenumError):
    """Random linear combinations failed certification across seeds."""


class DimensionAnomalyError(SegrenumError):
    """A cut failed to drop dimension (internal: triggers a seed retry)."""


class PreconditionError(SegrenumError):
    """An operation's stated precondition does not hold for the input."""


class ConsistencyError(SegrenumError):
    """An internal cross-check failed; indicates a bug, never bad input."""


class InputSyntaxError(SegrenumError):
    """Input document is malformed; carries position information."""

    def __init__(self, message, line=None, column=None):
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)
        self.line = line
        self.column = column
