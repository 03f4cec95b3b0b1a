"""Exception types raised on contract violations.

Every library-specific error derives from NottinghamError, so callers can
catch the whole family at once (the CLI maps them to exit code 2).
"""


class NottinghamError(Exception):
    """Base class for all library-specific errors."""


class MismatchedContext(NottinghamError):
    """Operands disagree on the characteristic p or the truncation order N."""


class NotAUnit(NottinghamError):
    """Reciprocal of a series whose constant term is zero."""


class NonzeroConstant(NottinghamError):
    """The inner series of a composition (or the right-hand side of a root
    equation) must have constant term zero."""


class NotInvertible(NottinghamError):
    """Compositional inversion needs f(0) = 0 and an invertible linear term."""


class WrongCharacteristic(NottinghamError):
    """Operation only defined in a different characteristic."""


class BadRoot(NottinghamError):
    """m-th roots of unit series require constant term one."""


class NotCoprime(NottinghamError):
    """The root index m must be coprime to the characteristic."""


class BadTruncation(NottinghamError):
    """Truncating can only lower the precision, never raise it."""


class BadPrecision(NottinghamError, ValueError):
    """Truncation order not an int in the range the operation needs."""


class ZeroParameter(NottinghamError):
    """A parameter that must be a nonzero field element was zero."""


class NotNormalized(NottinghamError):
    """Group elements must be series of the form t + (order >= 2 terms)."""
