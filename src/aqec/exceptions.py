"""Exception types raised by the library.

Everything derives from AqecError so callers can catch library failures
with a single except clause; the CLI maps them to exit code 3.
"""


class AqecError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(AqecError):
    """Operands have incompatible shapes or dimensions."""


class NonFiniteInput(AqecError):
    """Input array holds a NaN or infinite entry."""


class NotHermitian(AqecError):
    """Matrix fails the Hermiticity tolerance."""


class NotPSD(AqecError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class NotQubitCode(AqecError):
    """Operation requires a code of dimension 2."""


class NotTP(AqecError):
    """Channel is neither trace preserving nor proportionally trace
    preserving on the relevant subspace."""


class BudgetExceeded(AqecError):
    """Requested Kraus expansion would exceed the memory budget."""


class ParamOutOfRange(AqecError):
    """Model parameter outside its valid range."""


class PreconditionViolated(AqecError):
    """Solver called on input lacking a required structural property."""


class CertificateInvalid(AqecError):
    """Perfect-correction certificate has residual above tolerance."""
