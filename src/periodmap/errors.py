"""Exception taxonomy shared across the package.

Input errors cover malformed data (wrong shapes, non-rational entries,
asymmetric gram matrices).  Domain and precondition errors cover
well-formed data that a particular operation rejects.  The CLI maps
input errors to exit code 2 and the rest to exit code 1.
"""


class InputError(ValueError):
    """Malformed input: bad shape, bad literal, asymmetric gram matrix."""


class DimensionMismatchError(InputError):
    """Operands live over different ambients or have incompatible sizes."""


class DomainError(ValueError):
    """Well-formed input outside the mathematical domain of an operation."""


class NumericalDomainError(DomainError):
    """Floating-point input that violates a domain constraint beyond tolerance."""


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class InconsistentDataError(ValueError):
    """Structured data whose pieces contradict each other."""


class ResourceError(RuntimeError):
    """The request exceeds the documented size guard of an operation."""
