"""Exception taxonomy shared across the package.

Input errors cover malformed data (wrong shapes, non-rational entries,
asymmetric gram matrices).  Domain and precondition errors cover
well-formed data that a particular operation rejects.  The CLI maps
input errors to exit code 2 and the rest to exit code 1.

Every entry point reads its counts through ``check_int`` and its real
numbers through ``check_real``, once; a bool or a string is neither.
"""

import math
import numbers


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


def check_int(value, name: str, low: int = 1, high: int | None = None):
    """value, if it is an int (numpy's too, not a bool) in low..high;
    otherwise InputError naming name.  high None means no upper bound."""
    # a plain int is taken first: the abstract-class test costs 40 times more
    if type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        if low <= value and (high is None or value <= high):
            return value
    where = f">= {low}" if high is None else f"in {low}..{high}"
    raise InputError(f"{name} must be an int {where}, got {value!r}")


def check_real(value, name: str, positive: bool | None = True):
    """value, if it is a real number (not a bool or a string) that is
    finite, and positive when positive is True; otherwise InputError
    naming name.  positive None checks the type only, for a caller that
    refuses a non-finite value with an error of its own."""
    if type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        if positive is None or (math.isfinite(value) and (value > 0 or not positive)):
            return value
    what = {True: "positive and finite", False: "a finite real number", None: "a real number"}
    raise InputError(f"{name} must be {what[positive]}, got {value!r}")
