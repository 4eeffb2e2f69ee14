"""Exception taxonomy shared across the package.

Input errors cover malformed data (wrong shapes, non-rational entries,
asymmetric gram matrices).  Domain and precondition errors cover
well-formed data that a particular operation rejects.  The CLI maps
input errors to exit code 2 and the rest to exit code 1.

Every entry point reads its counts through ``check_int``, its real
numbers through ``check_real`` and its exact numbers through
``check_rational``, once; a bool is none of them.
"""

import math
import numbers
from fractions import Fraction


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


def check_rational(value) -> Fraction:
    """value as an exact Fraction: a Fraction, an int, a "p/q" string or
    a float with an integral value, numpy's ints and floats too.  A bool
    (numpy's too), a non-integral or non-finite float or anything else
    is InputError."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    # numpy's scalars are read without importing numpy, by their dtype
    kind = getattr(getattr(value, "dtype", None), "kind", None)
    if isinstance(value, bool) or kind == "b":
        raise InputError("a boolean is not a number")
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational literal: {value!r}") from exc
    if kind == "f":
        value = float(value)  # exact from float16 and float32
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputError(f"not a finite number: {value!r}")
        if not value.is_integer():
            raise InputError(
                f"float {value!r} is not exact; give it as a 'p/q' string or a Fraction"
            )
        return Fraction(int(value))
    raise InputError(f"cannot interpret {type(value).__name__} as a rational")
