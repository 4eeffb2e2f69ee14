"""Hyperboloid model of the positive grassmannian of a (1, n) form.

When b+ = 1 the space of maximal positive-definite subspaces is the set
of positive lines, which meets the hyperboloid {x . x = 1, x0 > 0} in
exactly one point.  This module works with float coordinates in the
standard diagonal form (route general gram matrices through
``standard_embedding`` first) and classifies constraint loci of rational
subspaces exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .bilinear import (
    Subspace,
    _is_list,
    lorentzian_rank,
    positive_vectors,
    subspace_signature,
    nullspace as form_nullspace,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    InputError,
    NumericalDomainError,
    check_real,
)

DISTANCE_CLAMP = 1e-9
HPOINT_FLOOR = 1e-7  # absolute: |<x, x> - 1| an HPoint may always have
# relative: |<x, x> - 1| may also reach HPOINT_ROUNDING * 2^-52 * sum x_i^2,
# the float rounding of <x, x>, which grows as x_0^2 towards the disk rim
HPOINT_ROUNDING = 8
# relative to v_0^2: a null direction may have |<v, v>| up to this times
# v_0^2.  Its disk point d has |d|^2 = 1 - <v, v> / v_0^2, so the slack
# keeps every ideal point, and every IdealPoint mark of a render, within
# it of the boundary circle in |d|^2
NULL_DIRECTION_SLACK = 1e-9


def mink_dot(v: Sequence[float], w: Sequence[float]) -> float:
    """x0*y0 - sum(xi*yi): the diagonal form of signature (1, n), on two
    vectors of one R^{1,n} (DimensionMismatchError otherwise)."""
    if len(v) != len(w):
        raise DimensionMismatchError(
            f"cannot pair vectors of R^{{1,{len(v) - 1}}} and R^{{1,{len(w) - 1}}}"
        )
    return v[0] * w[0] - sum(a * b for a, b in zip(v[1:], w[1:]))


def _floats(v, what: str, least: int = 0) -> tuple[float, ...]:
    """The coordinates of v as floats: v must be a list of real numbers
    (InputError), at least ``least`` of them, each finite (DomainError)."""
    if not _is_list(v):
        raise InputError(f"{what} must be a list of real numbers, got {v!r}")
    x = tuple(float(check_real(c, what, positive=None)) for c in v)
    if len(x) < least:
        raise DomainError(f"{what} must have at least {least} entries, got {len(x)}")
    if not all(map(math.isfinite, x)):
        raise DomainError(f"{what} must be finite: {x}")
    return x


@dataclass(frozen=True)
class HPoint:
    """A point on the upper hyperboloid sheet in R^{1,n}: x_0 > 0, and
    <x, x> > 0 equals 1 up to the wider of HPOINT_FLOOR and HPOINT_ROUNDING."""

    coords: tuple[float, ...]

    def __post_init__(self):
        x = _floats(self.coords, "hyperboloid coordinates", 2)
        norm = mink_dot(x, x)
        slack = max(HPOINT_FLOOR, HPOINT_ROUNDING * 2.0**-52 * sum(c * c for c in x))
        if not (norm > 0 and abs(norm - 1.0) <= slack) or x[0] <= 0:
            raise DomainError(f"not on the upper hyperboloid sheet: {x} (norm {norm:.3e})")

    @property
    def n(self) -> int:
        return len(self.coords) - 1


def line_to_hpoint(v: Sequence[float]) -> HPoint:
    """Normalize a positive vector to its hyperboloid representative."""
    vv = _floats(v, "vector", 2)
    norm = mink_dot(vv, vv)
    if norm <= 0:
        raise DomainError(f"vector is not positive: norm {norm}")
    scale = 1.0 / math.sqrt(norm)
    if vv[0] < 0:
        scale = -scale
    return HPoint(tuple(x * scale for x in vv))


def to_poincare_disk(p: HPoint) -> tuple[float, ...]:
    """Disk coordinates x_i / (1 + x_0); the image has euclidean norm < 1."""
    x = p.coords
    return tuple(xi / (1.0 + x[0]) for xi in x[1:])


def disk_to_hpoint(d: Sequence[float]) -> HPoint:
    """Inverse of the disk projection."""
    dd = _floats(d, "disk coordinates")
    r2 = sum(x * x for x in dd)
    if r2 >= 1.0:
        raise DomainError(f"disk point must have norm < 1, got |d|^2 = {r2}")
    denom = 1.0 - r2
    return HPoint(tuple([(1.0 + r2) / denom] + [2.0 * x / denom for x in dd]))


def hyperbolic_distance(p: HPoint, q: HPoint) -> float:
    """arccosh of the pairing, with a small clamp for round-off."""
    c = mink_dot(p.coords, q.coords)
    if c < 1.0 - DISTANCE_CLAMP:
        raise NumericalDomainError(
            f"pairing {c} below 1 beyond tolerance; inputs are not hyperboloid points"
        )
    return math.acosh(max(c, 1.0))


def ideal_point_direction(v: Sequence[float]) -> tuple[float, ...]:
    """Boundary-circle coordinates of a null direction: one whose
    |<v, v>| is at most NULL_DIRECTION_SLACK v_0^2, else DomainError.
    The test scales with v, so a direction is read at any scale; only
    v_0 = 0 is refused as vanishing."""
    vv = _floats(v, "null direction", 2)
    if vv[0] == 0:
        raise DomainError("null direction has vanishing first coordinate")
    norm = mink_dot(vv, vv)
    if abs(norm) > NULL_DIRECTION_SLACK * vv[0] ** 2:
        raise DomainError(f"not a null direction: {vv} (norm {norm:.3e})")
    return tuple(x / vv[0] for x in vv[1:])


# ---------------------------------------------------------------------------
# constraint classification
# ---------------------------------------------------------------------------


class ConstraintKind(Enum):
    GEODESIC = "Geodesic"
    IDEAL_POINT = "IdealPoint"
    POINT = "Point"
    PRODUCT_GRASSMANNIAN = "ProductGrassmannian"


@dataclass(frozen=True)
class ConstraintSet:
    """Classified locus that a rational subspace imposes on the hyperboloid.

    ``kind`` depends only on the signature of the subspace, so it is
    stable under rescaling and base change.  ``vectors`` carry the
    defining data: spanning negative vectors for a geodesic wall, the
    null line for an ideal point, a canonical positive witness line for
    a point constraint.
    """

    kind: ConstraintKind
    vectors: tuple[tuple[Fraction, ...], ...]
    span: Subspace
    determined: bool = True


def classify_span(sub: Subspace) -> ConstraintSet:
    """Type of the constraint a subspace puts on the positive line.

    The ambient form must have signature (1, n).  Negative definite
    spans constrain to their orthogonal wall, degenerate spans to the
    ideal point of their null line, and spans containing a positive
    vector pin the positive line into the span (a single point of the
    hyperboloid when the span is a line; otherwise the witness line
    reported is the canonical one from exact diagonalization).  The
    full ambient imposes no constraint and is reported as the product
    description.
    """
    form = sub.ambient
    lorentzian_rank(form, "classify_span")
    if sub.is_zero():
        raise DomainError("span dimension must be between 1 and the ambient dimension")
    sig = subspace_signature(sub)
    if sig.b_plus == 0 and sig.b_null == 0:
        return ConstraintSet(ConstraintKind.GEODESIC, sub.basis, sub)
    if sig.b_plus == 0:
        # in a (1, n) form the radical of a b+ = 0 span is a single null line
        null = form_nullspace(sub)
        return ConstraintSet(ConstraintKind.IDEAL_POINT, null.canonical, null)
    if sub.dim == form.dim:
        return ConstraintSet(
            ConstraintKind.PRODUCT_GRASSMANNIAN, sub.canonical, sub, determined=False
        )
    witness = positive_vectors(sub)[0]
    return ConstraintSet(
        ConstraintKind.POINT, (witness,), sub, determined=(sub.dim == 1)
    )


# ---------------------------------------------------------------------------
# geodesic walls in the hyperbolic plane
# ---------------------------------------------------------------------------


def geodesic_endpoints(
    wall_normal: Sequence[float],
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Ideal endpoints of the wall of a negative vector w in R^{1,2}.

    The wall meets the boundary circle where w0 = w1 cos t + w2 sin t,
    that is at t = phi -/+ alpha with phi = atan2(w2, w1) and alpha =
    acos(w0 / rho), rho = |(w1, w2)|.  The endpoints are returned in
    that order, not sorted: with e_i = (1, x_i, y_i) for the first and
    second endpoint, det(e_1, e_2, w) = 2 sin(alpha) (w0^2 - rho^2) / rho
    is negative, so the normal lies on a fixed side of the wall.

    A non-finite normal, one that is not negative, or one so near null
    that w0 / rho rounds to +-1 (its two endpoints coincide) raises
    DomainError.
    """
    w = _floats(wall_normal, "wall normal")
    if len(w) != 3:
        raise DomainError("geodesic endpoints are defined for R^{1,2} walls")
    if mink_dot(w, w) >= 0:
        raise DomainError("wall normal must be a negative vector")
    rho = math.hypot(w[1], w[2])
    cosine = w[0] / rho
    if not abs(cosine) < 1.0:
        raise DomainError(f"wall normal {w} is too near a null vector")
    phi = math.atan2(w[2], w[1])
    alpha = math.acos(cosine)
    return (
        (math.cos(phi - alpha), math.sin(phi - alpha)),
        (math.cos(phi + alpha), math.sin(phi + alpha)),
    )
