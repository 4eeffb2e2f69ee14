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
    Signature,
    Subspace,
    positive_vectors,
    signature,
    subspace_signature,
    nullspace as form_nullspace,
)
from .errors import (
    DomainError,
    NumericalDomainError,
    PreconditionError,
)

DISTANCE_CLAMP = 1e-9


def mink_dot(v: Sequence[float], w: Sequence[float]) -> float:
    """x0*y0 - sum(xi*yi): the diagonal form of signature (1, n)."""
    return v[0] * w[0] - sum(a * b for a, b in zip(v[1:], w[1:]))


@dataclass(frozen=True)
class HPoint:
    """A point on the upper hyperboloid sheet in R^{1,n}."""

    coords: tuple[float, ...]

    def __post_init__(self):
        x = self.coords
        if len(x) < 2:
            raise DomainError("hyperboloid points need at least 2 coordinates")
        if not all(map(math.isfinite, x)):
            raise DomainError(f"hyperboloid coordinates must be finite: {x}")
        if abs(mink_dot(x, x) - 1.0) > 1e-7 or x[0] <= 0:
            raise DomainError(
                f"not on the upper hyperboloid sheet: {x} (norm {mink_dot(x, x):.3e})"
            )

    @property
    def n(self) -> int:
        return len(self.coords) - 1


def line_to_hpoint(v: Sequence[float]) -> HPoint:
    """Normalize a positive vector to its hyperboloid representative."""
    vv = [float(x) for x in v]
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
    dd = [float(x) for x in d]
    if not all(map(math.isfinite, dd)):
        raise DomainError(f"disk coordinates must be finite: {dd}")
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
    """Boundary-circle coordinates of a null direction."""
    vv = [float(x) for x in v]
    if abs(vv[0]) < 1e-12:
        raise DomainError("null direction has vanishing first coordinate")
    if vv[0] < 0:
        vv = [-x for x in vv]
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
    amb_sig = signature(form)
    n = form.dim - 1
    if amb_sig != Signature(1, n, 0):
        raise PreconditionError(
            f"classification needs ambient signature (1, {n}), got {tuple(amb_sig)}"
        )
    if sub.is_zero() or sub.dim > form.dim:
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
    w = [float(x) for x in wall_normal]
    if len(w) != 3:
        raise DomainError("geodesic endpoints are defined for R^{1,2} walls")
    if not all(map(math.isfinite, w)):
        raise DomainError(f"wall normal must be finite: {tuple(w)}")
    if mink_dot(w, w) >= 0:
        raise DomainError("wall normal must be a negative vector")
    rho = math.hypot(w[1], w[2])
    cosine = w[0] / rho
    if not abs(cosine) < 1.0:
        raise DomainError(f"wall normal {tuple(w)} is too near a null vector")
    phi = math.atan2(w[2], w[1])
    alpha = math.acos(cosine)
    return (
        (math.cos(phi - alpha), math.sin(phi - alpha)),
        (math.cos(phi + alpha), math.sin(phi + alpha)),
    )
