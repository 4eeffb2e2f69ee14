import math
import random
from fractions import Fraction

import pytest

from periodmap.bilinear import GramForm, Subspace, minkowski_form, orth_complement
from periodmap.errors import (
    DomainError,
    NumericalDomainError,
    PreconditionError,
)
from periodmap.grassmannian import (
    ConstraintKind,
    NULL_DIRECTION_SLACK,
    HPoint,
    classify_span,
    disk_to_hpoint,
    geodesic_endpoints,
    hyperbolic_distance,
    ideal_point_direction,
    line_to_hpoint,
    mink_dot,
    to_poincare_disk,
)

M2 = minkowski_form(2)


def test_line_to_hpoint_positive_vector():
    p = line_to_hpoint((2, 1, 0))
    s = math.sqrt(3.0)
    assert p.coords == pytest.approx((2 / s, 1 / s, 0.0))


def test_line_to_hpoint_sign_normalization():
    p = line_to_hpoint((-2, -1, 0))
    assert p.coords[0] > 0


def test_line_to_hpoint_rejects_nonpositive():
    with pytest.raises(DomainError):
        line_to_hpoint((2, 1, 3))  # norm 4 - 1 - 9 < 0
    with pytest.raises(DomainError):
        line_to_hpoint((1, 1, 0))  # null


SHORT = r"^{} must have at least 2 entries, got {}$"


@pytest.mark.parametrize(
    "call, v, message",
    [
        (line_to_hpoint, (), SHORT.format("vector", 0)),
        (ideal_point_direction, (), SHORT.format("null direction", 0)),
        (ideal_point_direction, (1.0,), SHORT.format("null direction", 1)),
        (ideal_point_direction, (1, 0, 0), r"^not a null direction: \(1\.0, 0\.0, 0\.0\)"),
        (ideal_point_direction, (1, 5, 0), r"^not a null direction: \(1\.0, 5\.0, 0\.0\)"),
        (ideal_point_direction, (2, 2, 1e-3), r"^not a null direction"),
        (ideal_point_direction, (0, 0, 0), r"^null direction has vanishing first coordinate$"),
        (ideal_point_direction, (0, 1), r"^null direction has vanishing first coordinate$"),
    ],
    ids=[
        "line-empty", "ideal-empty", "ideal-one", "timelike", "spacelike", "near-null",
        "ideal-zero", "ideal-zero-first",
    ],
)
def test_short_vectors_and_non_null_directions_are_refused(call, v, message):
    # these raised a bare IndexError, returned () or returned a point off
    # the boundary circle: (1, 0, 0) gave (0, 0) and (1, 5, 0) gave (5, 0)
    with pytest.raises(DomainError, match=message):
        call(v)


def test_null_directions_within_the_tolerance_are_read():
    # |<v, v>| up to 1e-9 v0^2 is null: (2, 2, 6e-5) has <v, v> = -3.6e-9
    assert ideal_point_direction((2.0, 2.0, 6e-5)) == (1.0, 3e-5)
    assert ideal_point_direction((1.0, 0.6, 0.8)) == (0.6, 0.8)
    # the test scales with v: an absolute bound on v0 once refused these
    # as vanishing
    assert ideal_point_direction((1e-13, 1e-13, 0.0)) == (1.0, 0.0)
    assert ideal_point_direction((1e-200, 1e-200)) == (1.0,)


@pytest.mark.parametrize("v0", [1.0, 1e6])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_null_direction_slack_is_relative_to_v0_squared(v0, sign):
    # <v, v> = sign * t * NULL_DIRECTION_SLACK * v0^2, up to rounding far
    # below the 10% margin either side of the slack
    for t, accepted in ((0.9, True), (1.1, False)):
        v1 = v0 * math.sqrt(1.0 - sign * t * NULL_DIRECTION_SLACK)
        norm = mink_dot((v0, v1), (v0, v1))
        assert abs(abs(norm) / (t * NULL_DIRECTION_SLACK * v0 * v0) - 1.0) < 1e-3
        if accepted:
            assert ideal_point_direction((v0, v1)) == (v1 / v0,)
        else:
            with pytest.raises(DomainError, match="not a null direction"):
                ideal_point_direction((v0, v1))


def test_hpoint_validation():
    with pytest.raises(DomainError):
        HPoint((2.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        HPoint((-1.0, 0.0, 0.0))


def test_disk_projection_along_axis():
    for t in (0.0, 0.3, 1.7, 5.0):
        p = HPoint((math.cosh(t), math.sinh(t), 0.0))
        d = to_poincare_disk(p)
        assert d == pytest.approx((math.tanh(t / 2.0), 0.0))


def test_disk_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        x = rng.uniform(-3, 3)
        y = rng.uniform(-3, 3)
        p = HPoint(
            (math.sqrt(1 + x * x + y * y), x, y)
        )
        d = to_poincare_disk(p)
        assert sum(c * c for c in d) < 1.0
        q = disk_to_hpoint(d)
        assert q.coords == pytest.approx(p.coords)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_disk_to_hpoint_accepts_points_near_the_rim(n):
    # the float <x, x> is off by a multiple of 2^-52 sum x_i^2, about 1e-6
    # at rho = 0.99999, so an absolute 1e-7 refused about half of these
    rng = random.Random(n)
    for rho in (0.99999, 1 - 1e-6):
        for _ in range(500):
            d = [rng.gauss(0.0, 1.0) for _ in range(n)]
            s = math.sqrt(sum(x * x for x in d))
            p = disk_to_hpoint([rho * x / s for x in d])
            assert sum(c * c for c in to_poincare_disk(p)) == pytest.approx(rho * rho)


def test_hpoint_norm_tolerance_boundaries():
    # x_0 = 2^25 + k 2^-27 and x_1 = 2^25 give <x, x> = k / 2 and
    # sum x_i^2 = 2^51 + k / 2 exactly, so the relative slack is 4 + k 2^-50
    def point(k):
        return (2.0**25 + k * 2.0**-27, 2.0**25)

    assert mink_dot(point(10), point(10)) == 5.0
    HPoint(point(2))
    HPoint(point(10))  # |5 - 1| = 4: just inside
    for k in (11, 0, -2):  # just outside, null, negative
        with pytest.raises(DomainError, match="hyperboloid sheet"):
            HPoint(point(k))
    # near x = (1, 0) the absolute floor 1e-7 is the wider bound
    HPoint((math.sqrt(1 + 0.9e-7), 0.0))
    with pytest.raises(DomainError, match="hyperboloid sheet"):
        HPoint((math.sqrt(1 + 1.1e-7), 0.0))


def test_disk_to_hpoint_rejects_outside():
    with pytest.raises(DomainError):
        disk_to_hpoint((0.8, 0.7))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_refused(bad):
    # every comparison with NaN is false, so a NaN point used to pass the
    # hyperboloid check and reach the systole as a bare ValueError
    with pytest.raises(DomainError, match="finite"):
        disk_to_hpoint((bad,))
    with pytest.raises(DomainError, match="finite"):
        disk_to_hpoint((0.0, bad))
    with pytest.raises(DomainError, match="finite"):
        HPoint((bad, 0.0))
    with pytest.raises(DomainError, match="finite"):
        HPoint((1.0, 0.0, bad))


def test_distance_along_geodesic():
    p = HPoint((1.0, 0.0, 0.0))
    for t in (0.0, 0.5, 2.0):
        q = HPoint((math.cosh(t), math.sinh(t), 0.0))
        assert hyperbolic_distance(p, q) == pytest.approx(t, abs=1e-12)


def test_distance_triangle_inequality():
    rng = random.Random(11)
    pts = []
    for _ in range(12):
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        pts.append(HPoint((math.sqrt(1 + x * x + y * y), x, y)))
    for a in pts:
        for b in pts:
            for c in pts:
                assert hyperbolic_distance(a, c) <= (
                    hyperbolic_distance(a, b) + hyperbolic_distance(b, c) + 1e-9
                )


def test_distance_clamp_and_rejection():
    p = HPoint((1.0, 0.0, 0.0))
    q = HPoint((1.0 + 2e-10, math.sqrt((1.0 + 2e-10) ** 2 - 1.0), 0.0))
    # tiny negative round-off in the pairing must clamp to zero, not raise
    assert hyperbolic_distance(p, p) == 0.0
    assert hyperbolic_distance(p, q) >= 0.0

    class Fake:
        coords = (0.5, 0.0, 0.0)

    with pytest.raises(NumericalDomainError):
        hyperbolic_distance(p, Fake())


def test_classify_single_lines():
    geo = classify_span(Subspace(M2, [(0, 1, 0)]))
    assert geo.kind is ConstraintKind.GEODESIC
    assert geo.vectors == ((Fraction(0), Fraction(1), Fraction(0)),)

    ideal = classify_span(Subspace(M2, [(1, 1, 0)]))
    assert ideal.kind is ConstraintKind.IDEAL_POINT
    assert ideal.vectors == ((Fraction(1), Fraction(1), Fraction(0)),)

    pt = classify_span(Subspace(M2, [(2, 1, 0)]))
    assert pt.kind is ConstraintKind.POINT
    assert pt.determined
    assert pt.vectors == ((Fraction(2), Fraction(1), Fraction(0)),)


def test_classify_planes():
    geo = classify_span(Subspace(M2, [(0, 1, 0), (0, 0, 1)]))
    assert geo.kind is ConstraintKind.GEODESIC

    ideal = classify_span(Subspace(M2, [(1, 1, 0), (0, 0, 1)]))
    assert ideal.kind is ConstraintKind.IDEAL_POINT
    # the null line of the span, not the whole span
    assert ideal.span.dim == 1
    assert ideal.vectors == ((Fraction(1), Fraction(1), Fraction(0)),)

    pt = classify_span(Subspace(M2, [(2, 1, 0), (0, 0, 1)]))
    assert pt.kind is ConstraintKind.POINT
    assert not pt.determined
    (w,) = pt.vectors
    form = M2
    assert form.evaluate(w, w) > 0

    full = classify_span(Subspace(M2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert full.kind is ConstraintKind.PRODUCT_GRASSMANNIAN


def test_classify_needs_lorentzian_ambient():
    pos = GramForm([[1, 0], [0, 1]])
    with pytest.raises(PreconditionError):
        classify_span(Subspace(pos, [(1, 0)]))


def test_classify_rejects_zero_span():
    with pytest.raises(DomainError):
        classify_span(Subspace.spanned_by(M2, []))


def test_point_witness_is_positive_and_in_span():
    rng = random.Random(23)
    for _ in range(30):
        v = (rng.randint(2, 9), rng.randint(-2, 2), rng.randint(-2, 2))
        w = (rng.randint(-3, 3), rng.randint(-5, 5), rng.randint(-5, 5))
        sub = Subspace.spanned_by(M2, [v, w])
        if sub.dim != 2:
            continue
        res = classify_span(sub)
        if res.kind is not ConstraintKind.POINT:
            continue
        (wit,) = res.vectors
        assert M2.evaluate(wit, wit) > 0
        assert sub.contains(wit)


def test_wall_subspace_of_negative_line():
    sub = Subspace(M2, [(0, 0, 1)])
    wall = orth_complement(sub)
    assert wall.dim == 2
    assert wall.contains((1, 0, 0))
    assert wall.contains((0, 1, 0))


def test_geodesic_endpoints_coordinate_wall():
    a, b = geodesic_endpoints((0, 0, 1))
    assert a == pytest.approx((1.0, 0.0))
    assert b == pytest.approx((-1.0, 0.0))


def test_geodesic_endpoints_are_null_and_on_circle():
    rng = random.Random(5)
    for _ in range(40):
        w = [rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-3, 3)]
        if mink_dot(w, w) >= -1e-6:
            continue
        a, b = geodesic_endpoints(w)
        for pt in (a, b):
            assert math.hypot(*pt) == pytest.approx(1.0, abs=1e-9)
            lifted = (1.0, pt[0], pt[1])
            assert mink_dot(lifted, w) == pytest.approx(0.0, abs=1e-7)
        assert math.hypot(a[0] - b[0], a[1] - b[1]) > 1e-9


def test_geodesic_endpoints_rejects_positive_normal():
    with pytest.raises(DomainError):
        geodesic_endpoints((2, 1, 0))


@pytest.mark.parametrize(
    "w",
    [
        (math.nan, 0.0, 1.0),
        (0.0, math.inf, 1.0),
        (1.0, 2.0, -math.inf),
        # negative in float, but w0 / |(w1, w2)| rounds to +1 or -1
        (1.4081958849720744, -0.9257975117474855, 1.0610912390998468),
        (-1.4081958849720744, -0.9257975117474855, 1.0610912390998468),
    ],
)
def test_geodesic_endpoints_refuses_non_finite_and_near_null_normals(w):
    with pytest.raises(DomainError):
        geodesic_endpoints(w)


def test_geodesic_endpoints_put_the_normal_on_one_side():
    # det(e_1, e_2, w) = 2 sin(alpha) (w0^2 - rho^2) / rho < 0 for the
    # lifts e_i = (1, x_i, y_i) of the endpoints, in the order returned
    rng = random.Random(18)
    seen = 0
    while seen < 500:
        w = [rng.uniform(-3, 3) for _ in range(3)]
        if mink_dot(w, w) >= -1e-6:
            continue
        seen += 1
        (x1, y1), (x2, y2) = geodesic_endpoints(w)
        det = (x1 * y2 - y1 * x2) * w[0] - (y2 - y1) * w[1] + (x2 - x1) * w[2]
        assert det < 0, w



def test_ideal_point_direction_ignores_the_direction_sign():
    # x / w0 and -x / -w0 round alike, signed zeros included
    rng = random.Random(2323)
    cases = [(-2.0, 0.0, -2.0), (2.0, -0.0, 2.0), (3.0, 0.0, -3.0)]
    for _ in range(500):
        t, s = rng.uniform(-math.pi, math.pi), rng.uniform(0.01, 100.0)
        cases.append((s, s * math.cos(t), s * math.sin(t)))
    for v in cases:
        want = ideal_point_direction(v)
        got = ideal_point_direction(tuple(-x for x in v))
        assert got == want, v
        assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want], v
    assert ideal_point_direction((-2.0, 0.0, -2.0)) == (0.0, 1.0)
