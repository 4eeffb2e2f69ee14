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
    HPoint,
    classify_span,
    disk_to_hpoint,
    geodesic_endpoints,
    hyperbolic_distance,
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

