import hashlib
import itertools
import math
import operator
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import periodmap
from periodmap import bilinear, supremum, systole
from periodmap.bilinear import GramForm, Subspace, hyperbolic_plane_form, minkowski_form
from periodmap.errors import (
    DomainError,
    InputError,
    NumericalDomainError,
    PreconditionError,
    ResourceError,
)
from periodmap.grassmannian import HPoint, disk_to_hpoint, hyperbolic_distance
from periodmap.supremum import (
    PATCH_RADIUS,
    CsSearchConfig,
    _DiskObjective,
    _grid_points,
    cs_invariance_check,
    cs_supremum,
)
from periodmap.systole import (
    _lll,
    _minimum,
    _norm_matrix,
    _norm_matrix_int,
    _shortest,
    conf_systole,
    period_point,
    period_point_from_hpoint,
    rational_disk_period_point,
)

from oracles import (
    box_radius_reference,
    brute_force_systole,
    charpoly_coeffs,
    cs_scan_1d,
    float_brute_force_systole,
    gram_schmidt_reference,
    inverse_reference,
    lagrange_gauss_minimum,
    min_norm_reference,
    shortest_box_reference,
)

F = Fraction
DIAG = minkowski_form(1)
HYP = hyperbolic_plane_form()


def x_axis_point():
    return period_point(Subspace(DIAG, [(1, 0)]))


def norm_sq(pp, w):
    # the period norm of an integer vector: w^t N w / scale
    n, scale = _norm_matrix_int(pp)
    return F(sum(a * x * y for row, x in zip(n, w) for a, y in zip(row, w)), scale)


# ---------------------------------------------------------------------------
# period point construction
# ---------------------------------------------------------------------------


def test_period_point_must_be_maximal_positive():
    with pytest.raises(PreconditionError):
        period_point(Subspace(DIAG, [(0, 1)]))  # negative line
    with pytest.raises(PreconditionError):
        # positive but not maximal in a (1,1) form extended by nothing;
        # degenerate span caught the same way
        period_point(Subspace(minkowski_form(2), [(1, 1, 0)]))


def test_float_period_points_share_one_form_split(monkeypatch):
    # each float point used to build its own standard form and diagonalize
    # it; the shared form is split at most once (each point's line is a
    # 1 x 1 split of its own)
    sizes = []
    congruence = bilinear._congruence
    monkeypatch.setattr(
        bilinear, "_congruence", lambda m: sizes.append(len(m)) or congruence(m)
    )
    rng = random.Random(11)
    for _ in range(100):
        disk = [rng.uniform(-0.6, 0.6) for _ in range(2)]
        period_point_from_hpoint(disk_to_hpoint(disk))
    assert sizes.count(3) <= 1


# ---------------------------------------------------------------------------
# the norm
# ---------------------------------------------------------------------------


def test_norm_on_h_is_form_value():
    pp = x_axis_point()
    assert norm_sq(pp, (1, 0)) == F(1)
    assert math.sqrt(norm_sq(pp, (1, 0))) == 1.0


def test_norm_on_complement_is_negated_form_value():
    pp = x_axis_point()
    assert norm_sq(pp, (0, 1)) == F(1)


def test_norm_along_boosted_point_matches_closed_form():
    t = 0.7
    pp = period_point_from_hpoint(HPoint((math.cosh(t), math.sinh(t))))
    for w, want in (
        ((1, 1), math.sqrt(2.0) * math.exp(-t)),
        ((1, -1), math.sqrt(2.0) * math.exp(t)),
        ((1, 0), math.sqrt(math.cosh(2 * t))),
    ):
        assert abs(math.sqrt(norm_sq(pp, w)) - want) < 1e-12


def test_norm_on_hyperbolic_plane_basis_vector():
    # the positive line through (1, 1) is rational even though the unit
    # vector is not; the basis vector has norm exactly 1 there
    pp = period_point(Subspace(HYP, [(1, 1)]))
    assert norm_sq(pp, (1, 0)) == F(1)
    assert norm_sq(pp, (0, 1)) == F(1)


def test_norm_homogeneity_and_definiteness():
    pp = rational_disk_period_point(minkowski_form(2), (F(1, 3), F(-1, 7)))
    w = (3, -2, 5)
    assert norm_sq(pp, [3 * x for x in w]) == 9 * norm_sq(pp, w)
    assert norm_sq(pp, w) > 0
    assert norm_sq(pp, (0, 0, 0)) == 0


# ---------------------------------------------------------------------------
# conf_systole
# ---------------------------------------------------------------------------


def test_conf_systole_at_x_axis():
    res = conf_systole(x_axis_point())
    assert res.value_sq == F(1)
    assert res.value == 1.0
    assert res.certified
    assert set(res.minimizers) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_conf_systole_hyperbolic_plane_center():
    res = conf_systole(period_point(Subspace(HYP, [(1, 1)])))
    assert res.value_sq == F(1)
    assert set(res.minimizers) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


# sha256 of ``_systole_dump``, recorded when both period point
# constructors built their generator in Fractions and split it through
# ``Subspace``; a change to any result field, basis or refusal changes it
SYSTOLE_DUMP_SHA256 = "ca1ec722e1cc06808f8c0f88bceaedd7b34d47874a4f204046740e26b32556c4"

# three b+ = 2 forms, each with two orthogonal positive vectors
B2_FORMS = (
    (
        GramForm([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]),
        ((1, 0, 0, 0), (0, 1, 0, 0)),
    ),
    (
        GramForm([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
        ((1, 1, 0, 0), (0, 0, 1, 1)),
    ),
    (
        GramForm([[int(i == j) * d for j in range(5)] for i, d in enumerate((1, 1, -1, -2, -1))]),
        ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)),
    ),
)


def _systole_dump():
    """The repr of every period point's basis and span and of its
    ``conf_systole`` result, every field, over named inputs from
    Random(52): rational disk points at ranks 2 to 4, the coordinates
    of each over one shared denominator and over one denominator each;
    float points at disk radii out to 0.9996; the stretched family
    (k - 1) / k for k = 2..100 and both signs; and planes of three b+ = 2
    forms near a positive plane, each basis row mixed into the other,
    built through ``Subspace``.  A refusal is dumped as its type and
    message."""
    rng = random.Random(52)
    out = []

    def record(label, make):
        try:
            pp = make()
            out.append((label, pp.subspace.basis, pp.subspace, conf_systole(pp)))
        except (ValueError, RuntimeError) as exc:
            out.append((label, type(exc).__name__, str(exc)))

    for n in (1, 2, 3):
        form = minkowski_form(n)
        for _ in range(40):
            den = rng.randint(2, 40)
            shared = tuple(F(rng.randint(-den, den), den) for _ in range(n))
            apart = tuple(F(rng.randint(-9, 9), rng.randint(1, 30)) for _ in range(n))
            for disk in (shared, apart):
                record(f"disk {disk}", lambda: rational_disk_period_point(form, disk))
        for rho in (0.0, 0.2, 0.5, 0.8, 0.9, 0.99, 0.999, 0.9996):
            for _ in range(4):
                direction = [rng.gauss(0.0, 1.0) for _ in range(n)]
                norm = math.sqrt(sum(x * x for x in direction))
                disk = [rho * x / norm for x in direction]
                record(f"float {disk}", lambda: period_point_from_hpoint(disk_to_hpoint(disk)))
    for k in range(2, 101):
        for sign in (1, -1):
            record(f"stretched {sign} {k}", lambda: _stretched(k, sign))
    for form, positive in B2_FORMS:
        for _ in range(40):
            a, b = (
                [x + F(rng.randint(-3, 3), rng.randint(4, 12)) for x in p] for p in positive
            )
            t = rng.randint(-2, 2)
            plane = [[x + t * y for x, y in zip(a, b)], b]
            record(f"plane {form.gram} {plane}", lambda: period_point(Subspace(form, plane)))
    return "\n".join(map(repr, out))


def test_conf_systole_matches_the_pinned_dump():
    digest = hashlib.sha256(_systole_dump().encode()).hexdigest()
    assert digest == SYSTOLE_DUMP_SHA256


def test_constructors_hold_the_row_their_basis_clears_to():
    # the integer row a constructor builds is the one Subspace clears the
    # same basis to, so the norm matrix and its scale are the same too
    rng = random.Random(53)
    for n in (1, 2, 3):
        form = minkowski_form(n)
        for _ in range(60):
            den = rng.randint(1, 40)
            disk = tuple(
                F(rng.randint(-den, den), rng.choice((den, rng.randint(1, 40)))) for _ in range(n)
            )
            if sum(x * x for x in disk) >= F(99, 100):
                continue
            for pp in (
                rational_disk_period_point(form, disk),
                period_point_from_hpoint(disk_to_hpoint([float(x) for x in disk])),
            ):
                row = pp.subspace._int_basis()
                public = period_point(Subspace(form, pp.subspace.basis))
                assert row == public.subspace._int_basis(), disk
                assert _norm_matrix_int(pp) == _norm_matrix_int(public), disk
                assert pp.subspace == public.subspace


def test_conf_systole_deterministic():
    pp = rational_disk_period_point(minkowski_form(2), (F(1, 4), F(1, 5)))
    a = conf_systole(pp)
    b = conf_systole(pp)
    assert a == b


def test_conf_matches_brute_force_on_random_rational_points():
    rng = random.Random(90210)
    checked = 0
    for _ in range(50):
        n = rng.choice([1, 2])
        while True:
            disk = tuple(
                F(rng.randint(-9, 9), rng.randint(18, 30)) for _ in range(n)
            )
            if sum(x * x for x in disk) < F(1, 4):
                break
        form = minkowski_form(n)
        pp = rational_disk_period_point(form, disk)
        res = conf_systole(pp)
        assert res.certified
        want_sq, want_mins = brute_force_systole(
            form.gram, pp.subspace.basis[0], radius=10
        )
        assert res.value_sq == want_sq, (disk, res.value_sq, want_sq)
        assert set(res.minimizers) == set(want_mins), disk
        checked += 1
    assert checked == 50


def _disk_radius_bound(rho):
    # at hyperbolic distance t the norm form has smallest eigenvalue
    # e^{-2t} and diagonal at most cosh 2t, so a shortest vector is no
    # longer than e^{2t} = ((1 + rho) / (1 - rho))^2
    return int(((1 + rho) / (1 - rho)) ** 2) + 1


def test_enumerator_matches_brute_force():
    rng = random.Random(31337)
    for n in (1, 2, 3):
        form = minkowski_form(n)
        for _ in range(100):
            while True:
                den = rng.randint(2, 30)
                disk = tuple(F(rng.randint(-den, den), den) for _ in range(n))
                if sum(x * x for x in disk) < F(1, 5):
                    break
            pp = rational_disk_period_point(form, disk)
            rho = math.sqrt(float(sum(x * x for x in disk)))
            res = conf_systole(pp)
            want_sq, want_mins = brute_force_systole(
                form.gram, pp.subspace.basis[0], radius=_disk_radius_bound(rho)
            )
            assert res.value_sq == want_sq, disk
            assert frozenset(res.minimizers) == want_mins, disk
            assert res.needed_radius == box_radius_reference(form.gram, [pp.subspace.basis[0]])
            assert res.certified


def test_float_enumerator_matches_float_brute_force():
    rng = random.Random(2718)
    for n in (1, 2, 3):
        for _ in range(30):
            rho = rng.uniform(0.0, 0.5)
            direction = [rng.gauss(0.0, 1.0) for _ in range(n)]
            norm = math.sqrt(sum(x * x for x in direction))
            disk = [rho * x / norm for x in direction]
            res = conf_systole(period_point_from_hpoint(disk_to_hpoint(disk)))
            want, mins = float_brute_force_systole(disk, _disk_radius_bound(rho))
            assert abs(res.value_sq - want) <= 1e-9 * max(1.0, want), disk
            assert frozenset(res.minimizers) == mins, disk
            assert res.certified  # the line through the float point is rational


def _stretched(k, sign):
    return rational_disk_period_point(DIAG, (F(sign * (k - 1), k),))


def _line_oracle(h):
    # the norm matrix 2 (Gh)(Gh)^t / Q(h, h) - G of the line through h in DIAG
    gh = (h[0], -h[1])
    qh = h[0] * h[0] - h[1] * h[1]
    m = [
        [2 * gh[i] * gh[j] / qh - DIAG.gram[i][j] for j in range(2)]
        for i in range(2)
    ]
    return lagrange_gauss_minimum(m)


def _stretched_oracle(pp):
    return _line_oracle(pp.subspace.basis[0])


def test_stretched_point_matches_lagrange_gauss_reduction():
    # the stretched family (k - 1)/k: the box the shortest vectors
    # provably lie in grows like k^2 per axis (760 steps at 19/20), but
    # the shortest vectors are tiny; every point is answered and certified
    for k in list(range(2, 101)) + [1000]:
        for sign in (1, -1):
            pp = _stretched(k, sign)
            res = conf_systole(pp)
            want, mins = _stretched_oracle(pp)
            if k == 20:
                assert res.needed_radius == 760
            assert res.needed_radius == box_radius_reference(DIAG.gram, [pp.subspace.basis[0]])
            assert res.certified, k
            assert res.value_sq == want, (k, sign)
            assert frozenset(res.minimizers) == mins, (k, sign)


D2 = GramForm([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
HH = GramForm([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
RATIONAL = GramForm(
    [[F(1, 2), 0, 0, 0], [0, F(3, 2), F(1, 3), 0], [0, F(1, 3), -1, 0], [0, 0, 0, -2]]
)


def _eigen_radius(form, basis):
    # every w with w^t M w <= the smallest diagonal entry of M has
    # |w_i| <= |w| <= sqrt(that entry / the smallest eigenvalue of M)
    g = np.array([[float(x) for x in row] for row in form.gram])
    b = np.array([[float(x) for x in v] for v in basis])
    proj = b.T @ np.linalg.solve(b @ g @ b.T, b @ g)
    m = g @ (2.0 * proj - np.eye(len(g)))
    lam = np.linalg.eigvalsh((m + m.T) / 2.0)[0]
    return int(math.sqrt(min(np.diag(m)) / lam) * (1.0 + 1e-9)) + 1


def test_conf_matches_brute_force_on_positive_planes():
    # b+ = 2: the norm matrix is built from the plane's split, two
    # orthogonal columns w_j, with weights lcm(Q(w_j)) / Q(w_j), and a
    # rational gram its denominator; planes whose oracle box would pass
    # radius 8 are skipped to bound its size
    rng = random.Random(4422)
    forms = (
        (D2, [(1, 0, 0, 0), (0, 1, 0, 0)]),
        (HH, [(1, 1, 0, 0), (0, 0, 1, 1)]),
        (RATIONAL, [(1, 0, 0, 0), (0, 1, 0, 0)]),
    )
    for form, base in forms:
        checked = 0
        while checked < 50:
            basis = [
                [x + F(rng.randint(-6, 6), rng.randint(4, 12)) for x in v] for v in base
            ]
            sub = Subspace(form, basis)
            rg = sub.restricted_gram()
            if not (rg[0][0] > 0 and rg[0][0] * rg[1][1] > rg[0][1] ** 2):
                continue
            radius = _eigen_radius(form, basis)
            if radius > 8:
                continue
            pp = period_point(sub)
            res = conf_systole(pp)
            assert res.needed_radius == box_radius_reference(form.gram, basis)
            want_sq, want_mins = brute_force_systole(form.gram, basis, radius=radius)
            assert res.value_sq == want_sq, basis
            assert frozenset(res.minimizers) == want_mins, basis
            assert res.certified
            assert norm_sq(pp, res.minimizers[0]) == res.value_sq
            checked += 1


B3 = GramForm([[int(i == j) * d for j in range(5)] for i, d in enumerate((1, 1, 1, -1, -1))])
B3_POSITIVE = [[int(i == j) for j in range(5)] for i in range(3)]


def test_conf_matches_brute_force_on_positive_three_planes():
    # b+ = 3: the norm matrix is built from a frame of three orthogonal
    # split columns; planes whose oracle box would pass radius 4 are
    # skipped to bound its size (9^5 vectors)
    rng = random.Random(4433)
    checked = 0
    while checked < 25:
        basis = [[x + F(rng.randint(-4, 4), rng.randint(5, 12)) for x in v] for v in B3_POSITIVE]
        sub = Subspace(B3, basis)
        if bilinear.subspace_signature(sub) != (3, 0, 0):
            continue
        radius = _eigen_radius(B3, basis)
        if radius > 4:
            continue
        pp = period_point(sub)
        frame = bilinear._positive_frame(pp.subspace)
        assert len(frame) == 3
        assert all(B3.evaluate(frame[i], frame[j]) == 0 for i in range(3) for j in range(i))
        res = conf_systole(pp)
        assert res.needed_radius == box_radius_reference(B3.gram, basis)
        want_sq, want_mins = brute_force_systole(B3.gram, basis, radius=radius)
        assert res.value_sq == want_sq, basis
        assert frozenset(res.minimizers) == want_mins, basis
        assert res.certified
        assert norm_sq(pp, res.minimizers[0]) == res.value_sq
        checked += 1


def _norm_reference(form, rows):
    # G (2P - I) in Fractions, P the orthogonal projection onto the rows'
    # span: 2 (G B^t) R^-1 (B G) - G with R = B G B^t, or -G for no rows
    g = [[F(x) for x in row] for row in form.gram]
    gb = [[sum(a * x for a, x in zip(row, v)) for row in g] for v in rows]
    rinv = inverse_reference([[sum(a * x for a, x in zip(u, v)) for v in rows] for u in gb])
    k = len(rows)
    return [
        [
            2 * sum(gb[s][i] * rinv[s][t] * gb[t][j] for s in range(k) for t in range(k)) - g[i][j]
            for j in range(len(g))
        ]
        for i in range(len(g))
    ]


def test_norm_matrix_is_primitive_and_exact_at_every_b_plus():
    # (N, scale) has gcd 1 and N / scale is G (2P - I), for no rows, a
    # line and orthogonal frames of planes and 3-planes; the frames scaled
    # by 2 leave the unreduced N and its scale a common factor 4
    rng = random.Random(4434)
    cases = [
        (GramForm([[-2, 1], [1, -2]]), []),
        (GramForm([[F(-1, 2), 0], [0, F(-3, 4)]]), []),
        (DIAG, [[2, 0]]),
        (RATIONAL, [[1, 0, 0, 0]]),
        (D2, [[2, 0, 0, 0], [0, 2, 0, 0]]),
        (B3, [[2, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 2, 0, 0]]),
    ]
    line = rational_disk_period_point(DIAG, (F(1, 3),)).subspace
    cases.append((DIAG, bilinear._positive_frame(line)))
    planes = [(1, 0, 0, 0), (0, 1, 0, 0)]
    for form, base in ((D2, planes), (RATIONAL, planes), (B3, B3_POSITIVE)):
        for _ in range(10):
            basis = [[x + F(rng.randint(-3, 3), rng.randint(4, 9)) for x in v] for v in base]
            sub = Subspace(form, basis)
            if bilinear.subspace_signature(sub) == (len(base), 0, 0):
                cases.append((form, bilinear._positive_frame(sub)))
    assert len(cases) > 20
    for form, rows in cases:
        n, scale = _norm_matrix(form._igram, form._den, rows)
        assert math.gcd(scale, *[x for row in n for x in row]) == 1, rows
        assert [[F(x, scale) for x in row] for row in n] == _norm_reference(form, rows), rows


def _random_pd_gram(rng, rank):
    # B^t B for a nonsingular integer B, skewed by random column operations
    while True:
        b = [[rng.randint(-6, 6) for _ in range(rank)] for _ in range(rank)]
        if charpoly_coeffs(b)[-1] != 0:
            break
    for _ in range(3 * rank):
        i, j = rng.sample(range(rank), 2)
        q = rng.randint(-5, 5)
        for row in b:
            row[j] += q * row[i]
    return [
        [sum(b[t][i] * b[t][j] for t in range(rank)) for j in range(rank)]
        for i in range(rank)
    ]


def test_lll_reduces_random_grams():
    rng = random.Random(6767)
    for trial in range(300):
        rank = 2 + trial % 5
        gram = _random_pd_gram(rng, rank)
        u, g = _lll(gram)
        # columns of U are the rows of u; det U = (-1)^rank c_rank
        assert charpoly_coeffs(u)[-1] in (1, -1)
        conj = [
            [
                sum(u[a][i] * gram[i][j] * u[b][j] for i in range(rank) for j in range(rank))
                for b in range(rank)
            ]
            for a in range(rank)
        ]
        assert conj == g
        mu, bstar = gram_schmidt_reference(g)
        for i in range(rank):
            assert all(abs(mu[i][j]) <= F(1, 2) for j in range(i)), gram
            if i:
                assert bstar[i] >= (F(3, 4) - mu[i][i - 1] ** 2) * bstar[i - 1], gram
    assert _lll([[5]]) == ([[1]], [[5]])
    for indefinite in ([[1, 2], [2, 1]], [[0]], [[2, 1, 0], [1, 1, 0], [0, 0, -1]]):
        with pytest.raises(DomainError):
            _lll(indefinite)


def test_float_path_near_the_boundary_raises_typed_error():
    # closer to the rim than the search reaches, rounding moves the float
    # coordinates off the hyperboloid; that surfaces as a DomainError, not
    # as a wrong systole
    for rho in (1 - 1e-9, 1 - 1e-12, 0.9999999999999999):
        with pytest.raises(DomainError, match="hyperboloid sheet"):
            conf_systole(period_point_from_hpoint(disk_to_hpoint([rho])))


def test_float_search_answers_near_the_rim():
    # a hyperboloid point is the rational line through its float
    # coordinates, so the search is exact there too.  A float search in the
    # form's own basis was 3% off at rho = 0.99964, passed the node limit
    # at 0.9998 and met a non-positive pivot from 0.9999 on.
    for rho in (0.9996, 0.99964, 0.9998, 0.9999, 0.99999):
        point = disk_to_hpoint([rho])
        start = time.perf_counter()
        res = conf_systole(period_point_from_hpoint(point))
        assert time.perf_counter() - start < 1.0, rho
        want, mins = _line_oracle([F(x) for x in point.coords])
        assert res.value_sq == want, rho
        assert frozenset(res.minimizers) == mins, rho
        assert res.certified
    # the float search found these minimizers too
    for angle, w in ((0.3, (557, 532, 165)), (0.785, (985, 697, 696)), (1.2, (265, 96, 247))):
        point = disk_to_hpoint([0.99964 * math.cos(angle), 0.99964 * math.sin(angle)])
        start = time.perf_counter()
        res = conf_systole(period_point_from_hpoint(point))
        assert time.perf_counter() - start < 1.0, angle
        assert set(res.minimizers) == {w, tuple(-x for x in w)}, angle
        assert res.certified


def _box_sized_form(rng, d):
    # a random positive definite integer form whose oracle box stays small
    while True:
        a = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        if abs(np.linalg.det(np.array(a, dtype=float))) < 0.5:
            continue
        m = [[sum(a[k][i] * a[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
        inv = np.linalg.inv(np.array(m, dtype=float))
        seed = min(m[i][i] for i in range(d))
        if math.prod(2 * math.sqrt(seed * inv[i][i]) + 3 for i in range(d)) <= 3000:
            return m


def _both_signs(mins):
    return frozenset(w for v in mins for w in (v, tuple(-x for x in v)))


def test_enumerator_matches_box_oracle():
    # int forms exactly; the same forms scaled by a power of two, where
    # float arithmetic is exact; and near ties, the forms' exact ties split
    # by symmetric noise far inside the 1e-9 tie window
    rng = random.Random(1515)
    ties = 0
    for it in range(240):
        d = 2 + it % 3
        m = _box_sized_form(rng, d)
        best, mins = _shortest(m, min(m[i][i] for i in range(d)))
        want, want_mins = shortest_box_reference(m)
        assert best == want, m
        assert _both_signs(mins) == want_mins and 2 * len(mins) == len(want_mins), m
        ties += len(want_mins) > 2

        c = 2.0 ** rng.randint(-20, 20)
        f = [[c * x for x in row] for row in m]
        best, mins = _shortest(f, min(f[i][i] for i in range(d)))
        want, want_mins = shortest_box_reference(f, tie=1e-9)
        assert best == float(want), f
        assert _both_signs(mins) == want_mins and 2 * len(mins) == len(want_mins), f

        f = [[float(x) for x in row] for row in m]
        eps = 10 ** rng.uniform(-14, -11)
        for i in range(d):
            for j in range(i, d):
                f[i][j] += rng.uniform(-eps, eps) * max(1.0, abs(f[i][j]))
                f[j][i] = f[i][j]
        best, mins = _shortest(f, min(f[i][i] for i in range(d)))
        want, want_mins = shortest_box_reference(f, tie=1e-9)
        # the enumerator completes squares, the oracle sums w^t m w exactly
        assert abs(best - want) <= 1e-13 * want, f
        assert _both_signs(mins) == want_mins and 2 * len(mins) == len(want_mins), f
    assert ties >= 40


def test_enumerator_rejects_non_positive_pivot():
    with pytest.raises(NumericalDomainError, match="pivot"):
        _shortest([[1.0, 2.0], [2.0, 1.0]], 1.0)


def test_conf_systole_on_degenerate_form_raises_precondition():
    # the norm matrix of a degenerate form is singular: no certifying box
    form = GramForm([[1, 0, 0], [0, 0, 0], [0, 0, -1]])
    pp = period_point(Subspace(form, [(1, 0, 0)]))
    assert norm_sq(pp, (1, 1, 1)) == F(2)
    with pytest.raises(PreconditionError):
        conf_systole(pp)


@pytest.mark.parametrize(
    "gram, value_sq, count",
    [([[-1, 0], [0, -2]], 1, 2), ([[-2, 1], [1, -2]], 2, 6)],
)
def test_conf_systole_at_the_zero_period_point(gram, value_sq, count):
    # b+ = 0: the one period point is H = 0, where the norm is -Q
    res = conf_systole(period_point(Subspace(GramForm(gram), [])))
    want, want_mins = shortest_box_reference([[-x for x in row] for row in gram])
    assert (res.value_sq, set(res.minimizers)) == (want, want_mins)
    assert (res.value_sq, len(res.minimizers), res.certified) == (value_sq, count, True)


def test_conf_log_lipschitz_along_distance():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.choice([1, 2])
        p = disk_to_hpoint([rng.uniform(-0.55, 0.55) for _ in range(n)])
        q = disk_to_hpoint([rng.uniform(-0.55, 0.55) for _ in range(n)])
        cp = conf_systole(period_point_from_hpoint(p)).value
        cq = conf_systole(period_point_from_hpoint(q)).value
        d = hyperbolic_distance(p, q)
        assert abs(math.log(cp) - math.log(cq)) <= d + 1e-9


# ---------------------------------------------------------------------------
# supremum search
# ---------------------------------------------------------------------------


CONGRUENCES = [
    [[1, 1], [0, 1]],
    [[1, 0], [1, 1]],
    [[0, 1], [1, 0]],
    [[1, -1], [0, 1]],
    [[2, 1], [1, 1]],
    [[1, 1], [1, 2]],
    [[1, 2], [0, 1]],
    [[1, 0], [-2, 1]],
    [[2, -1], [-1, 1]],
    [[1, -2], [-1, 3]],
]


def _congruent(form, u):
    # U^t G U, the form in the basis of U's columns
    d = len(u)
    return GramForm(
        [
            [
                sum(u[i][a] * form.gram[i][j] * u[j][b] for i in range(d) for j in range(d))
                for b in range(d)
            ]
            for a in range(d)
        ]
    )


def test_cs_supremum_diag_matches_scan_oracle():
    res = cs_supremum(DIAG)

    def norm_sq(a, b, t):
        return 2.0 * (a * math.cosh(t) - b * math.sinh(t)) ** 2 - a * a + b * b

    t_star, oracle = cs_scan_1d(norm_sq)
    assert abs(res.value - oracle) < 1e-4
    # closed form: the systole curves cross where e^{4|t|} = 3
    assert abs(abs(t_star) - math.log(3.0) / 4.0) < 1e-6
    assert abs(res.value - math.sqrt(2.0 / math.sqrt(3.0))) < 1e-6
    assert abs(abs(res.disk_point[0]) - math.tanh(math.log(3.0) / 8.0)) < 1e-3


def test_cs_supremum_hyperbolic_plane_is_center():
    res = cs_supremum(HYP)

    def norm_sq(a, b, t):
        return a * a * math.exp(-2 * t) + b * b * math.exp(2 * t)

    t_star, oracle = cs_scan_1d(norm_sq)
    assert abs(t_star) < 1e-6
    assert abs(oracle - 1.0) < 1e-9
    assert abs(res.value - 1.0) < 1e-6
    assert abs(res.disk_point[0]) < 1e-3


def test_cs_supremum_never_below_sampled_conf():
    res = cs_supremum(DIAG)
    for frac in (F(0), F(1, 10), F(-3, 20), F(1, 4)):
        sampled = conf_systole(rational_disk_period_point(DIAG, (frac,)))
        assert res.value >= sampled.value - 1e-9


def test_cs_supremum_searches_rank_3():
    # grid points near the patch's rim and diagonal once needed enumeration
    # boxes above the size guard (grid 0.2 misses them, grid 0.1 does not)
    res = cs_supremum(minkowski_form(3), CsSearchConfig(grid=0.1))
    centre = conf_systole(period_point_from_hpoint(disk_to_hpoint((0.0,) * 3)))
    assert centre.value == 1.0
    assert res.value >= centre.value
    at = conf_systole(period_point_from_hpoint(disk_to_hpoint(res.disk_point)))
    assert abs(res.value - at.value) < 1e-12


# Hermite's constant gamma_d^d for d = 2, 3, 4
HERMITE_POWER = {2: 4.0 / 3.0, 3: 2.0, 4: 4.0}


def assert_hermite_bound(form, res):
    # the norm form at any period point has determinant |det G|, so
    # CS^2 <= gamma_d |det G|^(1/d)
    d = form.dim
    det = abs(bilinear._int_adjugate([[int(x) for x in row] for row in form.gram])[1])
    bound = (HERMITE_POWER[d] * det) ** (1.0 / d)
    assert res.value**2 <= bound * (1.0 + 1e-12), (form.gram, res)


def test_cs_supremum_certifies_the_hexagonal_maximum():
    # (4/3)^(1/4): the norm form is the hexagonal lattice A2, perfect and
    # eutactic; the hyperbolic plane's maximum is its centre
    res = cs_supremum(DIAG)
    assert res.certified and "local maximum, certified" in str(res)
    assert abs(res.value - (4.0 / 3.0) ** 0.25) < 1e-12
    assert_hermite_bound(DIAG, res)
    # the minimal vectors at q are minimal at the reported disk point
    at = period_point_from_hpoint(disk_to_hpoint(res.disk_point))
    assert res.minimizers
    for w in res.minimizers:
        assert abs(norm_sq(at, w) - res.value**2) < 1e-12
    res = cs_supremum(HYP)
    assert res.certified
    assert abs(res.value - 1.0) < 1e-12
    assert_hermite_bound(HYP, res)
    assert res.minimizers == ((-1, 0), (0, -1), (0, 1), (1, 0))


def test_cs_supremum_rank_3_reaches_one_certified_value():
    # golden-section search once answered 1.1784 at grid 0.2 and 1.2050 at
    # grid 0.05 (CS^2); the maximum is (1 + sqrt 2) / 2
    want = (1.0 + math.sqrt(2.0)) / 2.0
    for grid in (0.05, 0.1, 0.2):
        res = cs_supremum(minkowski_form(2), CsSearchConfig(grid=grid))
        assert res.certified, grid
        assert abs(res.value**2 - want) < 1e-12, (grid, res.value**2)
        assert_hermite_bound(minkowski_form(2), res)


def test_cs_supremum_rank_4_certifies_one_value_or_says_best_found():
    # golden-section search stalled at the grid point (0.2, 0.2, 0.2) at
    # grid 0.1 and answered below the grid 0.15 search
    certified = set()
    for grid in (0.05, 0.1, 0.15):
        res = cs_supremum(minkowski_form(3), CsSearchConfig(grid=grid))
        assert_hermite_bound(minkowski_form(3), res)
        if res.certified:
            certified.add(round(res.value**2, 10))
        else:
            assert "best found" in str(res)
    assert certified == {round(4.0 / 3.0, 10)}


HERMITE_GRAMS = [
    [[2, 0], [0, -1]],
    [[1, 0], [0, -3]],
    [[2, 1], [1, -1]],
    [[1, 0], [0, -7]],
    [[1, 0, 0], [0, -1, 0], [0, 0, -2]],
    [[0, 1, 0], [1, 0, 0], [0, 0, -1]],
    [[1, 0, 0], [0, -2, 1], [0, 1, -3]],
]


def test_cs_supremum_obeys_the_hermite_bound():
    for gram in HERMITE_GRAMS:
        form = GramForm(gram)
        res = cs_supremum(form, CsSearchConfig(grid=0.1))
        assert res.certified, gram
        assert_hermite_bound(form, res)
        if gram == [[1, 0], [0, -3]]:
            # the bound is met where the norm form is a scaled A2
            assert abs(res.value**2 - 2.0) < 1e-12


def _candidates(obj, h):
    # the vectors the ascent hands the certificate at h
    return obj.near_minimal(h, supremum.CANDIDATE_SLACK)[1]


def _conf(obj, disk):
    # conf at a disk point of the patch, by one enumeration
    return math.sqrt(obj.near_minimal(obj.hpoint(disk), supremum.ACTIVE_SLACK)[0])


def test_stopped_or_tampered_searches_are_not_certified(monkeypatch):
    # a search stopped at its best grid point is no local maximum
    with monkeypatch.context() as m:
        m.setattr(supremum, "MAX_ASCENT_STEPS", 0)
        res = cs_supremum(minkowski_form(2), CsSearchConfig(grid=0.2))
    assert not res.certified and "best found" in str(res)
    assert res.ascent_steps == 0 and res.exact_evaluations >= 1
    # the same check proves the maximum, and refuses a point 1e-4 beside it
    obj = _DiskObjective(DIAG)
    h = list(disk_to_hpoint(cs_supremum(DIAG).disk_point).coords)
    assert supremum._certify(obj, h, 1e-6, _candidates(obj, h))[0]
    beside = supremum._exp(h, supremum._frame(h), [1e-4])
    assert not supremum._certify(obj, beside, 1e-6, _candidates(obj, beside))[0]
    # a neighbourhood whose chart is flat encloses nothing
    with monkeypatch.context() as m:
        m.setattr(supremum, "_frame", lambda x: [list(x)])
        assert not supremum._certify(obj, h, 1e-6, _candidates(obj, h))[0]
    # a cell budget too small to cover the boundary proves nothing
    obj = _DiskObjective(minkowski_form(2))
    res = cs_supremum(minkowski_form(2), CsSearchConfig(grid=0.2))
    h = list(disk_to_hpoint(res.disk_point).coords)
    assert supremum._certify(obj, h, 1e-6, _candidates(obj, h))[0]
    with monkeypatch.context() as m:
        m.setattr(supremum, "MAX_CERT_CELLS", 3)
        assert not supremum._certify(obj, h, 1e-6, _candidates(obj, h))[0]
    # with one cell per face, a point whose maximum lies past a corner of
    # its cube has every cell centre below it: only the cells' radii
    # show that the boundary rises above it near that corner
    rho = 1e-3 / (2.0 * math.sqrt(2.0))
    past = supremum._exp(h, supremum._frame(h), [-math.sqrt(2.0) * rho, -math.sqrt(2.0) * rho])
    with monkeypatch.context() as m:
        m.setattr(supremum, "CERT_SPLIT", 1)
        assert not supremum._certify(obj, past, 1e-3, _candidates(obj, past))[0]


def test_cell_bound_is_the_enumerated_minimum(monkeypatch):
    # a cell of the certificate reads the least norm of the ascent's
    # candidates in place of an enumeration; at every cell of these
    # searches that bound must be the enumerated minimum itself
    certify, least_norm = supremum._certify, supremum._least_norm
    objs, cells = [], []

    def spy_certify(obj, *args):
        objs.append(obj)
        return certify(obj, *args)

    def spy_least_norm(lines, p, pp):
        least = least_norm(lines, p, pp)
        obj = objs[-1]
        cells.append(F(least, pp * obj.den) == _minimum(*_norm_matrix(obj.igram, obj.den, [p]))[0])
        return least

    monkeypatch.setattr(supremum, "_certify", spy_certify)
    monkeypatch.setattr(supremum, "_least_norm", spy_least_norm)
    searches = [(minkowski_form(1), 0.05), (minkowski_form(2), 0.2), (minkowski_form(3), 0.15)]
    searches += [(GramForm(gram), 0.1) for gram in HERMITE_GRAMS]
    spent = 0
    for form, grid in searches:
        res = cs_supremum(form, CsSearchConfig(grid=grid))
        assert res.certified, (form.gram, grid)
        spent += res.exact_evaluations - 1  # one enumeration at q, one bound a cell
    assert len(cells) == spent > 70 and all(cells)


def test_cell_bound_from_the_minimizers_alone_still_refuses(monkeypatch):
    # with no candidates from the ascent a cell reads q's minimizers
    # alone: still an upper bound on conf at its centre, so the points
    # the certificate refuses with every candidate stay refused
    obj = _DiskObjective(DIAG)
    h = list(disk_to_hpoint(cs_supremum(DIAG).disk_point).coords)
    beside = supremum._exp(h, supremum._frame(h), [1e-4])
    assert not supremum._certify(obj, beside, 1e-6, [])[0]
    obj = _DiskObjective(minkowski_form(2))
    res = cs_supremum(minkowski_form(2), CsSearchConfig(grid=0.2))
    h = list(disk_to_hpoint(res.disk_point).coords)
    rho = 1e-3 / (2.0 * math.sqrt(2.0))
    past = supremum._exp(h, supremum._frame(h), [-math.sqrt(2.0) * rho, -math.sqrt(2.0) * rho])
    with monkeypatch.context() as m:
        m.setattr(supremum, "CERT_SPLIT", 1)
        assert not supremum._certify(obj, past, 1e-3, [])[0]


def test_min_norm_drop_step_keeps_the_least_norm_point(monkeypatch):
    # Wolfe's drop step (the theta move) runs when the affine minimizer of
    # the corral leaves its hull; the ascent's gradients reach it rarely,
    # these seeded point sets often.  It is counted at the solve that
    # returns weights with one <= 0, as in the oracle test below.  Each
    # answer is checked by the optimality condition alone: x is a convex
    # combination of the points and <x, p> >= |x|^2 for every point p, up
    # to rounding
    solve = supremum._solve
    drops = 0

    def counting(rows, rhs):
        nonlocal drops
        mu = solve(rows, rhs)
        drops += mu is not None and min(mu[:-1]) <= 0.0
        return mu

    monkeypatch.setattr(supremum, "_solve", counting)
    for dim in (2, 3):
        rng = random.Random(dim)
        before = drops
        for _ in range(100):
            pts = [
                [rng.uniform(-1.0, 1.0) + (c == 0) for c in range(dim)]
                for _ in range(rng.randint(3, 30))
            ]
            x, weights = supremum._min_norm(pts)
            eps = 1e-12 * max(sum(c * c for c in p) for p in pts)
            assert all(w >= 0.0 for w in weights) and abs(sum(weights) - 1.0) < 1e-12
            for c in range(dim):
                assert abs(x[c] - sum(w * p[c] for w, p in zip(weights, pts))) < 1e-12
            xx = sum(c * c for c in x)
            assert all(sum(map(operator.mul, x, p)) >= xx - eps for p in pts), pts
        assert drops - before >= 30, dim


def test_min_norm_minor_cycle_agrees_with_the_subset_oracle(monkeypatch):
    # Wolfe's minor cycle runs when the corral's affine minimizer has a
    # weight <= 0.  It is counted at the solve that returns such weights,
    # not by sys.settrace, which would hide its lines from a coverage
    # tracer.  Every answer is the exact least-norm point of the hull,
    # found over all subsets, up to rounding
    solve = supremum._solve
    minor = 0

    def counting(rows, rhs):
        nonlocal minor
        mu = solve(rows, rhs)
        minor += mu is not None and min(mu[:-1]) <= 0.0
        return mu

    monkeypatch.setattr(supremum, "_solve", counting)
    for dim in (1, 2, 3):
        rng = random.Random(dim)
        for _ in range(100):
            pts = [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(rng.randint(2, 6))]
            x, weights = supremum._min_norm(pts)
            want = min_norm_reference(pts)
            assert all(abs(a - float(b)) < 1e-12 for a, b in zip(x, want)), pts
            assert all(w >= 0.0 for w in weights) and abs(sum(weights) - 1.0) < 1e-12
    assert minor >= 25


def test_tiny_refine_tolerance_is_best_found():
    # a neighbourhood of radius 1e-20 is below the float search's accuracy
    res = cs_supremum(minkowski_form(2), CsSearchConfig(grid=0.2, refine_tol=1e-20))
    assert not res.certified
    assert abs(res.value**2 - (1.0 + math.sqrt(2.0)) / 2.0) < 1e-12


def test_cs_grid_guard_refuses_before_any_evaluation(monkeypatch):
    def boom(*args):
        raise AssertionError("evaluated")

    monkeypatch.setattr(_DiskObjective, "near_minimal", boom)
    for n, step in ((2, 0.001), (3, 0.01), (4, 0.05), (1, 1e-300), (3, 5e-324)):
        with pytest.raises(ResourceError, match=f"above the limit {supremum.MAX_CS_GRID}"):
            cs_supremum(minkowski_form(n), CsSearchConfig(grid=step))
    with pytest.raises(ResourceError, match="walks 3243601 grid points"):
        cs_supremum(minkowski_form(2), CsSearchConfig(grid=0.001))
    # the largest grid in use, rank 4 at grid 0.05, walks 37^3 = 50,653
    supremum.check_cs_grid(3, 0.05)
    assert len(supremum._grid_ticks(PATCH_RADIUS, 0.05)) ** 3 == 50653


def test_cs_search_judges_the_signature_before_the_grid():
    # a (2, 1) form at grid 0.001 was once refused for its 3,243,601 grid
    # points, not for its signature
    with pytest.raises(
        PreconditionError, match=r"^cs_supremum needs signature \(1, 2\), got \(2, 1, 0\)$"
    ):
        cs_supremum(GramForm([[1, 0, 0], [0, 1, 0], [0, 0, -1]]), CsSearchConfig(grid=0.001))


def test_cs_grid_screen_skips_only_points_below_the_best():
    # the walk skips the enumeration at a point where a vector it already
    # knows is shorter than the best value by the margin; it must end
    # where a walk that enumerates every point ends, and every point it
    # skipped must be below the best value at that moment
    cases = [(_congruent(base, u), 0.05) for base in (DIAG, HYP) for u in CONGRUENCES]
    cases += [(GramForm(gram), 0.1) for gram in HERMITE_GRAMS]
    cases += [(minkowski_form(n), step) for n in (1, 2, 3) for step in (0.2, 0.15, 0.1)]
    skipped = 0
    for form, step in cases:
        plain = _DiskObjective(form)
        best_pt = (0.0,) * plain.n
        best = _conf(plain, best_pt)
        below = {}  # grid point -> (its value, the best before it)
        for pt in _grid_points(plain.n, PATCH_RADIUS, step):
            val = _conf(plain, pt)
            below[pt] = (val, best)
            if val > best + 1e-15:
                best, best_pt = val, pt

        obj = _DiskObjective(form)
        enumerated = set()
        near_minimal = obj.near_minimal

        def spy(h, slack):
            enumerated.add(tuple(h))
            return near_minimal(h, slack)

        obj.near_minimal = spy
        assert supremum._grid_start(obj, step) == (best_pt, best), (form.gram, step)
        assert obj.evaluations == plain.evaluations
        for pt, (val, before) in below.items():
            if tuple(obj.hpoint(pt)) not in enumerated:
                skipped += 1
                assert val < before, (form.gram, step, pt)
    assert skipped > 0


class _StubObjective:
    """conf^2 by grid point, with no vectors, so the walk screens nothing
    out and enumerates every point; the centre's value is 1."""

    n = 1

    def __init__(self, values):
        self.values = values
        self.evaluations = 0

    def hpoint(self, disk):
        return _DiskObjective.hpoint(self, disk)

    def near_minimal(self, h, slack):
        self.evaluations += 1
        return self.values.get(tuple(h), 1.0), []


def test_a_grid_point_replaces_the_best_only_by_more_than_the_tie():
    step = 0.1
    table = supremum._grid_table(1, step)
    (a, ha), (b, hb), (c, hc) = table[3], table[5], table[8]
    tie = supremum.GRID_TIE
    top = 1.0 + 4.0 * tie
    cases = [
        # within GRID_TIE of the centre: the centre stays the best
        ({ha: (1.0 + 0.5 * tie) ** 2}, ((0.0,), 1.0)),
        # more than GRID_TIE above it: the later point replaces it, and a
        # still later one within GRID_TIE of the new best does not
        ({ha: (1.0 + 0.5 * tie) ** 2, hb: top**2, hc: (top + 0.5 * tie) ** 2}, (b, top)),
        # two points past the tie in a row: the later, higher one wins
        ({hb: top**2, hc: (top + 2.0 * tie) ** 2}, (c, top + 2.0 * tie)),
    ]
    for values, want in cases:
        stub = _StubObjective(values)
        assert supremum._grid_start(stub, step) == want, values
        assert stub.evaluations == 1 + len(table)


def test_grid_table_is_the_walks_points_and_their_hyperboloid_points():
    # bit for bit: repr tells -0.0 from 0.0, which == does not
    obj = _DiskObjective(minkowski_form(1))
    for n in (1, 2, 3):
        for step in (0.3, 0.2, 0.15, 0.1, 0.05, 0.07):
            table = supremum._grid_table(n, step)
            want = [(pt, tuple(obj.hpoint(pt))) for pt in _grid_points(n, PATCH_RADIUS, step)]
            assert list(table) == want and repr(list(table)) == repr(want), (n, step)
            assert type(table) is tuple
            assert all(type(pt) is tuple and type(h) is tuple for pt, h in table)
    with pytest.raises(TypeError):
        table[0][1][0] = 2.0
    assert supremum._grid_table(3, 0.07) is table  # built once per (n, step)
    info = supremum._grid_table.cache_info()
    assert info.maxsize == 8 and info.currsize == 8  # 18 grids built, 8 kept


def test_a_refused_grid_never_reaches_the_table(monkeypatch):
    def boom(*args):
        raise AssertionError("table built")

    monkeypatch.setattr(supremum, "_grid_table", boom)
    for n, step in ((2, 0.001), (3, 0.01), (4, 0.05), (1, 1e-300)):
        with pytest.raises(ResourceError, match="above the limit"):
            cs_supremum(minkowski_form(n), CsSearchConfig(grid=step))


def test_disk_objective_is_the_float_systole():
    # neither enumerates a box, so both answer points whose box would pass
    # the size guard (n = 3 from about rho = 0.87, near the diagonal); the
    # objective searches in floats, the systole exactly
    rng = random.Random(8128)
    for n in (1, 2, 3):
        obj = _DiskObjective(minkowski_form(n))
        points = [
            (rng.uniform(0.0, 0.9), [rng.gauss(0.0, 1.0) for _ in range(n)])
            for _ in range(20)
        ]
        # near the rim and the diagonal, where the box is largest
        points += [
            (rng.uniform(0.87, 0.9), [rng.uniform(0.8, 1.2) for _ in range(n)])
            for _ in range(8)
        ]
        for rho, direction in points:
            norm = math.sqrt(sum(x * x for x in direction))
            disk = [rho * x / norm for x in direction]
            want = conf_systole(period_point_from_hpoint(disk_to_hpoint(disk)))
            assert want.certified, disk
            assert abs(_conf(obj, disk) - want.value) <= 1e-10 * want.value, disk
        assert obj.evaluations == len(points)


def test_cs_supremum_reduces_a_skewed_basis(monkeypatch):
    # the images of minkowski_form(2) under a unimodular matrix with entries
    # k and k^2 once needed an enumeration box of about k^6 points; in the
    # basis reduced at the patch centre no evaluation enters 100 nodes
    want = cs_supremum(minkowski_form(2), CsSearchConfig(grid=0.2)).value
    monkeypatch.setattr(systole, "MAX_ENUMERATION", 100)
    for k in (30, 10**4, 10**9):
        u = np.array([[1 + k * k, k, 0], [k, 1, k], [0, 0, 1]], dtype=object)
        gram = u.T @ np.diag([1, -1, -1]).astype(object) @ u
        res = cs_supremum(GramForm(gram.tolist()), CsSearchConfig(grid=0.2))
        assert abs(res.value - want) < 1e-3, k


def test_enumeration_refuses_past_the_node_limit():
    # no box: the first coordinate range alone holds 10^8 + 1 nodes
    with pytest.raises(ResourceError, match="nodes"):
        _shortest([[1, 0], [0, 1]], 10**16)


def test_disk_objective_maps_no_point_outside_the_patch():
    obj = _DiskObjective(minkowski_form(2))
    assert _conf(obj, (PATCH_RADIUS, 0.0)) > 0.0
    assert obj.hpoint((0.0, PATCH_RADIUS + 1e-9)) is None
    assert obj.hpoint((0.7, -0.7)) is None
    assert obj.evaluations == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_disk_objective_refuses_non_finite_points(bad):
    obj = _DiskObjective(minkowski_form(2))
    for point in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(DomainError, match="finite"):
            obj.hpoint(point)
    # a finite point far outside the patch is only outside it
    assert obj.hpoint((1e200, 0.0)) is None
    assert obj.evaluations == 0


def test_grid_ticks_are_numpy_arange_bit_for_bit():
    # the CS search's grid is np.arange's, so its points, and with them
    # every CS result, do not depend on numpy being loaded
    rng = random.Random(1818)
    radii = [PATCH_RADIUS, 0.5, 1.0] + [rng.uniform(0.01, 3.0) for _ in range(300)]
    steps = [0.2, 0.1, 0.05, 0.15] + [10 ** rng.uniform(-2.5, 0.5) for _ in range(300)]
    for radius, step in zip(radii, steps):
        ticks = np.arange(-radius, radius + step / 2, step).tolist()
        want = [(x,) for x in ticks if x * x <= radius * radius]
        got = list(_grid_points(1, radius, step))
        assert got == want, (radius, step)
        # == takes -0.0 for 0.0; the signs must agree too
        assert [math.copysign(1.0, x) for (x,) in got] == [
            math.copysign(1.0, x) for (x,) in want
        ]
    for step in (0.2, 0.15, 0.1):
        ticks = np.arange(-PATCH_RADIUS, PATCH_RADIUS + step / 2, step).tolist()
        want = [
            p
            for p in itertools.product(ticks, repeat=2)
            if p[0] * p[0] + p[1] * p[1] <= PATCH_RADIUS * PATCH_RADIUS
        ]
        assert list(_grid_points(2, PATCH_RADIUS, step)) == want


def test_cs_search_path_is_pinned():
    # the grid, the ascent and the certificate's cells, and so every count,
    # are fixed by the search, not by how an evaluation is computed
    res = cs_supremum(minkowski_form(1))
    assert (res.evaluations, res.ascent_steps, res.exact_evaluations) == (40, 1, 3)
    res = cs_supremum(minkowski_form(2), CsSearchConfig(grid=0.2))
    assert (res.evaluations, res.ascent_steps, res.exact_evaluations) == (65, 3, 9)


def test_cs_search_path_is_pinned_at_rank_4():
    res = cs_supremum(minkowski_form(3), CsSearchConfig(grid=0.15))
    assert (res.evaluations, res.ascent_steps, res.exact_evaluations) == (909, 3, 61)


@pytest.mark.parametrize("field", ["grid", "refine_tol"])
@pytest.mark.parametrize("bad", [0, 0.0, -0.1, -1e-20, math.nan, math.inf, -math.inf, True, "0.1", None])
def test_cs_search_steps_must_be_positive_and_finite(field, bad):
    with pytest.raises(InputError, match=field):
        CsSearchConfig(**{field: bad})


def test_tiny_refine_tolerance_returns():
    # Newton stops once rounding stops its residual from falling, so a
    # tolerance far below the float spacing ends the search instead of
    # looping forever
    want = cs_supremum(DIAG)
    start = time.perf_counter()
    res = cs_supremum(DIAG, CsSearchConfig(refine_tol=1e-20))
    assert time.perf_counter() - start < 5.0
    assert abs(res.value - want.value) < 1e-6
    assert res.refine_tol == 1e-20


def test_cs_invariance_under_unimodular_congruence():
    for u in CONGRUENCES:
        assert cs_invariance_check(DIAG, _congruent(DIAG, u), u), u
    # rational grams: the congruence is compared over each form's denominator
    form = GramForm([[F(1, 2), 0], [0, F(-1, 3)]])
    assert cs_invariance_check(form, _congruent(form, CONGRUENCES[-1]), CONGRUENCES[-1])


def test_cs_invariance_rejects_wrong_congruence():
    with pytest.raises(PreconditionError):
        cs_invariance_check(DIAG, HYP, [[1, 0], [0, 1]])
    with pytest.raises(PreconditionError):
        cs_invariance_check(DIAG, DIAG, [[2, 0], [0, 1]])
    with pytest.raises(PreconditionError):  # a second form of another rank
        cs_invariance_check(DIAG, minkowski_form(2), [[1, 0], [0, 1]])
    with pytest.raises(PreconditionError):  # the right integers over the wrong denominator
        cs_invariance_check(DIAG, GramForm([[F(1, 2), 0], [0, F(-1, 2)]]), [[1, 0], [0, 1]])
    with pytest.raises(InputError):
        cs_invariance_check(DIAG, DIAG, [[1, 0]])


@pytest.mark.parametrize("entry", ["x", True, 1.5])
def test_cs_invariance_rejects_malformed_entries(entry):
    with pytest.raises(InputError):
        cs_invariance_check(DIAG, DIAG, [[entry, 0], [0, 1]])


def test_systole_serves_two_search_names():
    # the benchmark reads these as systole attributes
    for name in ("cs_supremum", "CsSearchConfig"):
        assert getattr(systole, name) is getattr(supremum, name), name
    for name in ("_certify", "cs_invariance_check", "PATCH_RADIUS"):
        assert not hasattr(systole, name), name
    assert periodmap.cs_supremum is supremum.cs_supremum
    assert periodmap.cs_invariance_check is supremum.cs_invariance_check
    # the search imports the exact half and redefines none of it
    own = vars(systole)
    redefined = [
        name
        for name, value in vars(supremum).items()
        if not name.startswith("__") and name in own and own[name] is not value
    ]
    assert redefined == []


# ---------------------------------------------------------------------------
# reporting helpers
# ---------------------------------------------------------------------------


def test_rational_disk_period_point_validation():
    pp = rational_disk_period_point(DIAG, (F(1, 3),))
    gen = pp.subspace.basis[0]
    assert DIAG.evaluate(gen, gen) > 0
    with pytest.raises(DomainError):
        rational_disk_period_point(DIAG, (F(3, 2),))
    with pytest.raises(PreconditionError):
        rational_disk_period_point(HYP, (F(1, 3),))
    # a string used to be read as one coordinate per character
    with pytest.raises(InputError):
        rational_disk_period_point(minkowski_form(2), "00")


@pytest.mark.parametrize("entry", [0.1, "x"])
def test_rational_disk_period_point_rejects_inexact_entries(entry):
    # a float that is not an integer is not read as its binary expansion
    with pytest.raises(InputError):
        rational_disk_period_point(DIAG, [entry])


def test_result_strings_mention_certification():
    res = conf_systole(x_axis_point())
    assert "certified" in str(res)
    floating = conf_systole(period_point_from_hpoint(disk_to_hpoint([0.8])))
    assert str(floating).endswith(
        f"[certified, needed radius {floating.needed_radius}]"
    )
    # a certified exact result enumerates no box, so none is printed
    far = conf_systole(rational_disk_period_point(DIAG, (F(99, 100),)))
    assert str(far).endswith(f"[certified, needed radius {far.needed_radius}]")
    sup = cs_supremum(DIAG, CsSearchConfig(grid=0.1, refine_tol=1e-5))
    assert "CS" in str(sup)
