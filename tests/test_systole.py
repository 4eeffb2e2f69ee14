import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from periodmap import bilinear, systole
from periodmap.bilinear import GramForm, Subspace, hyperbolic_plane_form, minkowski_form
from periodmap.errors import (
    DomainError,
    InputError,
    NumericalDomainError,
    PreconditionError,
    ResourceError,
)
from periodmap.grassmannian import HPoint, disk_to_hpoint, hyperbolic_distance
from periodmap.systole import (
    PATCH_RADIUS,
    CsSearchConfig,
    PeriodPoint,
    _DiskObjective,
    _lll,
    _shortest,
    conf_systole,
    cs_invariance_check,
    cs_supremum,
    period_norm_sq,
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
    lagrange_gauss_minimum,
)

F = Fraction
DIAG = minkowski_form(1)
HYP = hyperbolic_plane_form()


def x_axis_point():
    return period_point(Subspace(DIAG, [(1, 0)]))


# ---------------------------------------------------------------------------
# period point construction
# ---------------------------------------------------------------------------


def test_period_point_requires_exactly_one_representation():
    with pytest.raises(InputError):
        PeriodPoint(ambient=DIAG)
    with pytest.raises(InputError):
        PeriodPoint(
            ambient=DIAG,
            subspace=Subspace(DIAG, [(1, 0)]),
            point=HPoint((1.0, 0.0)),
        )


def test_period_point_must_be_maximal_positive():
    with pytest.raises(PreconditionError):
        period_point(Subspace(DIAG, [(0, 1)]))  # negative line
    with pytest.raises(PreconditionError):
        # positive but not maximal in a (1,1) form extended by nothing;
        # degenerate span caught the same way
        period_point(Subspace(minkowski_form(2), [(1, 1, 0)]))


def test_float_path_needs_diagonal_form():
    with pytest.raises(PreconditionError):
        PeriodPoint(ambient=HYP, point=HPoint((1.0, 0.0)))


def test_float_period_points_share_one_form_split(monkeypatch):
    # each float point used to build its own standard form and diagonalize
    # it; the shared form is split at most once
    calls = []
    congruence = bilinear._congruence
    monkeypatch.setattr(
        bilinear, "_congruence", lambda m: calls.append(1) or congruence(m)
    )
    rng = random.Random(11)
    for _ in range(100):
        disk = [rng.uniform(-0.6, 0.6) for _ in range(2)]
        period_point_from_hpoint(disk_to_hpoint(disk))
    assert len(calls) <= 1


# ---------------------------------------------------------------------------
# the norm
# ---------------------------------------------------------------------------


def test_norm_on_h_is_form_value():
    pp = x_axis_point()
    assert period_norm_sq(pp, (1, 0)) == F(1)
    assert math.sqrt(period_norm_sq(pp, (1, 0))) == 1.0


def test_norm_on_complement_is_negated_form_value():
    pp = x_axis_point()
    assert period_norm_sq(pp, (0, 1)) == F(1)


def test_norm_along_boosted_point_matches_closed_form():
    t = 0.7
    pp = period_point_from_hpoint(HPoint((math.cosh(t), math.sinh(t))))
    for w, want in (
        ((1, 1), math.sqrt(2.0) * math.exp(-t)),
        ((1, -1), math.sqrt(2.0) * math.exp(t)),
        ((1, 0), math.sqrt(math.cosh(2 * t))),
    ):
        assert abs(math.sqrt(period_norm_sq(pp, w)) - want) < 1e-12


def test_norm_on_hyperbolic_plane_basis_vector():
    # the positive line through (1, 1) is rational even though the unit
    # vector is not; the basis vector has norm exactly 1 there
    pp = period_point(Subspace(HYP, [(1, 1)]))
    assert period_norm_sq(pp, (1, 0)) == F(1)
    assert period_norm_sq(pp, (0, 1)) == F(1)


def test_norm_homogeneity_and_definiteness():
    pp = rational_disk_period_point(minkowski_form(2), (F(1, 3), F(-1, 7)))
    w = (3, -2, 5)
    assert period_norm_sq(pp, [3 * x for x in w]) == 9 * period_norm_sq(pp, w)
    assert period_norm_sq(pp, w) > 0
    assert period_norm_sq(pp, (0, 0, 0)) == 0
    with pytest.raises(InputError):
        period_norm_sq(pp, (1, 0))


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


def test_conf_systole_sublattice_scale_doubles():
    base = conf_systole(x_axis_point())
    scaled = conf_systole(x_axis_point(), lattice_scale=2)
    assert scaled.value_sq == 4 * base.value_sq
    assert scaled.value == 2 * base.value
    assert (2, 0) in scaled.minimizers


def test_conf_systole_rejects_non_integer_scale():
    # a fractional scale used to report fractional "lattice" minimizers
    for bad in (F(3, 2), F(2), 1.5, 2.0, 0, -1, True):
        with pytest.raises(InputError):
            conf_systole(x_axis_point(), lattice_scale=bad)
    res = conf_systole(x_axis_point(), lattice_scale=3)
    assert all(type(x) is int for m in res.minimizers for x in m)


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
            assert not res.certified  # float arithmetic certifies nothing


def _stretched(k, sign):
    return rational_disk_period_point(DIAG, (F(sign * (k - 1), k),))


def _stretched_oracle(pp):
    h = pp.subspace.basis[0]
    gh = (h[0], -h[1])
    qh = h[0] * h[0] - h[1] * h[1]
    m = [
        [2 * gh[i] * gh[j] / qh - DIAG.gram[i][j] for j in range(2)]
        for i in range(2)
    ]
    return lagrange_gauss_minimum(m)


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
    # b+ = 2: the norm matrix carries adj R / det R for a 2x2 R, and a
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
            assert period_norm_sq(pp, res.minimizers[0]) == res.value_sq
            checked += 1


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
    # rounding makes the norm matrix there numerically indefinite (and,
    # closer still, singular); that used to surface as a bare ValueError
    for rho in (0.9999, 0.99999):
        pp = period_point_from_hpoint(disk_to_hpoint([rho]))
        with pytest.raises(NumericalDomainError, match="norm matrix"):
            conf_systole(pp)


def test_float_search_answers_near_the_rim():
    # in the form's own basis the seed ellipsoid there is long and thin; the
    # bound fell to the short vectors at once, but a range kept the upper
    # end the seed gave it (12,495,001 values of the first coordinate at
    # rho = 0.9996) and each point took seconds.  Cut as the bound falls,
    # every range ends at once.
    for rho in (0.9996, 0.99964):
        point = disk_to_hpoint([rho])
        start = time.perf_counter()
        res = conf_systole(period_point_from_hpoint(point))
        assert time.perf_counter() - start < 1.0, rho
        m = systole._norm_matrix_float(point.coords).tolist()
        want, mins = lagrange_gauss_minimum([[F(x) for x in row] for row in m])
        # one rounding of the largest entry
        assert abs(res.value_sq - want) <= max(map(abs, m[0] + m[1])) * 2.0**-52, rho
        assert frozenset(res.minimizers) == mins, rho
    # the search without the cut found these minimizers too, in seconds
    for angle, w in ((0.3, (557, 532, 165)), (0.785, (985, 697, 696)), (1.2, (265, 96, 247))):
        point = disk_to_hpoint([0.99964 * math.cos(angle), 0.99964 * math.sin(angle)])
        start = time.perf_counter()
        res = conf_systole(period_point_from_hpoint(point))
        assert time.perf_counter() - start < 1.0, angle
        assert set(res.minimizers) == {w, tuple(-x for x in w)}, angle
        assert res.value_sq > 0 and not res.certified


def test_enumerator_rejects_non_positive_pivot():
    with pytest.raises(NumericalDomainError, match="pivot"):
        _shortest([[1.0, 2.0], [2.0, 1.0]], 1.0)


def test_conf_systole_on_degenerate_form_raises_precondition():
    # the norm matrix of a degenerate form is singular: no certifying box
    form = GramForm([[1, 0, 0], [0, 0, 0], [0, 0, -1]])
    pp = period_point(Subspace(form, [(1, 0, 0)]))
    assert period_norm_sq(pp, (1, 1, 1)) == F(2)
    with pytest.raises(PreconditionError):
        conf_systole(pp)


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


def test_disk_objective_is_the_float_systole():
    # neither enumerates a box, so both answer points whose box would pass
    # the size guard (n = 3 from about rho = 0.87, near the diagonal)
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
            assert not want.certified, disk
            assert obj(disk) == want.value, disk
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


def test_disk_objective_is_minus_inf_outside_the_patch():
    obj = _DiskObjective(minkowski_form(2))
    assert obj((PATCH_RADIUS, 0.0)) > 0.0
    assert obj((0.0, PATCH_RADIUS + 1e-9)) == -math.inf
    assert obj((0.7, -0.7)) == -math.inf
    assert obj.evaluations == 1


def test_cs_invariance_under_unimodular_congruence():
    mats = [
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
    for u in mats:
        d = len(u)
        conj = [
            [
                sum(u[i][a] * DIAG.gram[i][j] * u[j][b] for i in range(d) for j in range(d))
                for b in range(d)
            ]
            for a in range(d)
        ]
        form_b = GramForm(conj)
        assert cs_invariance_check(DIAG, form_b, u), u


def test_cs_invariance_rejects_wrong_congruence():
    with pytest.raises(PreconditionError):
        cs_invariance_check(DIAG, HYP, [[1, 0], [0, 1]])
    with pytest.raises(PreconditionError):
        cs_invariance_check(DIAG, DIAG, [[2, 0], [0, 1]])
    with pytest.raises(InputError):
        cs_invariance_check(DIAG, DIAG, [[1, 0]])


@pytest.mark.parametrize("entry", ["x", True, 1.5])
def test_cs_invariance_rejects_malformed_entries(entry):
    with pytest.raises(InputError):
        cs_invariance_check(DIAG, DIAG, [[entry, 0], [0, 1]])


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
        f"[float, not certified, needed radius {floating.needed_radius}]"
    )
    # a certified exact result enumerates no box, so none is printed
    far = conf_systole(rational_disk_period_point(DIAG, (F(99, 100),)))
    assert str(far).endswith(f"[certified, needed radius {far.needed_radius}]")
    sup = cs_supremum(DIAG, CsSearchConfig(grid=0.1, refine_tol=1e-5))
    assert "CS" in str(sup)
