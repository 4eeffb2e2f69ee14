import math
import random
from fractions import Fraction

import pytest

from periodmap.bilinear import GramForm, Subspace, hyperbolic_plane_form, minkowski_form
from periodmap.errors import (
    DomainError,
    InputError,
    NumericalDomainError,
    PreconditionError,
)
from periodmap.grassmannian import HPoint, disk_to_hpoint, hyperbolic_distance
from periodmap.systole import (
    CsSearchConfig,
    PeriodPoint,
    _shortest,
    conf_systole,
    cs_invariance_check,
    cs_supremum,
    disk_of_period_point,
    period_norm,
    period_norm_sq,
    period_point,
    period_point_from_hpoint,
    rational_disk_period_point,
)

from oracles import (
    brute_force_systole,
    cs_scan_1d,
    float_brute_force_systole,
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


# ---------------------------------------------------------------------------
# the norm
# ---------------------------------------------------------------------------


def test_norm_on_h_is_form_value():
    pp = x_axis_point()
    assert period_norm_sq(pp, (1, 0)) == F(1)
    assert period_norm(pp, (1, 0)) == 1.0


def test_norm_on_complement_is_negated_form_value():
    pp = x_axis_point()
    assert period_norm_sq(pp, (0, 1)) == F(1)


def test_norm_along_boosted_point_matches_closed_form():
    t = 0.7
    pp = period_point_from_hpoint(HPoint((math.cosh(t), math.sinh(t))))
    want = math.sqrt(2.0) * math.exp(-t)
    assert abs(period_norm(pp, (1, 1)) - want) < 1e-12
    assert abs(period_norm(pp, (1, -1)) - math.sqrt(2.0) * math.exp(t)) < 1e-12
    assert abs(period_norm(pp, (1, 0)) - math.sqrt(math.cosh(2 * t))) < 1e-12


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


def test_conf_systole_uncertified_when_capped():
    pp = rational_disk_period_point(DIAG, (F(4, 5),))
    res = conf_systole(pp, lattice_bound=1)
    assert not res.certified
    assert res.needed_radius > 1
    full = conf_systole(pp)
    assert full.certified
    assert full.value_sq <= res.value_sq


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


def test_enumerator_matches_brute_force_with_and_without_cap():
    # a capped box is the uncapped one cut by the cube of the cap, and
    # every vector outside the uncapped box has norm above the seed, so
    # the cube of the cap is a valid oracle box for the capped search
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
            for bound in (None, 1, 2):
                res = conf_systole(pp, lattice_bound=bound)
                radius = _disk_radius_bound(rho) if bound is None else bound
                want_sq, want_mins = brute_force_systole(
                    form.gram, pp.subspace.basis[0], radius=radius
                )
                assert res.value_sq == want_sq, (disk, bound)
                assert frozenset(res.minimizers) == want_mins, (disk, bound)
                capped = bound is not None and res.needed_radius > bound
                assert res.certified == (not capped)
                assert res.bound_used == (bound if capped else res.needed_radius)


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


def test_stretched_point_matches_lagrange_gauss_reduction():
    # at 19/20 the box is 760 steps wide but the shortest vectors are tiny
    for r in (F(19, 20), F(-19, 20)):
        pp = rational_disk_period_point(DIAG, (r,))
        res = conf_systole(pp)
        h = pp.subspace.basis[0]
        gh = (h[0], -h[1])
        qh = h[0] * h[0] - h[1] * h[1]
        m = [
            [2 * gh[i] * gh[j] / qh - DIAG.gram[i][j] for j in range(2)]
            for i in range(2)
        ]
        want, mins = lagrange_gauss_minimum(m)
        assert res.needed_radius == 760
        assert res.certified
        assert res.value_sq == want
        assert frozenset(res.minimizers) == mins


def test_float_path_near_the_boundary_raises_typed_error():
    # rounding makes the norm matrix there numerically indefinite (and,
    # closer still, singular); that used to surface as a bare ValueError
    for rho in (0.9999, 0.99999):
        pp = period_point_from_hpoint(disk_to_hpoint([rho]))
        with pytest.raises(NumericalDomainError, match="norm matrix"):
            conf_systole(pp)


def test_enumerator_rejects_non_positive_pivot():
    with pytest.raises(NumericalDomainError, match="pivot"):
        _shortest([[1.0, 2.0], [2.0, 1.0]], 1.0, [1, 1])


def test_conf_systole_rejects_bad_lattice_bound():
    # a zero cap used to return the zero vector as the "systole"
    for bad in (0, -1, 1.5, True):
        with pytest.raises(InputError):
            conf_systole(x_axis_point(), lattice_bound=bad)


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


def test_disk_of_period_point_round_trip():
    disk = (F(1, 4), F(-1, 3))
    pp = rational_disk_period_point(minkowski_form(2), disk)
    got = disk_of_period_point(pp)
    assert abs(got[0] - 0.25) < 1e-12
    assert abs(got[1] + 1.0 / 3.0) < 1e-12
    fp = period_point_from_hpoint(disk_to_hpoint((0.1, 0.2)))
    got2 = disk_of_period_point(fp)
    assert abs(got2[0] - 0.1) < 1e-12 and abs(got2[1] - 0.2) < 1e-12


def test_result_strings_mention_certification():
    res = conf_systole(x_axis_point())
    assert "certified" in str(res)
    capped = conf_systole(rational_disk_period_point(DIAG, (F(4, 5),)), lattice_bound=1)
    assert "UNCERTIFIED" in str(capped)
    sup = cs_supremum(DIAG, CsSearchConfig(grid=0.1, refine_tol=1e-5))
    assert "CS" in str(sup)
