"""One table of refusals: every public entry point refuses a bad count,
real number or coordinate list with a typed error, before any work.

Each row is a call and the bad argument it is given; the row names the
error it expects.  Counts must be ints (numpy's too), never a bool, a
float, a string or None.  Steps and coefficients must be finite real
numbers, never a bool, a string or None.  Coordinates are lists of
real numbers: the exact permutahedron maps refuse a non-finite one with
InputError, the float hyperboloid functions with DomainError.  A small
second table holds refusals of other types and CLI usage errors.  The
last tests are valid edge inputs that must keep their answers.
"""

import dataclasses
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from periodmap.bilinear import (
    GramForm,
    StandardEmbedding,
    Subspace,
    minkowski_form,
    standard_embedding,
)
from periodmap.cli import main
from periodmap.coverage import (
    check_face_mapping_surjectivity,
    collapse_batch,
    export_off,
    radial_perturbation,
    shrink_map,
    twist_perturbation,
)
from periodmap.decomposition import DecompositionData, connected_sum_split, random_decomposition
from periodmap.errors import (
    DimensionMismatchError,
    DomainError,
    InputError,
    PreconditionError,
    check_int,
    check_real,
)
from periodmap.face_constraints import (
    SurfaceConfig,
    preset,
    product_codim,
    random_config,
    simplex_vertex_lines,
)
from periodmap.grassmannian import (
    HPoint,
    disk_to_hpoint,
    geodesic_endpoints,
    hyperbolic_distance,
    ideal_point_direction,
    line_to_hpoint,
)
from periodmap.permutahedron import (
    NestedSequence,
    all_faces,
    closest_point_map,
    collapse_to_simplex,
    enumerate_faces,
    export_json,
    face_counts,
    realize,
)
from periodmap.supremum import CsSearchConfig, cs_invariance_check
from periodmap.systole import conf_systole, period_point_from_hpoint, rational_disk_period_point

P2 = realize(2)


def _onto(pts):
    return collapse_batch(P2)(pts)


# one call per int argument, the argument in the place of v
INT_ARGUMENTS = {
    "enumerate_faces.n": lambda v: enumerate_faces(v, 1),
    "enumerate_faces.codim": lambda v: enumerate_faces(3, v),
    "all_faces.n": lambda v: all_faces(v),
    "face_counts.n": lambda v: face_counts(v),
    "realize.n": lambda v: realize(v),
    "export_json.n": lambda v: export_json(v),
    "NestedSequence.n": lambda v: NestedSequence(v, ((1,),)),
    "NestedSequence.element": lambda v: NestedSequence(2, ((v,),)),
    "span_of.index": lambda v: preset("fig6-i").span_of([v]),
    "minkowski_form.n": lambda v: minkowski_form(v),
    "DecompositionData.bhat1": lambda v: dataclasses.replace(connected_sum_split(), bhat1=v),
    "DecompositionData.bhat2": lambda v: dataclasses.replace(connected_sum_split(), bhat2=v),
    "random_decomposition.max_dim": lambda v: random_decomposition(random.Random(0), v),
    "random_config.entry_bound": lambda v: random_config(random.Random(0), 2, v),
    "coverage.n": lambda v: check_face_mapping_surjectivity(_onto, v, 0.5),
    "coverage.seed": lambda v: check_face_mapping_surjectivity(_onto, 2, 0.5, v),
    "radial_perturbation.n": lambda v: radial_perturbation(v, 0.3),
    "twist_perturbation.n": lambda v: twist_perturbation(v, 0.7),
    "shrink_map.n": lambda v: shrink_map(v, 0.9),
    "export_off.n": lambda v: export_off(v),
}

# one call per real argument; the float 2.0 is out of range only where listed
REAL_ARGUMENTS = {
    "coverage.grid_step": lambda v: check_face_mapping_surjectivity(_onto, 2, v),
    "CsSearchConfig.grid": lambda v: CsSearchConfig(grid=v),
    "CsSearchConfig.refine_tol": lambda v: CsSearchConfig(refine_tol=v),
    "radial_perturbation.coefficient": lambda v: radial_perturbation(2, v),
    "twist_perturbation.angle": lambda v: twist_perturbation(2, v),
    "shrink_map.factor": lambda v: shrink_map(2, v),
    "contains.tol": lambda v: P2.contains((100, -50, -44), v),
}
REFUSES_TWO = {"coverage.grid_step", "radial_perturbation.coefficient"}

# one call per coordinate list, v in one coordinate, and its non-finite error
COORDINATES = {
    "contains": (lambda v: P2.contains((v, 2, 2)), InputError),
    "closest_point_map": (lambda v: closest_point_map((v, 2, 2), P2), InputError),
    "collapse_to_simplex": (lambda v: collapse_to_simplex((v, 2, 2), P2), InputError),
    "HPoint": (lambda v: HPoint((1.0, v)), DomainError),
    "line_to_hpoint": (lambda v: line_to_hpoint((2.0, v)), DomainError),
    "disk_to_hpoint": (lambda v: disk_to_hpoint((v,)), DomainError),
    "ideal_point_direction": (lambda v: ideal_point_direction((1.0, v)), DomainError),
    "geodesic_endpoints": (lambda v: geodesic_endpoints((0.0, 1.0, v)), DomainError),
}

ROWS = []
for name, call in INT_ARGUMENTS.items():
    for bad in (True, 2.0, "2", None, math.nan):
        ROWS.append((f"{name}={bad!r}", call, bad, InputError))
for name, call in REAL_ARGUMENTS.items():
    for bad in (True, "2", None, math.nan, math.inf) + ((2.0,) if name in REFUSES_TWO else ()):
        ROWS.append((f"{name}={bad!r}", call, bad, InputError))
for name, (call, non_finite) in COORDINATES.items():
    for bad in (True, "2", None):
        ROWS.append((f"{name}.coordinate={bad!r}", call, bad, InputError))
    for bad in (math.nan, -math.inf):
        ROWS.append((f"{name}.coordinate={bad!r}", call, bad, non_finite))

# the probes that first showed the hand-written checks disagreeing
PROBES = [
    ("NestedSequence(True, ((1,),))", lambda: NestedSequence(True, ((1,),))),
    ("NestedSequence(2, ((True,),))", lambda: NestedSequence(2, ((True,),))),
    ("NestedSequence(2.0, ((1,),))", lambda: NestedSequence(2.0, ((1,),))),
    ('NestedSequence("2", ((1,),))', lambda: NestedSequence("2", ((1,),))),
    ("NestedSequence(2, ((1.0,),))", lambda: NestedSequence(2, ((1.0,),))),
    ("NestedSequence(2, 1)", lambda: NestedSequence(2, 1)),
    ("NestedSequence(2, (1,))", lambda: NestedSequence(2, (1,))),
    ("span_of([True])", lambda: preset("fig6-i").span_of([True])),
    ("span_of([1.5])", lambda: preset("fig6-i").span_of([1.5])),
    ('span_of(["1"])', lambda: preset("fig6-i").span_of(["1"])),
    ("span_of([0])", lambda: preset("fig6-i").span_of([0])),
    ("span_of([])", lambda: preset("fig6-i").span_of([])),
    ("span_of(1)", lambda: preset("fig6-i").span_of(1)),
    ("HPoint((True, False))", lambda: HPoint((True, False))),
    ("HPoint(1.0)", lambda: HPoint(1.0)),
    ('HPoint("ab")', lambda: HPoint("ab")),
    ("minkowski_form(2.0)", lambda: minkowski_form(2.0)),
    ("minkowski_form(True)", lambda: minkowski_form(True)),
    ("minkowski_form(0)", lambda: minkowski_form(0)),
    ("enumerate_faces(3, 1.0)", lambda: enumerate_faces(3, 1.0)),
    ("enumerate_faces(3, 4)", lambda: enumerate_faces(3, 4)),
    ('closest_point_map(["a", 1, 1])', lambda: closest_point_map(["a", 1, 1], P2)),
    ("closest_point_map(5)", lambda: closest_point_map(5, P2)),
    ("closest_point_map((2, 2))", lambda: closest_point_map((2, 2), P2)),
    ("contains(None)", lambda: P2.contains(None)),
    ('disk_to_hpoint(["a"])', lambda: disk_to_hpoint(["a"])),
    ('disk_to_hpoint("a")', lambda: disk_to_hpoint("a")),
    ("disk_to_hpoint(0.5)", lambda: disk_to_hpoint(0.5)),
    ("line_to_hpoint(None)", lambda: line_to_hpoint(None)),
    ('ideal_point_direction("ab")', lambda: ideal_point_direction("ab")),
    ("geodesic_endpoints(3)", lambda: geodesic_endpoints(3)),
    ('radial_perturbation(2, "a")', lambda: radial_perturbation(2, "a")),
    ('twist_perturbation(2, "a")', lambda: twist_perturbation(2, "a")),
    ('shrink_map(2, "a")', lambda: shrink_map(2, "a")),
    ("twist_perturbation(2.0, 0.7)", lambda: twist_perturbation(2.0, 0.7)),
    ("export_off(4)", lambda: export_off(4)),
    ("coverage seed -1", lambda: check_face_mapping_surjectivity(_onto, 2, 0.5, -1)),
    ("coverage grid_step 0", lambda: check_face_mapping_surjectivity(_onto, 2, 0)),
    # GRID_SLACK is absolute, so a step 1e9 times the edge once passed
    # with k = 0 and reported the one node (1, 1, 1), off the plane
    ("coverage grid_step 3e9", lambda: check_face_mapping_surjectivity(_onto, 2, 3e9)),
    (
        "shrink coverage grid_step 3e9",
        lambda: check_face_mapping_surjectivity(shrink_map(2, 0.9), 2, 3e9),
    ),
    ("random_decomposition max_dim=0", lambda: random_decomposition(random.Random(0), max_dim=0)),
    ("random_config entry_bound=0", lambda: random_config(random.Random(0), 2, entry_bound=0)),
    ("split H1=[[1, 0]]", lambda: dataclasses.replace(connected_sum_split(), H1=[[1, 0]])),
    ("split H2=[[0, 1]]", lambda: dataclasses.replace(connected_sum_split(), H2=[[0, 1]])),
    ("split D=[]", lambda: dataclasses.replace(connected_sum_split(), D=[])),
    ("contains tol=nan", lambda: P2.contains((100, -50, -44), math.nan)),
    ("contains tol=inf", lambda: P2.contains((100, -50, -44), math.inf)),
    ('contains tol="x"', lambda: P2.contains((2, 2, 2), "x")),
    ('from_json "dim": True', lambda: GramForm.from_json({"gram": [[1]], "dim": True})),
    ('from_json "dim": "1"', lambda: GramForm.from_json({"gram": [[1]], "dim": "1"})),
    (
        "hyperbolic_distance across dimensions",
        lambda: hyperbolic_distance(disk_to_hpoint((0.3,)), disk_to_hpoint((0.3, 0.1))),
    ),
    (
        "rational_disk_period_point one coordinate short",
        lambda: rational_disk_period_point(minkowski_form(2), (Fraction(1, 4),)),
    ),
    (
        "rational_disk_period_point one coordinate long",
        lambda: rational_disk_period_point(minkowski_form(1), (Fraction(1, 4), 0)),
    ),
    ("rational_disk_period_point ()", lambda: rational_disk_period_point(minkowski_form(2), ())),
    ("Subspace.from_json(5)", lambda: Subspace.from_json(5)),
    ("Subspace.from_json without ambient", lambda: Subspace.from_json({"basis": [[1]]})),
    ("DecompositionData.from_json([])", lambda: DecompositionData.from_json([])),
    ("SurfaceConfig with no vectors", lambda: SurfaceConfig(minkowski_form(2), ())),
    ('preset("nope")', lambda: preset("nope")),
    ("NestedSequence(2, ((),))", lambda: NestedSequence(2, ((),))),
    ("vertices_of_face of a 3-chain", lambda: P2.vertices_of_face(NestedSequence(3, ((1,),)))),
    (
        'cs_invariance_check with "1/2"',
        lambda: cs_invariance_check(minkowski_form(1), minkowski_form(1), [[1, 0], ["1/2", 1]]),
    ),
    ("twist_perturbation(3, 0.5)", lambda: twist_perturbation(3, 0.5)),
    ("contains a short vector", lambda: Subspace(minkowski_form(2), [[1, 0, 0]]).contains([1, 0])),
    # each of these raised an untyped TypeError from iterating a non-list
    ("rational_disk_period_point None", lambda: rational_disk_period_point(minkowski_form(1), None)),
    ("evaluate(None, v)", lambda: minkowski_form(1).evaluate(None, (1, 0))),
    ("evaluate(5, v)", lambda: minkowski_form(1).evaluate(5, (1, 0))),
    ("Subspace(form, None)", lambda: Subspace(minkowski_form(1), None)),
    ("Subspace(form, [None])", lambda: Subspace(minkowski_form(1), [None])),
    ("to_minkowski(None)", lambda: standard_embedding(minkowski_form(1)).to_minkowski(None)),
]

# refusals of other types, and CLI commands that exit with a usage error
TYPED_PROBES = [
    (
        "simplex_vertex_lines of 2 vectors in R^{1,2}",
        lambda: simplex_vertex_lines(SurfaceConfig(minkowski_form(2), ((0, 1, 0), (0, 0, 1)))),
        PreconditionError,
    ),
    (
        "product_codim on a degenerate ambient",
        lambda: product_codim(
            SurfaceConfig(GramForm([[1, 0, 0], [0, -1, 0], [0, 0, 0]]), ((0, 1, 0), (1, 0, 0))),
            NestedSequence(1, ((1,),)),
        ),
        PreconditionError,
    ),
    ("geodesic_endpoints in R^{1,3}", lambda: geodesic_endpoints((0.0, 1.0, 0.0, 0.0)), DomainError),
    (
        "to_minkowski of a singular embedding",
        lambda: StandardEmbedding(((1, 1), (1, 1)), (1, 1)).to_minkowski((1, 0)),
        PreconditionError,
    ),
    ("classify --subset 1", lambda: main(["classify", "--subset", "1"]), 2),
    (
        "classify --subset 1,x",
        lambda: main(["classify", "--preset", "fig6-i", "--subset", "1,x"]),
        2,
    ),
]


@pytest.mark.parametrize("call, bad, error", [r[1:] for r in ROWS], ids=[r[0] for r in ROWS])
def test_bad_argument_is_refused(call, bad, error):
    with pytest.raises(error):
        call(bad)


@pytest.mark.parametrize("call", [p[1] for p in PROBES], ids=[p[0] for p in PROBES])
def test_probe_is_refused(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("call, expected", [p[1:] for p in TYPED_PROBES], ids=[p[0] for p in TYPED_PROBES])
def test_typed_probe_is_refused(call, expected, capsys):
    if isinstance(expected, int):  # a CLI exit code
        assert call() == expected
    else:
        with pytest.raises(expected):
            call()


def test_refusals_name_the_argument():
    with pytest.raises(InputError, match=r"^codim must be an int in 1\.\.3, got 1\.0$"):
        enumerate_faces(3, 1.0)
    with pytest.raises(InputError, match=r"^seed must be an int >= 0, got -1$"):
        check_face_mapping_surjectivity(_onto, 2, 0.5, -1)
    with pytest.raises(InputError, match=r"^grid must be positive and finite, got '0\.1'$"):
        CsSearchConfig(grid="0.1")
    with pytest.raises(InputError, match=r"^angle must be a finite real number, got nan$"):
        twist_perturbation(2, math.nan)
    with pytest.raises(InputError, match=r"^disk coordinates must be a real number, got 'a'$"):
        disk_to_hpoint(["a"])


def test_dim_tol_and_distance_refusals_name_what_they_refuse():
    # "dim": "1" was refused as a size mismatch with gram size 1
    with pytest.raises(InputError, match=r"^dim must be an int >= 1, got '1'$"):
        GramForm.from_json({"gram": [[1]], "dim": "1"})
    with pytest.raises(InputError, match=r"^tol must be a finite real number, got nan$"):
        P2.contains((2, 2, 2), math.nan)
    with pytest.raises(DimensionMismatchError, match=r"R\^\{1,1\} and R\^\{1,2\}$"):
        hyperbolic_distance(disk_to_hpoint((0.3,)), disk_to_hpoint((0.3, 0.1)))


def test_disk_point_length_is_checked_before_the_form():
    # a short disk point was refused as "needs the standard diagonal form",
    # an empty one as "n must be an int >= 1, got 0"
    for disk, got in (((Fraction(1, 4),), 1), ((), 0)):
        with pytest.raises(
            DimensionMismatchError, match=rf"^disk point must have 2 coordinates, got {got}$"
        ):
            rational_disk_period_point(minkowski_form(2), disk)


def test_period_point_constructors_refuse_as_the_fraction_route_did():
    # the type and message of each refusal when both constructors built
    # their generator in Fractions; the disk's norm is tested before its
    # form, and the entries before either
    m1, m2, scaled = minkowski_form(1), minkowski_form(2), GramForm([[2, 0], [0, -1]])
    for form, disk, error, message in (
        (m1, (Fraction(1, 4), 0), DimensionMismatchError, "disk point must have 1 coordinates, got 2"),
        (m2, (Fraction(3, 5), Fraction(4, 5)), DomainError, "disk point must have norm < 1"),
        (m1, (-1,), DomainError, "disk point must have norm < 1"),
        (m2, (True, 0), InputError, "a boolean is not a number"),
        (m2, (0.1, 0), InputError, "float 0.1 is not exact; give it as a 'p/q' string or a Fraction"),
        (m2, ("x", 0), InputError, "not a rational literal: 'x'"),
        (m2, ("1/0", 0), InputError, "not a rational literal: '1/0'"),
        (scaled, (Fraction(1, 3),), PreconditionError, "rational disk path needs the standard diagonal form"),
        (scaled, (Fraction(3, 2),), DomainError, "disk point must have norm < 1"),
        (GramForm([[1]]), (), PreconditionError, "rational disk path needs the standard diagonal form"),
    ):
        with pytest.raises(error) as info:
            rational_disk_period_point(form, disk)
        assert (type(info.value), str(info.value)) == (error, message)


def test_hyperboloid_coordinates_of_very_different_size_are_read_exactly():
    # 1e-300 beside 1 puts 2^1049 under the row, and a subnormal 2^1074;
    # the line h = (1, a, b) gives e_2 the norm 1 + 2 b^2 / <h, h>
    for coords in ((1.0, 1e-300, 0.0), (1.0, 1e-300, -5e-324)):
        pp = period_point_from_hpoint(HPoint(coords))
        one, a, b = h = tuple(Fraction(x) for x in coords)
        assert pp.subspace.basis == (h,)
        res = conf_systole(pp)
        assert res.value_sq == 1 + 2 * b * b / (one - a * a - b * b)
        assert res.minimizers == ((0, 0, -1), (0, 0, 1))


def test_hyperboloid_coordinates_that_are_not_floats_are_read_exactly():
    # ints, and Fractions whose denominators are not powers of two nor
    # divide one another, are read as Fraction reads them
    for coords in ((1, 0, 0), (Fraction(5, 4), Fraction(3, 4), Fraction(1, 3**9))):
        pp = period_point_from_hpoint(HPoint(coords))
        assert pp.subspace.basis == (tuple(map(Fraction, coords)),)
        public = Subspace(minkowski_form(2), [coords])
        assert pp.subspace._int_basis() == public._int_basis()


def test_numpy_hyperboloid_coordinates_give_their_python_twins_line():
    # float32 coordinates raised Fraction's TypeError; a numpy int is read
    # as a Python int, so the row is not held at a fixed width
    for wide, plain in (
        ((np.float32(1), np.float32(0)), (1.0, 0.0)),
        ((np.float32(1.25), np.float32(0.75)), (1.25, 0.75)),
        ((np.int64(1), np.int64(0)), (1, 0)),
        ((np.int64(3), np.int32(2), np.int64(2)), (3, 2, 2)),
    ):
        pp, twin = (period_point_from_hpoint(HPoint(c)) for c in (wide, plain))
        assert (pp.subspace, pp.subspace.basis) == (twin.subspace, twin.subspace.basis)
        assert repr(pp.subspace.basis) == repr(twin.subspace.basis)
        assert all(type(x) is int for x in pp.subspace._int_basis()[0][0])
        assert conf_systole(pp) == conf_systole(twin)


def test_the_non_list_refusals_keep_one_message():
    with pytest.raises(InputError, match=r"^a vector must be a list of numbers, got None$"):
        rational_disk_period_point(minkowski_form(1), None)
    with pytest.raises(InputError, match=r"^a vector must be a list of numbers, got 'ab'$"):
        minkowski_form(1).evaluate("ab", (1, 0))
    with pytest.raises(InputError, match=r"^the vectors must be a list of vectors, got int$"):
        Subspace(minkowski_form(1), 5)


def test_the_checks_return_what_they_accept():
    for value in (1, 7, np.int64(3), np.uint8(2)):
        assert check_int(value, "n") is value
    assert check_int(0, "seed", low=0) == 0
    for value in (0.5, 3, Fraction(1, 3), np.float64(0.25), np.float32(2.0)):
        assert check_real(value, "step") is value
    assert check_real(-1.5, "angle", positive=False) == -1.5
    assert check_real(math.inf, "coordinate", positive=None) == math.inf
    for bad in (True, False, np.bool_(True), 2.0, "2", None, Fraction(3, 1)):
        with pytest.raises(InputError):
            check_int(bad, "n")
    for bad in (True, "2", None, 1j, math.nan, -0.5, 0):
        with pytest.raises(InputError):
            check_real(bad, "step")


# ---------------------------------------------------------------------------
# valid edge inputs keep their answers
# ---------------------------------------------------------------------------


def test_numpy_ints_are_counts():
    two = np.int64(2)
    assert enumerate_faces(two, 1) == enumerate_faces(2, 1)
    assert all_faces(two) == all_faces(2)
    assert face_counts(np.int64(3)) == face_counts(3)
    assert realize(two) == P2
    assert minkowski_form(two) == minkowski_form(2)
    assert NestedSequence(two, ((np.int64(1),),)) == NestedSequence(2, ((1,),))
    cfg = preset("fig6-i")
    assert cfg.span_of([np.int64(1), 3]) == cfg.span_of([1, 3])
    split = connected_sum_split()
    wide = dataclasses.replace(split, bhat1=np.int64(split.bhat1))
    assert wide == split and wide.report == split.report
    assert json.dumps(wide.to_json()) == json.dumps(split.to_json())
    assert repr(check_face_mapping_surjectivity(_onto, two, 0.5, np.int64(3))) == repr(
        check_face_mapping_surjectivity(_onto, 2, 0.5, 3)
    )


def test_numpy_entries_are_read_as_their_python_twins():
    # a numpy int was refused as "cannot interpret int64 as a rational"
    form = minkowski_form(1)
    assert GramForm(np.array([[1, 0], [0, -1]])) == form
    assert GramForm([[np.int8(2), np.uint16(1)], [1, np.int32(-1)]]) == GramForm([[2, 1], [1, -1]])
    assert Subspace(form, np.array([[1, 0]])) == Subspace(form, [[1, 0]])
    assert form.evaluate(np.array([1, 0]), [1, 0]) == 1
    # a numpy float goes through the float rule: integral values only
    assert GramForm([[np.float32(2.0), 0], [0, np.float64(-1.0)]]) == GramForm([[2, 0], [0, -1]])
    for bad, message in (
        (np.bool_(True), r"^a boolean is not a number$"),
        (np.float32(0.5), r"^float 0\.5 is not exact"),
        (np.float32(np.inf), r"^not a finite number: inf$"),
        (np.complex64(1), r"^cannot interpret complex64 as a rational$"),
    ):
        with pytest.raises(InputError, match=message):
            GramForm([[bad, 0], [0, -1]])


def test_a_grid_step_of_one_edge_is_one_division():
    # the largest step that divides the edge of 3 at n = 2: the corners
    rep = check_face_mapping_surjectivity(_onto, 2, 3.0)
    assert rep.ok and rep.grid_points == rep.covered == 3


def test_numpy_int_n_reaches_json_as_int():
    # json.dumps refuses a numpy int with a bare TypeError
    for call in (export_json, face_counts):
        assert json.dumps(call(np.int64(3))) == json.dumps(call(3))
    assert all(type(c) is int for c in face_counts(np.int64(3)))
    assert type(export_json(np.int64(2))["n"]) is int


def test_fraction_and_int_coordinates_are_read():
    third = Fraction(1, 3)
    assert P2.contains((2 + third, 2 - third, 2))
    assert closest_point_map((Fraction(5, 2), Fraction(3, 2), 2), P2) == closest_point_map(
        (2.5, 1.5, 2.0), P2
    )
    assert disk_to_hpoint((Fraction(1, 2),)) == disk_to_hpoint((0.5,))
    assert HPoint((1, 0)) == HPoint((1.0, 0.0))
    assert line_to_hpoint((Fraction(2), 1, 0)) == line_to_hpoint((2.0, 1.0, 0.0))
    assert geodesic_endpoints((0, 1, np.float64(0))) == geodesic_endpoints((0.0, 1.0, 0.0))
    assert CsSearchConfig(grid=Fraction(1, 5)).grid == Fraction(1, 5)
    assert collapse_to_simplex((3.0, 1.0, 2.0), P2) == (4, 1, 1)
    # Fraction reads no numpy float32 itself; the reader does
    wide = (np.float32(2.75), np.float32(1.25), np.int64(2))
    assert P2.contains(wide)
    assert collapse_to_simplex(wide, P2) == collapse_to_simplex((2.75, 1.25, 2), P2)


def test_float_tol_is_read_exactly():
    # 0.1 is the dyadic 3602879701896397 / 2**55.  Over the points'
    # denominator 3 * 2**55 the scaled tolerance passes 2**53, where a
    # float product would round.  The first point falls short of level 1
    # by exactly that tolerance, the second by a hair more.
    low, third = 1 - Fraction(0.1), Fraction(7, 3)
    hair = Fraction(1, 3 * 10**20)
    on_edge = (low, third, 6 - low - third)
    past = (low - hair, third, 6 - low + hair - third)
    assert P2.contains(on_edge, 0.1)
    assert not P2.contains(past, 0.1)
    assert not P2.contains(on_edge, 0.09999999999999999)


@pytest.mark.parametrize(
    "point",
    [(2.0, 2.0, 2.0), (3.0, 1.0, 2.0), (2.5, 1.5, 2.0), (2.1, 1.9, 2.0), (1.0, 2.0, 3.0)],
)
def test_collapse_reads_floats_exactly(point):
    # each float is the dyadic rational it stores, so 2.1 + 1.9 sums to 4
    exact = tuple(Fraction(x) for x in point)
    assert collapse_to_simplex(point, P2) == collapse_to_simplex(exact, P2)
    assert all(type(c) is Fraction for c in collapse_to_simplex(point, P2))
