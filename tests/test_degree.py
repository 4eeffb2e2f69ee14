"""The PL degree scan (``periodmap.degree``): crossings, winding numbers
and on-image marks, on hand-built simplices and on the coverage check's
boundary images, by the float route and by the exact route on Python
ints."""

import functools
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from periodmap import coverage, degree
from periodmap.coverage import check_face_mapping_surjectivity, collapse_batch, shrink_map
from periodmap.permutahedron import collapse_to_simplex, plane_total, realize

from oracles import det_reference


def _sign(x):
    return (x > 0) - (x < 0)


def _hand_crossings(image, domain, simplices, k):
    """The scan's crossings (_crossings) of hand-built image simplices,
    given as vertex labels into image and domain (vertices, n), with each
    simplex's corners listed in label order, as coverage._rim_blocks
    lists them, and its facing the exact orientation of its projected
    domain simplex: in the domain every crossing counts +1."""
    corners, facing = [], []
    for simplex in simplices:
        simplex = sorted(simplex)
        corners.append(image[simplex].T)
        facing.append(_sign(det_reference([[*domain[v][:-1].tolist(), 1] for v in simplex])))
    return degree._crossings(np.stack(corners, axis=2), np.array(facing, dtype=float), k)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_line_through_a_shared_facet_crosses_once_unless_it_folds(n):
    # two image simplices share a facet whose projection holds the
    # lattice point p in its relative interior, so that the facet's own
    # weight is 0 in both and the tie rule decides.  With the apexes on
    # opposite sides, the line up p crosses exactly one; folded, with
    # both apexes on one side and the facings of the unfolded domain, it
    # crosses both with opposite signs or neither.  The first trial's
    # facet is axis-parallel, so that its first tie determinant is 0 too.
    # Vertex labels are shuffled, so the shared facet sits at different
    # corners of the two simplices
    rng = np.random.default_rng(n)
    k = 10
    p = np.full(n - 1, 5)
    line = (k + 1) ** np.arange(n - 2, -1, -1) @ p
    folds = set()
    for trial in range(60):
        d = rng.integers(-3, 4, (n - 2, n - 1)) if trial else 2 * np.eye(n - 1, dtype=int)[: n - 2]
        u = rng.integers(-3, 4, n - 1)
        facet = np.vstack([p + d, p - d.sum(axis=0)])  # mean p
        heights = rng.integers(0, k + 1, n + 2)[:, None]
        apexes = np.array([p + u, p - u, p + 2 * u])  # a, b across, b folded
        points = np.hstack([np.vstack([facet, apexes]), heights])
        label = rng.permutation(n + 2)
        labelled = np.empty_like(points)
        labelled[label] = points
        simplices = [[*label[: n - 1], label[n - 1 + j]] for j in range(3)]
        if det_reference([[*labelled[v][:-1].tolist(), 1] for v in simplices[0]]) == 0:
            continue  # a flat simplex: the facet or the apex is degenerate
        unfolded = labelled.copy()
        unfolded[label[n + 1]] = labelled[label[n]]
        image = labelled.astype(float)
        lines, _, signs = _hand_crossings(image, unfolded, simplices[:2], k)
        assert signs[lines == line].tolist() == [1.0], trial
        lines, _, signs = _hand_crossings(image, unfolded, simplices[::2], k)
        here = sorted(signs[lines == line].tolist())
        assert here in ([], [-1.0, 1.0]), trial
        folds.add(len(here))
    assert folds == {0, 2}
    for size in range(5):
        for _ in range(20):
            m = rng.integers(-9, 10, (size, size)).tolist()
            assert degree._det(m) == det_reference(m)


def _marked(simplices, k, shift=0.0, exact=False):
    """The lattice points on_image marks for hand-built image simplices,
    each a list of n corners in lattice coordinates, all moved by shift,
    as a set of integer tuples; with exact, through the exact route."""
    corners = np.transpose(np.array(simplices, dtype=float) + shift, (2, 1, 0))  # (n, n, simplices)
    n = corners.shape[0]
    corners, unit = degree.as_integers(corners) if exact else (corners, 1)
    on = degree.on_image([(corners, np.ones(len(simplices)))], k, unit)
    points = np.unravel_index(np.flatnonzero(on), (k + 1,) * n)
    return {tuple(int(x) for x in p) for p in zip(*points)}


_K = 8
_BOX = list(itertools.product(range(_K + 1), repeat=3))
_HAND_BUILT = [
    (
        [[(0, 0, 0, 2), (6, 0, 0, 2), (0, 6, 0, 2), (0, 0, 6, 2)]],
        {(x, y, z, 2) for x, y, z in _BOX if x + y + z <= 6},
    ),
    ([[(0, 0, 0), (4, 0, 4), (0, 4, 4)]], {(x, y, x + y) for x, y, _ in _BOX if x + y <= 4}),
    ([[(0, 1, 2), (6, 4, 2), (2, 2, 2)]], {(2 * t, 1 + t, 2) for t in range(4)}),
    ([[(0, 0), (4, 2)]], {(2 * t, t) for t in range(3)}),
    *[([[(3, 1, 2, 5)[:n]] * n], {(3, 1, 2, 5)[:n]}) for n in (2, 3, 4)],
    ([[(5,)], [(0,)]], {(5,), (0,)}),
]


def test_on_image_marks_the_lattice_points_of_hand_built_simplices():
    # every lattice point of each simplex, and no other, written out by
    # construction: the inside of a tetrahedron at n = 4 and of a slanted
    # triangle at n = 3, a flat triangle's segment, a segment at n = 2, a
    # simplex whose corners coincide at n = 2, 3 and 4, and a point at
    # n = 1.  Moved off by 1e-12 grid steps, within LOCATE_TOL, each marks
    # the same points; by 1e-6, none
    assert len(_HAND_BUILT[0][1]) == 84
    for simplices, want in _HAND_BUILT:
        assert _marked(simplices, _K) == want
        assert _marked(simplices, _K, 1e-12) == want
        assert _marked(simplices, _K, 1e-6) == set()


def test_exact_on_image_marks_exactly_the_points_of_hand_built_simplices():
    # the exact route has no tolerance: the same simplices mark the same
    # points, and moved off by 1e-12 grid steps, which takes every one
    # of them off its lattice points, none
    for simplices, want in _HAND_BUILT:
        assert _marked(simplices, _K, exact=True) == want
        assert _marked(simplices, _K, 1e-12, exact=True) == set()


def test_failing_check_scans_in_slabs(monkeypatch):
    # the (simplex, lattice point) pairs of the crossing scan and of the
    # on-image join come in runs of at most SLAB_ROWS, not all at once.
    # Every run size gives the same report
    fb, bad = collapse_batch(realize(2)), shrink_map(2, 0.9)

    def f(pts):
        return bad(fb(pts))

    want = check_face_mapping_surjectivity(f, 2, 0.05)
    sizes = []
    pairs = degree._box_pairs

    def counting(low, high):
        for owner, points in pairs(low, high):
            sizes.append(len(owner))
            yield owner, points

    monkeypatch.setattr(coverage, "SLAB_ROWS", 64)
    monkeypatch.setattr(degree, "SLAB_ROWS", 64)
    monkeypatch.setattr(degree, "_box_pairs", counting)
    got = check_face_mapping_surjectivity(f, 2, 0.05)
    assert repr(got) == repr(want) and not want.ok
    assert len(sizes) > 2 and max(sizes) <= 64


def test_as_integers_reads_floats_exactly():
    # exponents far apart, subnormals, zeros and signs: each int over the
    # unit is its float exactly, and the unit is the least power of two
    # that makes every entry an integer
    xs = np.array([[0.1, -3.0, 2.0**-1074, 1e300], [0.0, -0.0, 3 * 5e-324, 2.5]])
    ints, unit = degree.as_integers(xs)
    assert ints.dtype == object and ints.shape == xs.shape and unit == 2**1074
    assert [Fraction(i, unit) for i in ints.ravel()] == [Fraction(x) for x in xs.ravel()]
    assert degree.as_integers(np.array([3.0, -7.0]))[1] == 1
    assert degree.as_integers(np.array([0.75, 2.0]))[1] == 4
    assert degree.as_integers(np.zeros((2, 0)))[1] == 1


def _signs_reference(corners, p):
    """The sign of each corner's weight at the lattice point p, as
    degree._weights defines them, from the exact Fraction determinant of
    tests/oracles.py: corner i weighs (-1)^(n-1-i) det(w_j - p : j != i)
    over the corners' first n - 1 coordinates, and a 0 takes minus the
    sign of that determinant with row a replaced by ones, for the first
    a where it is not 0.  corners is n points of R^n as rows, read
    exactly."""
    n = len(corners)
    out = []
    for i in range(n):
        rows = [[Fraction(c[a]) - p[a] for j, c in enumerate(corners) if j != i] for a in range(n - 1)]
        parity = (-1) ** (n - 1 - i)
        s = _sign(parity * det_reference(rows))
        for a in range(n - 1):
            if s:
                break
            s = -parity * _sign(det_reference([*rows[:a], [1] * (n - 1), *rows[a + 1 :]]))
        out.append(s)
    return out


def _exact_signs(corners, p):
    """degree._weights's signs for one simplex's float corners (n points
    as rows) at the lattice point p, by the exact route."""
    ints, unit = degree.as_integers(np.array(corners, dtype=float).T)
    rel = ints[: len(p)] - np.array([q * unit for q in p], dtype=object)[:, None]
    return [int(s) for s in degree._weights(rel[:, :, None])[1][:, 0]]


@functools.cache
def _chart(n, grid_step, factor=None):
    """The boundary mesh, k, and the lattice coordinates (n, vertices)
    of the boundary images of the collapse, or of the shrink by factor
    after it, taken by the failing coverage check's own steps."""
    fb = collapse_batch(realize(n))
    f = fb if factor is None else (lambda pts: shrink_map(n, factor)(fb(pts)))
    rim = coverage._mesh(n, grid_step, boundary=True)
    images, excess = coverage._on_plane(f, rim.points, plane_total(n))
    xs = np.ascontiguousarray((images[:, :n] - (excess / (n + 1))[:, None] - 1.0).T / grid_step)
    return rim, coverage._grid_divisions(n, grid_step), xs


def _near_collinear(rng, n):
    """n corners whose projections hold the lattice point p within about
    1e-16 of the segment between the first two, and p."""
    p = [rng.randint(0, 9) for _ in range(n - 1)]
    u = [rng.uniform(-1, 1) for _ in range(n - 1)]
    s, t = rng.uniform(0.1, 3), rng.uniform(0.1, 3)
    a = [q + s * x for q, x in zip(p, u)]
    b = [q - t * x + rng.choice((0.0, 1e-16, -3e-17)) for q, x in zip(p, u)]
    rest = [[rng.uniform(0, 9) for _ in range(n - 1)] for _ in range(n - 2)]
    return [[*c, rng.uniform(0, 9)] for c in (a, b, *rest)], p


def test_exact_signs_match_fraction_determinants():
    # the exact route's weight signs, after the tie rule, equal those of
    # Fraction determinants of the same floats: on random corners, on
    # lattice points on a segment (dyadic, so exactly on it, and decimal,
    # so within rounding), on near-collinear corners, on coordinates whose
    # exponents lie far apart, and on boundary simplex 142,416 of the
    # shrink after the collapse at n = 4, grid 1.0, whose exact signs on
    # line (3, 3, 3) are (+, +, +, -) where its float weights read
    # (+, +, +, +)
    rng = random.Random(11)
    cases = []
    for n in (1, 2, 3, 4):
        for _ in range(150):
            halves = rng.random() < 0.5  # ties: corners on the half-lattice
            draw = (lambda: rng.randint(0, 12) / 2) if halves else (lambda: rng.uniform(0, 6))
            cases.append(([[draw() for _ in range(n)] for _ in range(n)], [rng.randint(0, 6) for _ in range(n - 1)]))
        cases += [_near_collinear(rng, n) for _ in range(50) if n > 1]
    cases += [
        ([[0.5, 0.25, 3.0], [1.5, 1.75, 1.0], [3.0, 0.0, 2.0]], [1, 1]),  # p on a dyadic segment
        ([[0.1, 0.3, 3.0], [1.9, 1.7, 1.0], [3.0, 0.0, 2.0]], [1, 1]),  # within rounding of one
        ([[1.0, 1.0, 0.0], [3.0, 0.0, 1.0], [0.0, 3.0, 2.0]], [1, 1]),  # p a corner
        ([[1 + 2.0**-900, 1.0, 5.0], [1e200, 1 - 1e-300, 3.0], [1.0, 1 + 2.0**-1074, 7.0]], [1, 1]),
        ([[2.0**-1000, 3e-310, 1.0, 1e-300]] * 2 + [[1e100, 2.0**-50, 1e-200, 0.0]] * 2, [0, 0, 1]),
        ([[2.0, 1e-300, 1e300, 1.0], [2.0, -1e-300, 1e300, 2.0]] * 2, [2, 0, 0]),
    ]
    for corners, p in cases:
        assert _exact_signs(corners, p) == _signs_reference(corners, p), (corners, p)
    rim, _, xs = _chart(4, 1.0, 0.9)
    corners = xs[:, rim.oriented[0][:, 142416]].T.tolist()
    assert _exact_signs(corners, [3, 3, 3]) == _signs_reference(corners, [3, 3, 3]) == [1, 1, 1, -1]


def _crossings_reference(corners, facing, k, unit):
    """The crossings of integer corners (simplices of n points of R^n
    as rows, in lattice units times unit) with every lattice line of the
    cube, from Fraction determinants: a line crosses where the weight
    signs (_signs_reference) agree, in the slot that is the ceiling of
    the weighted mean height, with the facing times their sign.  Sorted
    (line, slot, sign) triples."""
    out = []
    for simplex, face in zip(corners, facing):
        n = len(simplex)
        points = [[Fraction(x, unit) for x in c] for c in simplex]
        for p in itertools.product(range(k + 1), repeat=n - 1):
            signs = _signs_reference(points, p)
            if signs[0] == 0 or len(set(signs)) > 1:
                continue
            weights = [
                (-1) ** (n - 1 - i)
                * det_reference([[c[a] - p[a] for j, c in enumerate(points) if j != i] for a in range(n - 1)])
                for i in range(n)
            ]
            total = sum(weights) or 1
            height = sum(w * c[-1] for w, c in zip(weights, points)) / total
            line = sum(q * (k + 1) ** (n - 2 - a) for a, q in enumerate(p))
            out.append((line, math.ceil(height), face * signs[0]))
    return sorted(out)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exact_crossings_match_the_reference(n):
    # random integer corners in lattice units times 1 and times 4, many
    # of them on lattice points, lines or each other's segments, some
    # outside the cube: every crossing, its slot and its sign
    rng = random.Random(n)
    k = 3
    for unit in (1, 4):
        corners = [
            [[rng.randint(-unit, (k + 1) * unit) for _ in range(n)] for _ in range(n)]
            for _ in range(30)
        ]
        facing = [rng.choice((-1, 1)) for _ in corners]
        columns = np.empty((n, n, len(corners)), dtype=object)
        columns[:] = np.transpose(np.array(corners, dtype=object), (2, 1, 0))
        lines, slots, signs = degree._crossings(columns, np.array(facing), k, unit)
        got = sorted(zip(lines.tolist(), [int(s) for s in slots], [int(s) for s in signs]))
        assert got == _crossings_reference(corners, facing, k, unit)


def _windings(rim, k, xs, unit=1):
    """The winding numbers of the boundary images xs (n, vertices) of a
    boundary mesh at every grid node, in grid order."""
    n = len(xs)
    return degree.winding(list(coverage._rim_blocks(xs, rim)), k, unit)[coverage._cube_points(n, k)[0]]


@pytest.mark.parametrize("n, grid_step", [(2, 0.05), (2, 0.01), (3, 0.5), (3, 0.25)])
def test_exact_route_winds_as_the_float_route_off_the_image(n, grid_step):
    # the shrink after the collapse on the check's own images, read
    # exactly: at every node off the float route's image of the boundary
    # both routes give the same winding number
    rim, k, xs = _chart(n, grid_step, 0.9)
    floats = _windings(rim, k, xs)
    on = degree.on_image(list(coverage._rim_blocks(xs, rim)), k)[coverage._cube_points(n, k)[0]]
    exact = _windings(rim, k, *degree.as_integers(xs))
    assert (~on).sum() > len(on) / 2
    assert np.array_equal(exact[~on], floats[~on])


def test_exact_route_winds_the_shrink_once_inside_at_n4():
    # the shrink after the collapse at n = 4, grid 1.0, whose image holds
    # exactly the 126 nodes with every coordinate at least 2, none of
    # them on the image of the boundary: read exactly, the boundary winds
    # once around each of them and around no other node.  The float
    # route winds -2 to 2 here and covers 128 nodes
    start = time.perf_counter()
    rim, k, xs = _chart(4, 1.0, 0.9)
    windings = _windings(rim, k, *degree.as_integers(xs))
    nodes = coverage._simplex_lattice(4, k)
    inside = (nodes >= 1).all(axis=1) & (nodes.sum(axis=1) <= k - 1)
    assert inside.sum() == 126 == math.comb(9, 4)
    assert set(windings.tolist()) == {0, 1}
    assert np.array_equal(windings == 1, inside)
    assert time.perf_counter() - start < 5.0


def test_exact_route_winds_the_exact_collapse_once_around_the_centre_at_n4():
    # item 20's cross-check of d_4: the collapse's exact rational images
    # of the boundary vertices at n = 4, grid 2.0, whose one interior
    # node is the centre (3, 3, 3, 3, 3); every other node lies on the
    # boundary of the simplex, the image of the boundary of P
    rim, k, _ = _chart(4, 2.0)
    realization = realize(4)
    doubled = np.rint(rim.points * (2 * rim.k)).astype(np.int64).tolist()
    images = [
        collapse_to_simplex([Fraction(x, 2 * rim.k) for x in row], realization)[:4] for row in doubled
    ]
    unit = 2 * math.lcm(*(x.denominator for image in images for x in image))  # grid 2
    xs = np.empty((4, len(images)), dtype=object)
    xs[:] = [[int((x - 1) * unit / 2) for x in column] for column in zip(*images)]
    windings = _windings(rim, k, xs, unit)
    nodes = coverage._simplex_lattice(4, k)
    centre = np.flatnonzero((nodes == 1).all(axis=1))
    assert k == 5 and len(centre) == 1
    assert windings[centre[0]] == 1 and set(windings.tolist()) <= {0, 1}
