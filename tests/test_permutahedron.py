import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from periodmap import coverage, degree, permutahedron
from periodmap.coverage import (
    FACE_TOL,
    GRID_SLACK,
    SLAB_ROWS,
    check_face_mapping_surjectivity,
    collapse_batch,
    export_off,
    radial_perturbation,
    shrink_map,
    twist_perturbation,
    _longest_edge,
    _map_rows,
    _mesh,
    _row_sums,
)
from periodmap.errors import DomainError, InputError, NumericalDomainError, ResourceError
from periodmap.permutahedron import (
    DAMPING_SLACK,
    NestedSequence,
    all_faces,
    closest_point_map,
    collapse_to_simplex,
    enumerate_faces,
    export_json,
    face_counts,
    plane_total,
    proper_subsets,
    realize,
    subset_level,
)

from oracles import (
    collapse_reference,
    degree_reference,
    located_reference,
    permutahedron_contains_reference,
    projection_reference,
    shrink_coverage_reference,
)
from samples import identity_boundary_samples


def test_nested_sequence_validation():
    NestedSequence(2, ((1,), (1, 2)))
    with pytest.raises(InputError):
        NestedSequence(2, ())  # too short
    with pytest.raises(InputError):
        NestedSequence(2, ((1,), (1, 2), (1, 2, 3)))  # improper subset
    with pytest.raises(InputError):
        NestedSequence(2, ((1, 2), (1, 2)))  # not strict
    with pytest.raises(InputError):
        NestedSequence(2, ((2,), (1, 3)))  # not nested
    with pytest.raises(InputError):
        NestedSequence(2, ((1, 1),))  # repeated element


def test_nested_sequence_parse():
    ns = NestedSequence.parse(3, "3,4;1,3,4")
    assert ns.chain == ((3, 4), (1, 3, 4))
    assert ns.dim() == 1
    with pytest.raises(InputError):
        NestedSequence.parse(3, "a;b")


def test_face_counts_n2():
    assert len(enumerate_faces(2, 1)) == 6
    assert len(enumerate_faces(2, 2)) == 6


def test_face_counts_n3():
    assert len(enumerate_faces(3, 1)) == 14
    assert len(enumerate_faces(3, 2)) == 36
    assert len(enumerate_faces(3, 3)) == 24


def test_face_counts_closed_form_matches_enumeration():
    # (c+1)! S(n+1, c+1) with the Stirling numbers of the second kind
    # from their recurrence S(m, j) = j S(m-1, j) + S(m-1, j-1)
    stirling = [[1]]
    for m in range(1, 8):
        row = stirling[-1] + [0]
        stirling.append([0] + [j * row[j] + row[j - 1] for j in range(1, m + 1)])
    for n in range(1, 7):
        want = [math.factorial(c + 1) * stirling[n + 1][c + 1] for c in range(1, n + 1)]
        assert face_counts(n) == want
        assert [len(enumerate_faces(n, c)) for c in range(1, n + 1)] == want


def test_enumerate_faces_deterministic_and_bounded():
    once = enumerate_faces(3, 2)
    again = enumerate_faces(3, 2)
    assert once == again
    assert once == sorted(once, key=lambda ns: ns.chain)
    with pytest.raises(InputError):
        enumerate_faces(2, 3)
    with pytest.raises(InputError):
        enumerate_faces(2, 0)


def test_enumerate_faces_matches_brute_force():
    # strictly increasing chains have strictly increasing subset sizes
    for n in range(1, 5):
        ground = range(1, n + 2)
        by_size = {k: list(itertools.combinations(ground, k)) for k in range(1, n + 1)}
        for codim in range(1, n + 1):
            want = sorted(
                ch
                for sizes in itertools.combinations(range(1, n + 1), codim)
                for ch in itertools.product(*(by_size[k] for k in sizes))
                if all(set(a) < set(b) for a, b in zip(ch, ch[1:]))
            )
            assert [ns.chain for ns in enumerate_faces(n, codim)] == want


def test_generated_faces_equal_checked_chains():
    for n in range(1, 5):
        for face in all_faces(n):
            checked = NestedSequence(n, face.chain)
            assert face == checked and hash(face) == hash(checked)
            assert type(face.n) is int


def test_enumeration_checks_no_chain_again(monkeypatch):
    calls = []
    real = NestedSequence.__post_init__
    monkeypatch.setattr(NestedSequence, "__post_init__", lambda ns: calls.append(ns) or real(ns))
    faces = all_faces(3) + enumerate_faces(np.int64(3), 2)
    assert len(faces) == sum(face_counts(3)) + face_counts(3)[1]
    assert calls == []
    NestedSequence(3, ((1,),))
    assert len(calls) == 1


def test_all_faces_n7_checks_no_face_again():
    # checking each of the 545,834 faces of P_7 again took several seconds
    start = time.perf_counter()
    assert len(all_faces(7)) == 545834
    assert time.perf_counter() - start < 3.0


def test_realize_small():
    seg = realize(1)
    assert seg.vertices == ((1, 2), (2, 1))
    hexagon = realize(2)
    assert len(hexagon.vertices) == 6
    assert hexagon.total == 6
    p3 = realize(3)
    assert len(p3.vertices) == 24
    with pytest.raises(ResourceError):
        realize(7)
    for bad in (True, 0, -1, 2.0, "2"):
        with pytest.raises(InputError):
            realize(bad)
        with pytest.raises(InputError):
            export_json(bad)


def test_face_vertex_counts_and_dims():
    import math

    r = realize(3)
    for ns in all_faces(3):
        fv = r.vertices_of_face(ns)
        blocks = []
        prev = ()
        for sub in ns.chain + ((1, 2, 3, 4),):
            blocks.append(len(set(sub) - set(prev)))
            prev = sub
        expected = 1
        for b in blocks:
            expected *= math.factorial(b)
        assert len(fv) == expected
        # affine dimension equals n - chain length
        arr = np.array(fv, dtype=float)
        rank = np.linalg.matrix_rank(arr - arr[0]) if len(fv) > 1 else 0
        assert rank == ns.dim()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_face_vertices_are_the_vertices_refining_the_chain(n):
    # the filter over every vertex that the generator replaced: a vertex
    # is on the face when the positions of each block carry that block's
    # run of values
    r = realize(n)
    for ns in all_faces(n):
        runs, prev = [], ()
        for sub in ns.chain + (tuple(range(1, n + 2)),):
            block = set(sub) - set(prev)
            runs.append((block, set(range(len(prev) + 1, len(sub) + 1))))
            prev = sub
        want = [v for v in r.vertices if all({v[i - 1] for i in b} == vals for b, vals in runs)]
        assert r.vertices_of_face(ns) == want


# sha256 of json.dumps(export_json(n), sort_keys=True), recorded before the
# face vertices were generated from their chains
EXPORT_JSON_SHA256 = {
    2: "03a3426d237292366f5d270ef1d4a510dde7706770c46fa0f33a065652d212d4",
    3: "b737ae673c527e97eaec0702a22ee0e463aad2fcce67034759b4f4d130fbf913",
    4: "19221c4fbbcd6d13f6a908fe622d417a85961ce89a90a2cd27950db9f6e949c8",
}


@pytest.mark.parametrize("n", sorted(EXPORT_JSON_SHA256))
def test_export_json_matches_the_pinned_hash(n):
    text = json.dumps(export_json(n), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_JSON_SHA256[n]


def test_edge_count_n3():
    r = realize(3)
    edges = set()
    for ns in enumerate_faces(3, 2):
        fv = r.vertices_of_face(ns)
        assert len(fv) == 2
        edges.add(frozenset(fv))
    assert len(edges) == 36


def test_closest_point_interior_fixed():
    r = realize(2)
    assert closest_point_map((2, 2, 2), r) == (2, 2, 2)
    assert closest_point_map(
        (Fraction(5, 2), Fraction(3, 2), 2), r
    ) == (Fraction(5, 2), Fraction(3, 2), 2)


def test_closest_point_corner():
    r = realize(2)
    assert closest_point_map((4, 1, 1), r) == (3, Fraction(3, 2), Fraction(3, 2))


def test_closest_point_rejects_outside():
    r = realize(2)
    with pytest.raises(DomainError):
        closest_point_map((5, 1, 0), r)
    with pytest.raises(DomainError):
        closest_point_map((2, 2, 3), r)


def test_closest_point_is_projection():
    # every feasible candidate is at least as far as the returned point
    r = realize(2)
    rng = random.Random(99)
    simplex_verts = [(4, 1, 1), (1, 4, 1), (1, 1, 4)]
    for _ in range(40):
        weights = [Fraction(rng.randint(0, 20)) for _ in range(3)]
        tot = sum(weights) or Fraction(1)
        x = tuple(
            sum(Fraction(v[i]) * w for v, w in zip(simplex_verts, weights)) / tot
            for i in range(3)
        )
        z = closest_point_map(x, r)
        assert r.contains(z)
        dz = sum((a - b) ** 2 for a, b in zip(x, z))
        for v in r.vertices:
            dv = sum((Fraction(a) - b) ** 2 for a, b in zip(v, x))
            assert dz <= dv


def _projection_cases(n: int, count: int, rng: random.Random) -> list[tuple]:
    """Rational points of the enclosing simplex, five kinds in turn:
    inside the permutahedron, on a random face of it, anywhere in the
    simplex, with repeated coordinates, and with the sum off by less
    than the projection's tolerance."""
    n1 = n + 1
    total = n1 * (n1 + 1) // 2
    verts = list(itertools.permutations(range(1, n1 + 1)))
    corners = [tuple(total - n if i == j else 1 for j in range(n1)) for i in range(n1)]

    def combo(points):
        w = [Fraction(rng.randint(0, 12)) for _ in points]
        if not any(w):
            w[0] = Fraction(1)
        return tuple(
            sum(Fraction(p[i]) * wi for p, wi in zip(points, w)) / sum(w)
            for i in range(n1)
        )

    out = []
    for k in range(count):
        kind = k % 5
        if kind == 0:
            x = combo(rng.sample(verts, min(len(verts), rng.randint(1, 4))))
        elif kind == 1:
            # vertices of one face: the positions of each block of an
            # ordered set partition carry the next smallest values
            cuts = sorted(rng.sample(range(1, n1), rng.randint(1, n)))
            perm = rng.sample(range(n1), n1)
            blocks = [perm[a:b] for a, b in zip([0] + cuts, cuts + [n1])]
            face = []
            for _ in range(rng.randint(1, 3)):
                v = [0] * n1
                lo = 1
                for block in blocks:
                    values = rng.sample(range(lo, lo + len(block)), len(block))
                    for i, val in zip(block, values):
                        v[i] = val
                    lo += len(block)
                face.append(v)
            x = combo(face)
        elif kind == 2:
            x = combo(corners)
        elif kind == 3:
            values = [Fraction(rng.randint(0, 9)) for _ in range(rng.randint(1, n1))]
            w = [rng.choice(values) for _ in range(n1)]
            if not any(w):
                w = [Fraction(1)] * n1
            x = tuple(1 + (total - n1) * wi / sum(w) for wi in w)
        else:
            x = list(combo(corners))
            top = max(range(n1), key=lambda i: x[i])
            x[top] += Fraction(rng.choice([-1, 1]), 10**10)
            x = tuple(x)
        out.append(x)
    return out


@pytest.mark.parametrize("n, count", [(1, 300), (2, 300), (3, 300), (4, 100)])
def test_projection_and_membership_match_face_sweep(n, count):
    # 1,000 points in all; the face sweep solves 541 systems per point
    # outside P_4, which bounds the n = 4 share
    r = realize(n)
    tol = Fraction(1, 10**9)
    cases = _projection_cases(n, count, random.Random(7000 + n))
    kinds = {False: 0, True: 0}
    for x in cases:
        inside = permutahedron_contains_reference(x)
        kinds[inside] += 1
        assert r.contains(x) == inside, x
        assert r.contains(x, tol) == permutahedron_contains_reference(x, tol), x
        z = closest_point_map(x, r)
        assert z == projection_reference(x), x
        assert all(type(c) is Fraction for c in z)
        assert r.contains(z)
    assert min(kinds.values()) >= count // 5


def test_projection_n5_meets_variational_inequality():
    # the projection has no size cap beyond realize's n <= 6; z is the
    # nearest point of P to x exactly when z lies in P and
    # (x - z).(v - z) <= 0 for every vertex v
    r = realize(5)
    rng = random.Random(55)
    points = [(Fraction(7, 2),) * 6]
    for _ in range(8):
        weights = [Fraction(rng.randint(0, 20)) for _ in range(6)]
        weights[rng.randrange(6)] += 1
        points.append(tuple(1 + (r.total - 6) * w / sum(weights) for w in weights))
    for x in points:
        z = closest_point_map(x, r)
        assert r.contains(z)
        d = [a - b for a, b in zip(x, z)]
        for v in r.vertices:
            assert sum(di * (vi - zi) for di, vi, zi in zip(d, v, z)) <= 0
    assert closest_point_map(points[0], r) == points[0]
    with pytest.raises(InputError):
        closest_point_map((2, 2), realize(2))


def test_projection_face_inclusion_property():
    # points on a simplex face project into permutahedron faces whose
    # largest subset contains the pinned set
    r = realize(2)
    rng = random.Random(5)
    for pinned in [(1,), (2,), (3,)]:
        free = [i for i in range(1, 4) if i not in pinned]
        for _ in range(20):
            a = Fraction(rng.randint(1000, 4000), 1000)
            vals = {pinned[0]: Fraction(1), free[0]: a, free[1]: 5 - a}
            x = tuple(vals[i] for i in range(1, 4))
            z = closest_point_map(x, r)
            tight = [
                s
                for s in proper_subsets(2)
                if sum(z[i - 1] for i in s) == subset_level(len(s))
            ]
            assert any(set(pinned) <= set(s) for s in tight)


def test_collapse_face_condition_exact():
    r = realize(2)
    rng = random.Random(17)
    for ns in all_faces(2):
        fv = r.vertices_of_face(ns)
        for _ in range(10):
            weights = [Fraction(rng.randint(1, 9)) for _ in fv]
            tot = sum(weights)
            y = tuple(
                sum(Fraction(v[i]) * w for v, w in zip(fv, weights)) / tot
                for i in range(3)
            )
            img = collapse_to_simplex(y, r)
            for i in ns.chain[-1]:
                assert img[i - 1] == 1
            assert sum(img) == 6
            assert all(c >= 1 for c in img)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_collapse_sends_every_face_into_its_face_of_the_simplex(n):
    # step 2 of the facet induction that proves d_n != 0
    # (collapse_to_simplex): each vertex of a face of P_n, and three
    # seeded random rational points of it, go into the simplex with the
    # coordinates of the face's largest subset exactly 1.  Every face at
    # n <= 4 (3,872 points), a seeded sample of 300 of the 4,682 faces at
    # n = 5, each n within 1 s
    start = time.perf_counter()
    r = realize(n)
    rng = random.Random(n)
    faces = all_faces(n)
    if n == 5:
        faces = rng.sample(faces, 300)
    points = 0
    for ns in faces:
        fv = r.vertices_of_face(ns)
        inside = []
        for _ in range(3):
            weights = [rng.randint(1, 9) for _ in fv]
            inside.append(
                tuple(sum(Fraction(v[i] * w) for v, w in zip(fv, weights)) / sum(weights) for i in range(n + 1))
            )
        for y in [*fv, *inside]:
            image = collapse_to_simplex(y, r)
            assert sum(image) == r.total and min(image) >= 1, (ns, y)
            assert all(image[i - 1] == 1 for i in ns.chain[-1]), (ns, y)
            points += 1
    assert n == 5 or points == {1: 8, 2: 54, 3: 390, 4: 3420}[n]
    assert time.perf_counter() - start < 1.0


def test_collapse_identity_deep_interior():
    r = realize(2)
    assert collapse_to_simplex((2, 2, 2), r) == (2, 2, 2)
    pt = (Fraction(9, 4), 2, Fraction(7, 4))  # all slacks >= 1/4
    assert collapse_to_simplex(pt, r) == pt


def test_collapse_vertex_to_simplex_vertex():
    r = realize(2)
    assert collapse_to_simplex((3, 1, 2), r) == (4, 1, 1)
    # (1,2,3) lies on the chain {1} < {1,2}, so both pinned coordinates drop
    assert collapse_to_simplex((1, 2, 3), r) == (1, 1, 4)


def test_collapse_rejects_outside():
    r = realize(2)
    with pytest.raises(DomainError):
        collapse_to_simplex((4, 1, 1), r)


def _collapse_cases(n: int, count: int, rng: random.Random) -> list[tuple]:
    """Rational points of the permutahedron: every vertex, then four
    kinds in turn: the relative interior of a random face of each
    codimension, the projection of a point of the enclosing simplex, a
    point with some coordinates averaged into a tie, and such a tie on a
    face."""
    r = realize(n)
    faces = [enumerate_faces(n, c) for c in range(1, n + 1)]
    simplex_points = _projection_cases(n, count, rng)

    def combo(points):
        w = [Fraction(rng.randint(1, 12)) for _ in points]
        return [
            sum(Fraction(p[i]) * wi for p, wi in zip(points, w)) / sum(w)
            for i in range(n + 1)
        ]

    def tie(x):
        # the mean over the permutations of a coordinate set stays inside
        block = rng.sample(range(n + 1), rng.randint(2, n + 1))
        mean = sum(x[i] for i in block) / len(block)
        return [mean if i in block else x[i] for i in range(n + 1)]

    out = [tuple(map(Fraction, v)) for v in r.vertices]
    for k in range(count):
        kind = k % 4
        if kind == 0:
            ns = rng.choice(faces[k // 4 % n])
            x = combo(r.vertices_of_face(ns))
        elif kind == 1:
            x = closest_point_map(simplex_points[k], r)
        elif kind == 2:
            x = tie(combo(rng.sample(r.vertices, min(len(r.vertices), 4))))
        else:
            x = tie(combo(r.vertices_of_face(rng.choice(rng.choice(faces)))))
        out.append(tuple(x))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_collapse_matches_all_subsets_reference(n):
    # 1,352 points in all; for each n at least 100 lie on the boundary
    # and at least 100 have tied coordinates
    r = realize(n)
    cases = _collapse_cases(n, 300, random.Random(8100 + n))
    subsets = [
        s for k in range(1, n + 1) for s in itertools.combinations(range(n + 1), k)
    ]
    boundary = ties = 0
    for y in cases:
        assert r.contains(y), y
        z = collapse_to_simplex(y, r)
        assert z == collapse_reference(y, DAMPING_SLACK), y
        assert all(type(c) is Fraction for c in z)
        boundary += any(sum(y[i] for i in s) == subset_level(len(s)) for s in subsets)
        ties += len(set(y)) <= n
    assert boundary >= 100 and ties >= 100


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_collapse_batch_matches_scalar(n):
    r = realize(n)
    rng = np.random.default_rng(3)
    verts = np.array(r.vertices, dtype=float)
    bary = rng.dirichlet(np.ones(len(verts)), size=200)
    extra = _collapse_cases(n, 100, random.Random(8200 + n))
    pts = np.concatenate([bary @ verts, np.array(extra, dtype=float)])
    batch = collapse_batch(r)(pts)
    for row_in, row_out in zip(pts, batch):
        exact = collapse_to_simplex(tuple(row_in), r)
        assert np.allclose(row_out, [float(c) for c in exact], rtol=0, atol=1e-12)


def _collapse_rowwise(realization, pts):
    """collapse_batch written with a fresh array for every step and row
    reductions (sort, cumsum, sum over axis 1), as first written."""
    n1 = realization.n + 1
    eps = float(DAMPING_SLACK)
    ordered = np.sort(pts, axis=1)
    low = np.concatenate([np.zeros((len(pts), 1)), np.cumsum(ordered[:, :-1], axis=1)], axis=1)
    g = pts - 1.0
    for k in range(2, n1):
        least = np.maximum(low[:, k][:, None], pts + low[:, k - 1][:, None])
        g = np.minimum(g, least - subset_level(k))
    w = np.clip(g / eps, 0.0, 1.0)
    pulled = 1.0 + (pts - 1.0) * w
    spare = float(realization.total) - pulled.sum(axis=1)
    return pulled + (spare / w.sum(axis=1))[:, None] * w


@pytest.mark.parametrize("n, step", [(1, 0.05), (2, 0.05), (3, 0.25)])
def test_collapse_batch_is_bit_equal_to_the_rowwise_formula(n, step):
    # the in-place collapse with column sums gives the same bits, which
    # the 1e-12 of test_collapse_batch_matches_scalar cannot see
    r = realize(n)
    verts = np.array(r.vertices, dtype=float)
    inside = np.random.default_rng(n).dirichlet(np.ones(len(verts)), size=500) @ verts
    for pts in (_mesh(n, step).points, inside):
        assert np.array_equal(collapse_batch(r)(pts), _collapse_rowwise(r, pts))


def _reference_exit_time(dirs, center):
    """coverage._exit_time as first written: np.where over a division
    whose errors are masked."""
    t = np.full(len(dirs), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for c, v in zip(center, dirs.T):
            t = np.minimum(t, np.where(v < 0, (1.0 - c) / v, np.inf))
    return t


def _reference_radial_parameter(pts, center):
    """coverage._radial_parameter as first written, with np.where and np.clip."""
    t_star = _reference_exit_time(pts - center, center)
    return np.clip(np.where(np.isfinite(t_star), 1.0 / t_star, 0.0), 0.0, 1.0)


def _twist_rowwise(angle, pts):
    """twist_perturbation(2, angle) with np.linalg.norm's row norms, the
    rows gathered twice and the exit times above, as first written."""
    center = np.full(3, coverage.plane_total(2) / 3.0)
    basis = coverage._hyperplane_basis(2)
    v = pts - center
    lam = _reference_radial_parameter(pts, center)
    uv = v @ basis.T
    theta = angle * (1.0 - lam)
    cos, sin = np.cos(theta), np.sin(theta)
    rotated = np.stack(
        [cos * uv[:, 0] - sin * uv[:, 1], sin * uv[:, 0] + cos * uv[:, 1]], axis=1
    )
    new_dir = rotated @ basis
    out = np.tile(center, (len(pts), 1))
    nz = np.linalg.norm(new_dir, axis=1) > 1e-14
    unit = new_dir[nz] / np.linalg.norm(new_dir[nz], axis=1, keepdims=True)
    out[nz] = center + (lam[nz] * _reference_exit_time(unit, center))[:, None] * unit
    return out


@pytest.mark.parametrize("angle", [0.7, -0.5, 0.0, 2.0])
def test_twist_is_bit_equal_to_the_rowwise_formula(angle):
    # the row norms summed by columns give np.linalg.norm's bits; the
    # images of a collapsed mesh hold the simplex centre, where the
    # direction is zero and the point stays put
    m = coverage.plane_total(2)
    simplex = collapse_batch(realize(2))(_mesh(2, 0.05).points)
    # the simplex is x >= 1 on the plane of sum m
    inside = 1.0 + np.random.default_rng(7).dirichlet(np.ones(3), size=500) * (m - 3.0)
    centre = np.full((1, 3), m / 3.0)
    for pts in (simplex, inside, centre):
        assert np.array_equal(twist_perturbation(2, angle)(pts), _twist_rowwise(angle, pts))


def _read_only_points(n):
    """Points of P_n in a read-only array: a cached mesh's vertices for
    n <= 3, seeded points of P_4 otherwise."""
    if n <= 3:
        return _mesh(n, 0.5).points
    verts = np.array(realize(n).vertices, dtype=float)
    pts = np.random.default_rng(4).dirichlet(np.ones(len(verts)), size=300) @ verts
    pts.flags.writeable = False
    return pts


@pytest.mark.parametrize(
    "n, name",
    [(n, "collapse") for n in (1, 2, 3, 4)]
    + [(2, "radial"), (3, "radial"), (2, "twist"), (2, "shrink"), (3, "shrink")],
)
def test_maps_only_read_their_input(n, name):
    f = {
        "collapse": lambda: collapse_batch(realize(n)),
        "radial": lambda: radial_perturbation(n, 0.3),
        "twist": lambda: twist_perturbation(n, 0.7),
        "shrink": lambda: shrink_map(n, 0.9),
    }[name]()
    pts = _read_only_points(n)
    assert not pts.flags.writeable
    want = f(pts.copy())
    for given in (pts, pts.copy()):
        before = given.copy()
        out = f(given)
        assert np.array_equal(given, before)
        assert np.array_equal(out, want) and not np.shares_memory(out, given)


def test_identity_boundary_samples_are_fixed():
    r2, r3 = realize(2), realize(3)
    for n, r in ((2, r2), (3, r3)):
        for p in identity_boundary_samples(n, 30, seed=11):
            assert sum(p) == r.total
            assert min(p) == 1
            z = closest_point_map(p, r)
            assert z == p  # the point already satisfies every constraint
            assert collapse_to_simplex(z, r) == p


def test_truncated_corner_regions_are_not_fixed():
    # the corner of the simplex is cut off, so projection lands on the
    # cut facet and the collapse sends that facet to the corner vertex
    r = realize(2)
    x = (Fraction(7, 2), 1, Fraction(3, 2))
    z = closest_point_map(x, r)
    assert z == (3, Fraction(5, 4), Fraction(7, 4))
    assert collapse_to_simplex(z, r) == (4, 1, 1) != x


def test_coverage_check_passes_for_collapse():
    rep = check_face_mapping_surjectivity(
        collapse_batch(realize(2)), 2, grid_step=0.05
    )
    assert rep.ok
    assert rep.max_gap <= 0.05
    assert not rep.face_violations


def test_coverage_check_flags_shrink_map():
    fb = collapse_batch(realize(2))
    bad = shrink_map(2, 0.9)
    rep = check_face_mapping_surjectivity(
        lambda pts: bad(fb(pts)), 2, grid_step=0.05
    )
    assert not rep.ok
    assert rep.uncovered_witness is not None
    assert rep.face_violations


def test_coverage_check_passes_perturbed():
    fb = collapse_batch(realize(2))
    psi = radial_perturbation(2, 0.3)
    rep = check_face_mapping_surjectivity(
        lambda pts: psi(fb(pts)), 2, grid_step=0.05
    )
    assert rep.ok


def test_collapse_certifies_at_n4_and_a_failing_check_there_is_refused(no_scan, monkeypatch):
    # the passing check runs up to the mesh budget; a failing one at n = 4
    # is refused after the face condition and before the scan, whose
    # float crossing signs are not sound there
    fb = collapse_batch(realize(4))
    rep = check_face_mapping_surjectivity(fb, 4, 0.5)
    assert rep.ok and rep.grid_points == rep.covered == math.comb(24, 4) == 10626
    assert rep.samples_used == 165060

    def refuse(*args):
        raise AssertionError("a failing check at n = 4 reached the scan")

    monkeypatch.setattr(coverage, "_rim_blocks", refuse)
    monkeypatch.setattr(degree, "winding", refuse)
    bad = shrink_map(4, 0.9)
    with pytest.raises(ResourceError, match="float signs of its winding scan are not sound"):
        check_face_mapping_surjectivity(lambda pts: bad(fb(pts)), 4, 0.5)


def test_mesh_budget_refuses_n6_before_building_a_flag(monkeypatch):
    # 7! 6! = 3,628,800 flags, each a simplex at least, are over
    # MAX_MESH_SIMPLICES: refused before the flags or the faces are built
    def refuse(*args):
        raise AssertionError("a mesh over the budget built its flags")

    for name in ("_flags", "_faces", "_reach"):
        monkeypatch.setattr(coverage, name, refuse)
    with pytest.raises(ResourceError, match="needs at least 3628800 simplices"):
        check_face_mapping_surjectivity(lambda pts: pts, 6, 3.0)
    with pytest.raises(ResourceError):
        _mesh(6, 3.0)


def test_coverage_grid_step_must_divide():
    with pytest.raises(InputError):
        check_face_mapping_surjectivity(
            collapse_batch(realize(2)), 2, grid_step=0.07
        )


@pytest.mark.parametrize("scale", [0.9, -0.9, 1.1, -1.1])
def test_grid_slack_boundaries(scale):
    # at n = 2 the grid step must divide the simplex's edge of 3 up to
    # GRID_SLACK grid steps: 60 + 0.9 GRID_SLACK steps divide it, 60 +
    # 1.1 GRID_SLACK do not
    off = scale * GRID_SLACK
    step = 3 / (60 + off)
    assert abs(3 / step - 60 - off) < 1e-3 * GRID_SLACK
    f = collapse_batch(realize(2))
    if abs(scale) < 1:
        assert coverage._grid_divisions(2, step) == 60
        assert check_face_mapping_surjectivity(f, 2, step).grid_points == math.comb(62, 2)
    else:
        with pytest.raises(InputError, match="must divide 3 evenly"):
            check_face_mapping_surjectivity(f, 2, step)


@pytest.mark.parametrize(
    "steps",
    [
        {"grid_step": 0},
        {"grid_step": -0.05},
        {"grid_step": math.nan},
        {"grid_step": math.inf},
    ],
)
def test_coverage_steps_must_be_positive_and_finite(steps):
    with pytest.raises(InputError):
        check_face_mapping_surjectivity(collapse_batch(realize(2)), 2, **steps)


@pytest.mark.parametrize(
    "args",
    [
        {"n": True},  # once an n = 1 report
        {"n": 2.0},
        {"n": "2"},
        {"n": 0},
        {"n": -1},
        {"grid_step": True},  # once run as 1.0
        {"grid_step": "0.1"},
        {"seed": 1.5},
        {"seed": -1},
        {"seed": "x"},
        {"seed": True},
    ],
    ids=lambda args: ",".join(f"{key}={value!r}" for key, value in args.items()),
)
def test_coverage_refuses_bad_arguments(args):
    # the identity takes points of any length, so only the check refuses
    with pytest.raises(InputError):
        check_face_mapping_surjectivity(
            lambda pts: pts, **{"n": 2, "grid_step": 0.1, "seed": 0, **args}
        )


@pytest.mark.parametrize(
    "n, steps",
    [
        (2, {"grid_step": 0.003}),  # 12 flags of 472**2 pieces
        (3, {"grid_step": 0.05}),  # 144 flags of 45**3 pieces
    ],
)
def test_coverage_answers_huge_failing_checks_from_the_boundary(no_whole_mesh, n, steps):
    # the whole meshes are over MAX_MESH_SIMPLICES, and no check builds
    # one: the collapse certifies, and the shrink, which breaks the face
    # condition, answers from the same boundary vertices, with the
    # closed-form count of the shrunk simplex's nodes (every lattice
    # coordinate at least n / 20 over the step) and its witness
    fb, bad = collapse_batch(realize(n)), shrink_map(n, 0.9)
    assert check_face_mapping_surjectivity(fb, n, **steps).ok
    rim = _mesh(n, steps["grid_step"], boundary=True)
    seen = []

    def f(pts):
        seen.append(pts.copy())
        return bad(fb(pts))

    start = time.perf_counter()
    rep = check_face_mapping_surjectivity(f, n, **steps)
    assert time.perf_counter() - start < 5.0
    assert np.array_equal(np.concatenate(seen), rim.points)
    k, count = _grid_nodes(n, steps["grid_step"])
    least = math.ceil(Fraction(n, 20) / Fraction(str(steps["grid_step"])))
    assert not rep.ok and rep.grid_points == count == math.comb(k + n, n)
    assert rep.covered == math.comb(k - (n + 1) * least + n, n)
    assert rep.uncovered_witness == (1.0,) * n + (1.0 + n * (n + 1) / 2,)
    assert rep.samples_used == len(rim.points) and rep.mesh_step == rim.step


@pytest.mark.parametrize("n, step", [(1, 0.1), (2, 0.3), (2, 0.05), (3, 0.5), (3, 0.25)])
def test_mesh_tiles_the_permutahedron(n, step):
    # in the chart of the first n coordinates P_n has volume (n+1)**(n-1);
    # the unsigned volumes of the simplices add up to it, and each seeded
    # interior point lies in exactly one simplex, so none overlap
    mesh = _mesh(n, step)
    corners = mesh.points[:, :n][mesh.simplices]
    det = np.linalg.det(corners[:, 1:] - corners[:, :1])
    volume = (n + 1) ** (n - 1) * math.factorial(n)
    assert math.isclose(np.abs(det).sum(), volume, rel_tol=1e-9)
    verts = np.array(realize(n).vertices, dtype=float)
    points = np.random.default_rng(11).dirichlet(np.ones(len(verts)), size=5) @ verts
    counts = [
        degree_reference(mesh.points[:, :n], mesh.simplices, np.sign(det), point[:n])
        for point in points
    ]
    assert set(counts) - {None} == {1}
    assert mesh.step <= step
    lengths = np.linalg.norm(mesh.points[mesh.edges[:, 0]] - mesh.points[mesh.edges[:, 1]], axis=1)
    assert math.isclose(lengths.max(), mesh.step, rel_tol=1e-12)
    assert len(np.unique(mesh.points.round(9), axis=0)) == len(mesh.points)


@pytest.mark.parametrize("n, step", [(2, 0.3), (3, 0.5)])
def test_mesh_vertices_lie_in_their_least_faces(n, step):
    # a vertex's least face is the one whose chain is exactly the set of
    # subsets tight at it; an interior vertex has no tight subset
    mesh = _mesh(n, step)
    faces = all_faces(n)
    subsets = [
        tuple(i + 1 for i in s)
        for size in range(1, n + 1)
        for s in itertools.combinations(range(n + 1), size)
    ]
    for point, face in zip(mesh.points, mesh.face):
        tight = {
            s for s in subsets
            if abs(sum(point[i - 1] for i in s) - len(s) * (len(s) + 1) / 2) < 1e-9
        }
        assert tight == (set() if face < 0 else set(faces[face].chain))
    assert (mesh.face < 0).any() and (mesh.face >= 0).any()


def test_mesh_is_built_once_per_n_and_k():
    # any step between the mesh's longest edge and the step it was built
    # for gives the same k, and so the same mesh object
    for n, step in [(1, 0.1), (2, 0.3), (2, 0.05), (3, 0.5)]:
        mesh = _mesh(n, step)
        assert mesh.step < step
        assert _mesh(n, (step + mesh.step) / 2) is mesh
        assert _mesh(n, mesh.step * 0.99) is not mesh


def test_cached_mesh_is_read_only():
    mesh = _mesh(3, 0.5)
    arrays = [v for v in vars(mesh).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 5
    # the flags, the faces' pins and the rim's sorted simplices and facing
    # are cached and shared too
    arrays += [*coverage._flags(3), coverage._faces(3)[1], *_mesh(3, 0.5, True).oriented]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 0
    # the expanded views are copies the caller may change
    mesh.simplices[0] = 0
    assert _mesh(3, 0.5).simplices[0].any()


# sha256 of each _flags(n) array's dtype, shape and bytes, recorded
# before the flags were read from their chains
FLAGS_SHA256 = {
    1: (
        "c19e2720c598899d8e7f8e5eb842d641346674a0de19e96572b220c68a08020c",
        "646fb89477673de97b0e9f0200273dd47110544d2bbc49d48f9ec8533e00af6e",
    ),
    2: (
        "0b69b9d0ccd063dda6e50a07abfb6b50b66f3ac193025c2a2b569d59cb3cb5e5",
        "c3a47dcc2451040b6d54d261ea02d13eb2f2fee32b56dd1287dafa2e15f28393",
    ),
    3: (
        "30ea4ed077cd04026f8bf023a4a42ce7b5306ab36b29482587c55dcb11c41016",
        "56814f7c7b27c8fac19caf40414e3dd6ea56bc160c66383c3c0889a227c8eede",
    ),
    4: (
        "cbfc58ca798b898f40bb2f53594c84115a462ccf2783078e197c387ac334e6f3",
        "bbf87102a84dbe180db15294d5902c28ad2e9bad7a1c20c18a5bc0b19b49b2de",
    ),
}


@pytest.mark.parametrize("n", sorted(FLAGS_SHA256))
def test_flags_match_the_pinned_hash(n):
    digests = tuple(
        hashlib.sha256(f"{a.dtype.str} {a.shape}".encode() + a.tobytes()).hexdigest()
        for a in coverage._flags(n)
    )
    assert digests == FLAGS_SHA256[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reach_block_by_block_is_the_one_shot_formula(n, monkeypatch):
    # the formula that held every flag's 2^n - 1 axis sums at once (a
    # 384 MB peak at n = 5), against blocks of the default size and of
    # one flag each
    bary, _ = coverage._flags(n)
    sums = np.array(list(itertools.product((0, 1), repeat=n))[1:]) @ (np.diff(bary, axis=1) / 2.0)
    want = float(np.linalg.norm(sums, axis=-1).max())
    assert coverage._reach(n) == want
    monkeypatch.setattr(coverage, "SLAB_ROWS", 1)
    assert coverage._reach.__wrapped__(n) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_flag_barycentres_are_the_means_of_their_faces_vertices(n):
    # the rule the chain replaced: each row is twice the mean of the
    # vertices of the face it indexes, the last twice P's centre; a
    # flag's faces rise one dimension a step from a vertex, each chain
    # inside the one before
    bary, ids = coverage._flags(n)
    faces, r = all_faces(n), realize(n)
    twice = [2 * np.array(r.vertices_of_face(ns)).mean(axis=0) for ns in faces]
    assert len(bary) == math.factorial(n + 1) * math.factorial(n)
    assert np.array_equal(bary[:, :n], np.array(twice)[ids])
    assert (bary[:, n] == n + 2).all()
    assert all(faces[i].dim() == j for row in ids.tolist() for j, i in enumerate(row))
    assert all(
        set(faces[a].chain) > set(faces[b].chain)
        for row in ids.tolist()
        for a, b in zip(row, row[1:])
    )


@pytest.mark.parametrize("n, k", [(1, 1), (1, 5), (2, 2), (2, 7), (3, 1), (3, 3)])
def test_boundary_mesh_is_the_whole_mesh_on_the_boundary(n, k):
    # the boundary mesh holds the whole mesh's boundary vertices in the
    # same order with the same least faces, the boundary facets of its
    # simplices and its edges between boundary vertices, once per flag
    whole, rim = coverage._mesh_of(n, k), coverage._mesh_of(n, k, True)
    on = np.flatnonzero(whole.face >= 0)
    assert np.array_equal(rim.points, whole.points[on])
    assert np.array_equal(rim.face, whole.face[on])
    count = math.factorial(n + 1) * math.factorial(n) * k ** (n - 1)
    assert len(rim.simplices) == count
    # a simplex of the whole mesh has at most one facet on the boundary
    tight = whole.face[whole.simplices] >= 0
    assert tight.sum(axis=1).max() == n
    facet = tight.sum(axis=1) == n
    facets = np.sort(whole.simplices[facet][tight[facet]].reshape(-1, n), axis=1)
    mine = np.sort(on[rim.simplices], axis=1)
    assert len(facets) == count
    assert np.array_equal(np.unique(facets, axis=0), np.unique(mine, axis=0))
    assert len(np.unique(mine, axis=0)) == count
    edges = np.sort(whole.edges, axis=1)
    edges = edges[(whole.face[edges] >= 0).all(axis=1)]
    mine = np.sort(on[rim.edges], axis=1)
    assert np.array_equal(edges[np.lexsort(edges.T)], mine[np.lexsort(mine.T)])
    if len(mine):
        lengths = np.linalg.norm(rim.points[rim.edges[:, 0]] - rim.points[rim.edges[:, 1]], axis=1)
        assert math.isclose(lengths.max(), rim.step, rel_tol=1e-12)
    else:
        assert n == 1 and rim.step == 0.0
    for array in (rim.points, rim.face, rim.inverse, rim.pieces, rim.reference_edges):
        assert not array.flags.writeable


def test_boundary_of_p1_has_no_edge():
    # P_1 is a segment, its boundary two points: the boundary mesh has no
    # edge, so a passing check reports mesh step and image edge 0.0
    rep = check_face_mapping_surjectivity(collapse_batch(realize(1)), 1, 0.1)
    assert rep.ok and rep.samples_used == 2
    assert rep.mesh_step == rep.image_edge == 0.0
    assert rep.grid_points == rep.covered == 11


def test_interleaved_checks_share_meshes_without_crosstalk():
    fb = collapse_batch(realize(2))
    bad = shrink_map(2, 0.9)
    f3 = collapse_batch(realize(3))
    reports = []
    for n, f in [(2, lambda pts: bad(fb(pts))), (3, f3), (2, lambda pts: bad(fb(pts)))]:
        reports.append(check_face_mapping_surjectivity(f, n, 0.05 if n == 2 else 0.5))
    assert reports[0] == reports[2]
    assert not reports[0].ok and reports[0].uncovered_witness is not None
    assert reports[1].ok


def test_map_error_mid_check_leaves_the_next_check_as_a_fresh_one():
    # the shrink fails the face condition, and its check maps the
    # boundary vertices in one call, where the error comes after the
    # meshes are built
    fb, bad = collapse_batch(realize(2)), shrink_map(2, 0.9)
    calls = []

    def f(pts):
        calls.append(len(pts))
        pts[:] = 0.0  # scribbles on its input before it fails
        raise DomainError("refused by the map")

    with pytest.raises(DomainError):
        check_face_mapping_surjectivity(f, 2, 0.01)
    assert len(calls) == 1
    after = check_face_mapping_surjectivity(lambda pts: bad(fb(pts)), 2, 0.01)
    coverage._mesh_of.cache_clear()
    assert check_face_mapping_surjectivity(lambda pts: bad(fb(pts)), 2, 0.01) == after
    assert not after.ok


def _shipped_maps():
    """The criterion-06 maps at n = 2, with each perturbation also alone."""
    fb = collapse_batch(realize(2))
    psis = {
        "radial+0.3": radial_perturbation(2, 0.3),
        "radial-0.3": radial_perturbation(2, -0.3),
        "radial+0.45": radial_perturbation(2, 0.45),
        "twist+0.7": twist_perturbation(2, 0.7),
        "twist-0.5": twist_perturbation(2, -0.5),
        "shrink0.9": shrink_map(2, 0.9),
    }
    maps = {"collapse": fb}
    for name, psi in psis.items():
        maps[name] = psi
        maps[name + "*collapse"] = lambda pts, _psi=psi: _psi(fb(pts))
    return maps


def test_maps_act_row_by_row():
    # the coverage check maps its points in row blocks, so every shipped
    # map must give the same bits on a block as on the whole array
    rng = np.random.default_rng(7)
    cases = [(n, f"collapse{n}", collapse_batch(realize(n))) for n in (1, 2, 3)]
    cases += [(2, name, f) for name, f in _shipped_maps().items()]
    cases.append((3, "radial3", radial_perturbation(3, 0.3)))
    cases.append((3, "shrink3", shrink_map(3, 0.8)))
    for n, name, f in cases:
        verts = np.array(realize(n).vertices, dtype=float)
        pts = rng.dirichlet(np.ones(len(verts)), size=3000) @ verts
        pts = np.concatenate([pts, verts])
        whole = f(pts)
        cuts = [0, 2, 5, 12, 77, 1000, 2048, len(pts)]
        blocks = np.concatenate([f(pts[a:b]) for a, b in zip(cuts, cuts[1:])])
        assert np.array_equal(whole, blocks), name
        assert np.array_equal(whole, _map_rows(f, pts)), name


def test_map_rows_never_passes_a_lone_row():
    # a single row goes through another BLAS routine than a block, and its
    # last bits can differ, so blocks hold 2..SLAB_ROWS rows
    for rows in (2, 3, SLAB_ROWS, SLAB_ROWS + 1, 3 * SLAB_ROWS + 1):
        sizes = []

        def f(pts):
            sizes.append(len(pts))
            return pts

        out = _map_rows(f, np.arange(3.0 * rows).reshape(rows, 3))
        assert out.shape == (rows, 3)
        assert sum(sizes) == rows
        assert 2 <= min(sizes) and max(sizes) <= SLAB_ROWS


_ONTO = [
    name for name in _shipped_maps()
    if name == "collapse" or "*" in name and not name.startswith("shrink")
]


@pytest.fixture
def no_scan(monkeypatch):
    """Make scanning the grid raise: a check that certifies from the face
    condition counts its nodes, and never winds the boundary around
    one."""

    def refuse(*args):
        raise AssertionError("a certifying check scanned the grid")

    for name in ("_cube_points", "winding", "on_image", "_gaps"):
        monkeypatch.setattr(coverage, name, refuse)


@pytest.fixture
def no_lattice(monkeypatch):
    """Make building the node lattice raise: a check that certifies from
    the face condition counts its nodes and never builds them."""

    def refuse(*args):
        raise AssertionError("a certifying check built the node lattice")

    monkeypatch.setattr(coverage, "_simplex_lattice", refuse)


def _tight(pts):
    """Whether each row of pts, a point of P_n, lies on a subset
    inequality's hyperplane: whether it is on the boundary of P."""
    n = pts.shape[1] - 1
    slack = [
        np.abs(pts[:, list(s)].sum(axis=1) - subset_level(len(s)))
        for size in range(1, n + 1)
        for s in itertools.combinations(range(n + 1), size)
    ]
    return np.min(slack, axis=0) < 1e-9


@pytest.fixture
def no_whole_mesh(monkeypatch):
    """Make building the whole mesh of P raise: a check, passing or
    failing, builds only the boundary mesh."""
    build = coverage._mesh_of

    def boundary_only(n, k, boundary=False):
        if not boundary:
            raise AssertionError("a coverage check built the whole mesh")
        return build(n, k, boundary)

    monkeypatch.setattr(coverage, "_mesh_of", boundary_only)


def _grid_nodes(n, grid_step):
    """The nodes of the simplex grid, counted over the whole box."""
    k = round((n * (n + 1) / 2) / grid_step)
    return k, int((np.indices((k + 1,) * n).sum(axis=0) <= k).sum())


@pytest.mark.parametrize(
    "n, grid_step",
    [(2, g) for g in (0.1, 0.05, 0.025, 0.02)] + [(3, g) for g in (0.5, 0.375, 0.25, 0.1, 0.05)],
)
def test_certifying_check_builds_no_lattice(no_scan, no_lattice, no_whole_mesh, n, grid_step):
    # the benchmark's grids, and n = 3 at 0.1 and 0.05, whose whole meshes
    # hold 1,752,048 and 13,122,000 simplices (over MAX_MESH_SIMPLICES),
    # their boundary meshes 41,616 and 291,600: every node is covered, the
    # report counts them in closed form, and the map is given exactly the
    # boundary vertices, in mesh order.  Each case takes under 1 s, the
    # nine under 10 s
    start = time.perf_counter()
    fb = collapse_batch(realize(n))
    seen = []

    def f(pts):
        seen.append(pts.copy())
        return fb(pts)

    rep = check_face_mapping_surjectivity(f, n, grid_step)
    k, count = _grid_nodes(n, grid_step)
    assert rep.ok and rep.grid_points == rep.covered == count == math.comb(k + n, n)
    assert rep.uncovered_witness is None and not rep.face_violations
    rim = _mesh(n, grid_step, boundary=True)
    assert rep.samples_used == len(rim.points) and _tight(rim.points).all()
    assert np.array_equal(np.concatenate(seen), rim.points)
    assert rep.mesh_step == rim.step <= grid_step
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "n, grid_step, witness",
    [(2, 0.05, (1.0, 1.0, 4.0)), (3, 0.25, (1.0, 1.0, 1.0, 7.0))],
)
def test_failing_check_maps_only_the_boundary(no_whole_mesh, n, grid_step, witness):
    # the benchmark's shrink at n = 2 and the shrink at n = 3 on its
    # finest grid: f sees exactly the boundary vertices, in mesh order, as
    # when a check certifies, and the winding number gives the oracle's
    # count and the witness the located nodes always gave
    fb, bad = collapse_batch(realize(n)), shrink_map(n, 0.9)
    seen = []

    def f(pts):
        seen.append(pts.copy())
        return bad(fb(pts))

    rep = check_face_mapping_surjectivity(f, n, grid_step)
    rim = _mesh(n, grid_step, boundary=True)
    assert _tight(rim.points).all()
    assert np.array_equal(np.concatenate(seen), rim.points)
    assert rep.samples_used == len(rim.points) and rep.mesh_step == rim.step
    ref = shrink_coverage_reference(n, grid_step, 0.9)
    k, count = _grid_nodes(n, grid_step)
    assert rep.grid_points == ref["grid_points"] == count == math.comb(k + n, n)
    assert rep.covered == ref["inside"] + ref["near"] and not rep.ok
    assert rep.uncovered_witness == ref["first_outside"] == witness


@pytest.mark.parametrize(
    "n, grid_step, name",
    [(2, g, name) for g in (0.1, 0.05, 0.025, 0.02) for name in _ONTO]
    + [(3, g, "collapse") for g in (0.5, 0.375, 0.25)],
)
def test_coverage_certifies_shipped_onto_maps(no_scan, n, grid_step, name):
    # the benchmark's grids, n = 3 at 0.25 included: the face condition
    # holds, so every node is covered without scanning one
    f = _shipped_maps()[name] if n == 2 else collapse_batch(realize(3))
    rep = check_face_mapping_surjectivity(f, n, grid_step)
    assert rep.ok
    assert rep.covered == rep.grid_points and rep.uncovered_witness is None
    assert rep.max_gap <= 1e-6 and not rep.face_violations
    assert 0 < rep.mesh_step <= grid_step and rep.image_edge > 0


def _bumped(n, amplitude, u):
    """collapse + amplitude * s(x) * sin(3 x_0) * u, s(x) the least slack
    of x in any subset inequality: 0 on the boundary of P, so the map
    respects the faces however large the bump inside."""
    fb = collapse_batch(realize(n))
    subsets = [
        list(s) for size in range(1, n + 1) for s in itertools.combinations(range(n + 1), size)
    ]

    def f(pts):
        slack = np.min([pts[:, s].sum(axis=1) - subset_level(len(s)) for s in subsets], axis=0)
        return fb(pts) + (amplitude * slack * np.sin(3 * pts[:, 0]))[:, None] * u

    return f


def _bump_directions(n):
    """Five unit directions in the simplex's plane, from default_rng(3)."""
    rng = np.random.default_rng(3)
    out = []
    for _ in range(5):
        u = rng.standard_normal(n + 1)
        u -= u.mean()
        out.append(u / np.linalg.norm(u))
    return out


@pytest.mark.parametrize("amplitude", [20, -40, 200])
def test_coverage_certifies_large_bumps_inside(no_scan, amplitude):
    # at 200 the fifth direction once read FAIL, 2,907 of 2,925 nodes
    # covered: the image simplex holding the witness (1.5, 3.5, 1.5, 3.5)
    # was skipped as flat when nodes were located
    for u in _bump_directions(3):
        rep = check_face_mapping_surjectivity(_bumped(3, amplitude, u), 3, 0.25)
        assert rep.ok and not rep.face_violations, u
        assert rep.covered == rep.grid_points and rep.uncovered_witness is None
        assert rep.max_gap <= 1e-6


@pytest.mark.parametrize("n", [2, 3])
def test_failing_check_of_far_images_tries_no_box_beyond_the_grid(n):
    # a boundary image 10**20 grid steps away: every box is clipped to
    # the grid before its points are counted, so none overflows or is
    # walked point by point, and no node is covered
    far = np.array([1e20, -1e20, *[0.0] * (n - 1)])
    far[-1] += coverage.plane_total(n)
    rep = check_face_mapping_surjectivity(lambda pts: np.tile(far, (len(pts), 1)), n, 0.5)
    assert not rep.ok and rep.covered == 0
    assert rep.uncovered_witness == (1.0,) * n + (1.0 + n * (n + 1) / 2,)
    assert 1e19 < rep.max_gap < math.inf


def _scan(chart, n, grid_step):
    """The failing check's scan of boundary images given in the chart of
    the first n coordinates, on the plane, one row per boundary vertex of
    the mesh: at every grid node, in grid order, the winding number and
    whether the node lies on the image of the boundary."""
    k = coverage._grid_divisions(n, grid_step)
    rim = _mesh(n, grid_step, boundary=True)
    blocks = list(coverage._rim_blocks(np.ascontiguousarray((chart - 1.0).T / grid_step), rim))
    at = coverage._cube_points(n, k)[0]
    return degree.winding(blocks, k)[at], degree.on_image(blocks, k)[at]


def _degrees(n, grid_step, chart):
    """The scan of the boundary rows of a chart of the whole mesh's
    images, and the oracle's degree over every simplex of the whole mesh,
    at every grid node in grid order: the winding numbers, whether each
    node lies on the image of the boundary, and the degrees, None where a
    node is not clear of the image simplices."""
    mesh = _mesh(n, grid_step)
    winding, on = _scan(chart[mesh.face >= 0], n, grid_step)
    corners = mesh.points[:, :n][mesh.simplices]
    orientation = np.sign(np.linalg.det(corners[:, 1:] - corners[:, :1]))
    nodes = 1.0 + grid_step * coverage._simplex_lattice(n, coverage._grid_divisions(n, grid_step))
    # each node is given the simplices whose boxes, widened as the oracle
    # widens them, hold it: all the oracle reads, so that it gathers no
    # others
    images = chart[mesh.simplices]
    pad = 1e-6 * np.abs(images).max(axis=(1, 2))[:, None]
    low, high = images.min(axis=1) - pad, images.max(axis=1) + pad
    degrees = []
    for p in nodes:
        boxed = ((low <= p) & (high >= p)).all(axis=1)
        degrees.append(degree_reference(chart, mesh.simplices[boxed], orientation[boxed], p))
    return winding, on, degrees


def _scan_against_degree(n, grid_step, chart):
    """Check the scan of the boundary rows of a chart of the whole mesh's
    images against the oracle's degree over every simplex of the whole
    mesh (_degrees), at every grid node off the image of the boundary and
    clear of the image simplices, and that the oracle calls no node on
    that image clear.  The chart is first moved by a small generic
    offset: the collapse's image simplices have the grid nodes on their
    faces, where the oracle cannot count.  Returns the degrees compared."""
    chart = chart + 1e-3 * np.array([0.31, 0.53, 0.17, 0.41])[:n]
    winding, on, degrees = _degrees(n, grid_step, chart)
    assert all(d is None for d, o in zip(degrees, on) if o)
    compared = np.array([d is not None for d in degrees]) & ~on
    assert compared.sum() > len(degrees) / 3, compared.sum()
    want = [d for d, c in zip(degrees, compared) if c]
    assert winding[compared].tolist() == want
    return want


def _shipped(n, name):
    """The named map of P_n: at n = 2 one of _shipped_maps, else the
    collapse, or the radial perturbation by 0.3 or the shrink by 0.9,
    alone or after the collapse."""
    if n == 2:
        return _shipped_maps()[name]
    fb = collapse_batch(realize(n))
    if name == "collapse":
        return fb
    psi, _, after = name.partition("*")
    g = radial_perturbation(n, 0.3) if psi == "radial+0.3" else shrink_map(n, 0.9)
    return (lambda pts: g(fb(pts))) if after else g


@pytest.mark.parametrize(
    "n, grid_step, name",
    [(2, 0.1, name) for name in _shipped_maps()]
    + [(1, 0.1, "collapse"), (1, 0.1, "shrink0.9*collapse")]
    + [
        (3, 0.5, name)
        for name in (
            "collapse", "radial+0.3", "radial+0.3*collapse", "shrink0.9", "shrink0.9*collapse"
        )
    ]
    + [(4, 2.0, "collapse"), (4, 2.0, "shrink0.9*collapse")],
)
def test_winding_matches_the_degree_of_shipped_maps(n, grid_step, name):
    # every shipped map, at n = 1 and 3 the collapse, the radial
    # perturbation and the shrink, alone and after the collapse, and at
    # n = 4 on the coarsest mesh (126 nodes) the collapse and the shrink
    # after it: off the image of the boundary, the scan's winding number
    # is the degree of the PL interpolant on the whole mesh, 1 over the
    # onto maps' inner nodes, 0 past the boundary's image.  At n = 4 the
    # crossings are those of tetrahedra with lattice lines, which the
    # same sign rule decides as it does edges and triangles
    mapped = _map_rows(_shipped(n, name), _mesh(n, grid_step).points)
    chart = (mapped - ((_row_sums(mapped) - coverage.plane_total(n)) / (n + 1))[:, None])[:, :n]
    assert set(_scan_against_degree(n, grid_step, chart)) == {0, 1}


@pytest.mark.parametrize("n, grid_step", [(2, 0.1), (3, 0.5)])
def test_winding_on_a_folded_chart_matches_the_degree(n, grid_step):
    # random points of the simplex as the chart make the image simplices
    # overlap and fold, so winding numbers of either sign and above 1
    # occur
    mesh = _mesh(n, grid_step)
    total = (n + 1) * (n + 2) / 2
    rng = np.random.default_rng(0)
    chart = 1.0 + (total - (n + 1)) * rng.dirichlet(np.ones(n + 1), len(mesh.points))[:, :n]
    degrees = set(_scan_against_degree(n, grid_step, chart))
    assert len(degrees) > 2 and min(degrees) < 0 < max(degrees), degrees


def test_degree_reference_calls_no_node_on_the_boundary_image_clear():
    # shrink_map(2, 0.9) alone, with no offset: 54 nodes lie on the image
    # of the boundary, 20 of them, such as lattice node (1, 19), within
    # rounding of the shrunk hexagon's vertex images and outside every
    # exact bounding box.  Boxes widened by the oracle's clear, relative
    # to the coordinates, gather them, and the oracle calls none clear
    n, grid_step = 2, 0.1
    mesh = _mesh(n, grid_step)
    chart = shrink_map(n, 0.9)(mesh.points)[:, :n]
    _, on, degrees = _degrees(n, grid_step, chart)
    assert on.sum() == 54
    assert all(d is None for d, o in zip(degrees, on) if o)
    images = chart[mesh.simplices]
    low, high = images.min(axis=1), images.max(axis=1)
    nodes = 1.0 + grid_step * coverage._simplex_lattice(n, coverage._grid_divisions(n, grid_step))
    unboxed = [not ((low <= p) & (high >= p)).all(axis=1).any() for p in nodes[on]]
    assert sum(unboxed) == 20


def test_a_fold_inside_p_covers_no_node():
    # the collapse shrunk by half, with the whole mesh's vertex at the
    # centre of P sent past a node y outside the shrunk simplex, to twice
    # y's distance from the centre: the whole mesh's PL interpolant then
    # covers y by one simplex of each orientation, degree 0.  Located in
    # the whole mesh's image simplices (located_reference), y is covered;
    # the winding number of the boundary values, which the fold does not
    # touch, is 0 there, so the check leaves y uncovered, and its report
    # is the unfolded map's
    fb, half = collapse_batch(realize(2)), shrink_map(2, 0.5)
    mesh = _mesh(2, 0.1)
    plain = half(fb(mesh.points))
    y = np.array([3.5, 1.3, 1.2])  # a node; the shrunk simplex is x_i >= 1.5
    v = np.flatnonzero((mesh.points == 2.0).all(axis=1))[0]
    spike = plain[v] + 2.0 * (y - plain[v])
    folded = plain.copy()
    folded[v] = spike

    def fold(pts):
        out = half(fb(pts))
        out[(pts == mesh.points[v]).all(axis=1)] = spike
        return out

    corners = mesh.points[:, :2][mesh.simplices]
    orientation = np.sign(np.linalg.det(corners[:, 1:] - corners[:, :1]))
    assert located_reference(folded[:, :2], mesh.simplices, [y[:2]], 1e-6, 1e-9)[0]
    assert not located_reference(plain[:, :2], mesh.simplices, [y[:2]], 1e-6, 1e-9)[0]
    assert degree_reference(folded[:, :2], mesh.simplices, orientation, y[:2]) == 0
    rep = check_face_mapping_surjectivity(fold, 2, 0.1)
    assert rep == check_face_mapping_surjectivity(lambda pts: half(fb(pts)), 2, 0.1)
    ref = shrink_coverage_reference(2, 0.1, 0.5)
    assert not rep.ok and rep.covered == ref["inside"] + ref["near"]
    k = coverage._grid_divisions(2, 0.1)
    place = coverage._simplex_lattice(2, k).tolist().index([25, 3])  # y
    assert place in ref["outside_places"]


@pytest.mark.parametrize(
    "n, grid_step, factor",
    [(1, 0.1, 0.9), (2, 0.05, 0.9), (2, 0.1, 0.5), (2, 0.02, 0.7), (3, 0.5, 0.9), (3, 0.25, 0.6)],
)
def test_failing_check_covers_no_node_outside_the_shrunk_simplex(n, grid_step, factor):
    # soundness: the shrink after the collapse maps the boundary onto the
    # shrunk simplex's boundary, and no node outside its closed form is
    # covered, by winding number or by lying on the image of the boundary
    fb, bad = collapse_batch(realize(n)), shrink_map(n, factor)
    rim = _mesh(n, grid_step, boundary=True)
    mapped = bad(fb(rim.points))
    chart = (mapped - ((_row_sums(mapped) - coverage.plane_total(n)) / (n + 1))[:, None])[:, :n]
    winding, on = _scan(chart, n, grid_step)
    ref = shrink_coverage_reference(n, grid_step, factor)
    outside = np.zeros(len(winding), dtype=bool)
    outside[ref["outside_places"]] = True
    assert not ((winding != 0) | on)[outside].any()
    assert ((winding != 0) | on).sum() == ref["inside"] + ref["near"]
    assert set(winding[~outside].tolist()) <= {0, 1} and set(winding[outside].tolist()) == {0}


@pytest.mark.parametrize("n, grid_step", [(1, 0.1), (1, 0.02), (2, 0.05), (2, 0.02), (3, 0.5)])
def test_coverage_of_shrink_matches_oracle(n, grid_step):
    # the PL image of shrink o collapse is the shrunk simplex; nodes on
    # its boundary lie in closed image simplices and count as covered
    fb = collapse_batch(realize(n))
    bad = shrink_map(n, 0.9)
    rep = check_face_mapping_surjectivity(lambda pts: bad(fb(pts)), n, grid_step)
    ref = shrink_coverage_reference(n, grid_step, 0.9)
    assert rep.grid_points == ref["grid_points"]
    assert rep.covered == ref["inside"] + ref["near"]
    assert rep.uncovered_witness == ref["first_outside"]
    assert not rep.ok


@pytest.mark.parametrize("n, grid_step", [(2, 0.01), (3, 0.375)])
def test_coverage_of_shrink_matches_oracle_on_finer_grids(n, grid_step):
    # the nodes the located image simplices hold, on a grid where most
    # image boxes hold a node and on an n = 3 grid with nodes off the mesh
    fb = collapse_batch(realize(n))
    bad = shrink_map(n, 0.9)
    rep = check_face_mapping_surjectivity(lambda pts: bad(fb(pts)), n, grid_step)
    ref = shrink_coverage_reference(n, grid_step, 0.9)
    assert rep.grid_points == ref["grid_points"]
    assert rep.covered == ref["inside"] + ref["near"]
    assert rep.uncovered_witness == ref["first_outside"]


@pytest.mark.parametrize("n, finer", [(1, 0.1), (2, 0.1), (3, 0.5)])
@pytest.mark.parametrize("swap", [False, True], ids=["collapse", "swapped"])
def test_collapse_has_degree_one(n, finer, swap):
    # the face condition certifies coverage because every map respecting
    # the faces has the collapse's degree d_n; here d_n = 1, counted with
    # the oracle over points near the centre of the simplex, and swapping
    # two image coordinates reverses it
    fb = collapse_batch(realize(n))
    order = [1, 0, *range(2, n + 1)] if swap else list(range(n + 1))
    rng = np.random.default_rng(5)
    for step in (2.0, finer):
        mesh = _mesh(n, step)
        corners = mesh.points[:, :n][mesh.simplices]
        orientation = np.sign(np.linalg.det(corners[:, 1:] - corners[:, :1]))
        chart = fb(mesh.points)[:, order][:, :n]
        points = (n + 2) / 2 + 0.1 * rng.uniform(-1, 1, (3, n))
        degrees = [degree_reference(chart, mesh.simplices, orientation, p) for p in points]
        assert set(degrees) - {None} == {-1 if swap else 1}, (step, degrees)


@pytest.mark.parametrize(
    "n, grid_step, name",
    [(2, g, name) for g in (0.1, 0.05, 0.025, 0.02) for name in _shipped_maps()]
    + [(3, g, "collapse") for g in (0.5, 0.375, 0.25)],
)
def test_degree_and_image_edge_match_the_expanded_mesh(n, grid_step, name):
    # every shipped map has PL degree 1 over points near the centre, as
    # the face condition predicts for the onto maps, counted by the
    # oracle over every simplex of the expanded mesh; _longest_edge walks
    # the factored mesh, and the einsum sees every expanded edge at once
    f = _shipped_maps()[name] if n == 2 else collapse_batch(realize(3))
    mesh = _mesh(n, grid_step)
    mapped = _map_rows(f, mesh.points)
    corners = mesh.points[:, :n][mesh.simplices]
    orientation = np.sign(np.linalg.det(corners[:, 1:] - corners[:, :1]))
    points = (n + 2) / 2 + 0.1 * np.random.default_rng(5).uniform(-1, 1, (3, n))
    degrees = [degree_reference(mapped[:, :n], mesh.simplices, orientation, p) for p in points]
    assert set(degrees) - {None} == {1}, degrees
    d = mapped[mesh.edges[:, 0]] - mapped[mesh.edges[:, 1]]
    assert _longest_edge(mapped, mesh) == math.sqrt(np.einsum("ij,ij->i", d, d).max())


def _bump_on_facet(n, facet):
    """The collapse, with the image of each point inside the given facet
    moved off the facet's target, by 0.01 times the point's least slack
    in any other subset inequality: the face condition breaks on that
    facet and on no smaller face."""
    fb = collapse_batch(realize(n))
    pinned = [i - 1 for i in facet]
    free = next(i for i in range(n + 1) if i not in pinned)
    others = [
        list(s)
        for size in range(1, n + 1)
        for s in itertools.combinations(range(n + 1), size)
        if list(s) != pinned
    ]

    def slack(pts, s):
        return pts[:, s].sum(axis=1) - len(s) * (len(s) + 1) / 2

    def f(pts):
        out = fb(pts)
        on = np.abs(slack(pts, pinned)) < 1e-9
        t = 0.01 * np.min([slack(pts[on], s) for s in others], axis=0)
        out[on, pinned[0]] += t
        out[on, free] -= t
        return out

    return f


@pytest.mark.parametrize("n, facet", [(2, (1,)), (3, (1, 3))])
def test_coverage_names_the_one_broken_facet(n, facet):
    rep = check_face_mapping_surjectivity(_bump_on_facet(n, facet), n, 0.1 if n == 2 else 0.5)
    assert not rep.ok
    assert [v.chain for v in rep.face_violations] == [NestedSequence(n, (facet,))]
    point = rep.face_violations[0].point
    assert abs(sum(point[i - 1] for i in facet) - subset_level(len(facet))) < 1e-9


@pytest.mark.parametrize("n, grid_step", [(2, 0.1), (3, 0.5)])
def test_coverage_checks_every_boundary_vertex(n, grid_step):
    # the collapse with one boundary vertex of the mesh, inside a facet,
    # sent 1e-3 off the facet's target: only the vertex's own check can
    # name the facet
    rim = _mesh(n, grid_step, boundary=True)
    faces = all_faces(n)
    fb = collapse_batch(realize(n))
    for index in np.unique(rim.face):
        facet = faces[index]
        if len(facet.chain) != 1:
            continue
        vertex = rim.points[np.argmax(rim.face == index)]
        pinned = facet.chain[0][0] - 1
        free = next(i for i in range(n + 1) if i + 1 not in facet.chain[0])

        def f(pts):
            out = fb(pts)
            hit = (pts == vertex).all(axis=1)
            out[hit, pinned] += 1e-3
            out[hit, free] -= 1e-3
            return out

        rep = check_face_mapping_surjectivity(f, n, grid_step)
        assert not rep.ok, facet
        assert [v.chain for v in rep.face_violations] == [facet]
        assert rep.face_violations[0].point == tuple(vertex.tolist())


def _shrunk_collapse(n, factor):
    fb, shrink = collapse_batch(realize(n)), shrink_map(n, factor)
    return lambda pts: shrink(fb(pts))


@pytest.mark.parametrize(
    "n, grid_step, make",
    [
        (1, 0.1, lambda: _shrunk_collapse(1, 0.9)),
        (2, 0.1, lambda: _shrunk_collapse(2, 0.9)),
        (2, 0.05, lambda: _shrunk_collapse(2, 1.05)),
        (3, 0.5, lambda: _shrunk_collapse(3, 0.9)),
        (2, 0.1, lambda: _bump_on_facet(2, (1,))),
        (3, 0.5, lambda: _bump_on_facet(3, (1, 3))),
        (3, 0.5, lambda: _bump_on_facet(3, (2,))),
    ],
    ids=["shrink1", "shrink2", "grow2", "shrink3", "bump2", "bump3-13", "bump3-2"],
)
def test_face_violations_follow_checked_order(n, grid_step, make):
    # the oracle: the boundary vertices of the mesh in mesh order, each
    # against the coordinates its least face pins; for each face in
    # all_faces order, the first vertex off its target.  These maps break
    # the condition at several vertices of a face, so the order decides
    # which vertex is named
    f = make()
    rim = _mesh(n, grid_step, boundary=True)
    images = f(rim.points)
    want, several = [], False
    for index, ns in enumerate(all_faces(n)):
        pinned = [i - 1 for i in ns.chain[-1]]
        rows = np.flatnonzero(rim.face == index)
        bad = [r for r in rows if (np.abs(images[r, pinned] - 1.0) > FACE_TOL).any()]
        if bad:
            point, image = tuple(rim.points[bad[0]].tolist()), tuple(images[bad[0]].tolist())
            want.append(coverage.FaceViolation(ns, point, image))
            several |= len(bad) > 1
    rep = check_face_mapping_surjectivity(f, n, grid_step)
    assert rep.face_violations == tuple(want)
    assert n == 1 or several


def test_coverage_seed_moves_nothing():
    # seed is still accepted, and selects nothing: the shrink's failing
    # report and the collapse's passing one are the same for every seed
    fb = collapse_batch(realize(2))
    bad = shrink_map(2, 0.9)
    for f in (lambda pts: bad(fb(pts)), fb):
        reports = [
            check_face_mapping_surjectivity(f, 2, 0.05, seed=seed) for seed in (0, 1, 2**31 - 1)
        ]
        assert all(r == reports[0] and repr(r) == repr(reports[0]) for r in reports)


def _with_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


@pytest.mark.parametrize("n, grid_step", [(2, 0.05), (3, 0.5)])
@pytest.mark.parametrize("cpus", [1, 3])
def test_coverage_report_does_not_depend_on_cpu_count(monkeypatch, n, grid_step, cpus):
    f = collapse_batch(realize(n))
    default = check_face_mapping_surjectivity(f, n, grid_step)
    _with_cpus(monkeypatch, cpus)
    assert len(os.sched_getaffinity(0)) == cpus and os.cpu_count() == cpus
    assert check_face_mapping_surjectivity(f, n, grid_step) == default


def test_coverage_parts_under_fast_thread_switching(monkeypatch):
    # many reported CPUs, switching threads every 10 microseconds
    f = collapse_batch(realize(2))
    default = check_face_mapping_surjectivity(f, 2, 0.05)
    _with_cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        start = time.perf_counter()
        report = check_face_mapping_surjectivity(f, 2, 0.05)
    finally:
        sys.setswitchinterval(interval)
    assert report == default
    assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize("cpus", [1, 3])
def test_coverage_worker_error_reaches_caller_and_no_thread_is_left(monkeypatch, cpus):
    # the check maps on the calling thread, whatever the CPU count; the
    # shrink fails, and the error comes in its one call, which maps the
    # boundary vertices
    _with_cpus(monkeypatch, cpus)
    fb = collapse_batch(realize(2))
    before = threading.active_count()
    check_face_mapping_surjectivity(fb, 2, 0.05)
    assert threading.active_count() == before

    error = DomainError("refused by the map")
    calls = []

    def f(pts):
        calls.append((len(pts), threading.current_thread()))
        raise error

    with pytest.raises(DomainError) as raised:
        check_face_mapping_surjectivity(f, 2, 0.01)
    assert raised.value is error
    assert len(calls) == 1
    assert all(thread is threading.main_thread() for _, thread in calls)
    assert threading.active_count() == before
    time.sleep(0.05)
    assert len(calls) == 1  # nothing went on mapping after the error


def test_permutahedron_serves_five_coverage_names():
    # the benchmark reads these as permutahedron attributes
    names = (
        "collapse_batch",
        "radial_perturbation",
        "twist_perturbation",
        "shrink_map",
        "check_face_mapping_surjectivity",
    )
    for name in names:
        assert getattr(permutahedron, name) is getattr(coverage, name), name
    for name in ("export_off", "FACE_TOL", "_mesh", "np"):
        assert not hasattr(permutahedron, name), name


def test_coverage_check_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(permutahedron.__file__))
    code = (
        "import sys\n"
        "from periodmap.coverage import *\n"
        "assert check_face_mapping_surjectivity(collapse_batch(realize(3)), 3, 0.5).ok\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _near(pts, point, radius):
    return np.linalg.norm(pts - np.array(point, dtype=float), axis=1) < radius


def _nan_near_corner(pts):
    # the face condition once let NaN through, as it fails "> FACE_TOL"
    out = collapse_batch(realize(2))(pts)
    out[_near(out, (4, 1, 1), 0.3)] = np.nan
    return out


def _inf_near_centre(pts, centre=(1, 2.5, 2.5)):
    # near the centre of the image of the facet {x_1 = 1}: a check reads
    # the map on the boundary of P only.  At the simplex's centre only
    # the sample blocks once reached it, where a bare ValueError from a
    # KD-tree stopped it
    out = collapse_batch(realize(2))(pts)
    out[_near(out, centre, 0.05)] = np.inf
    return out


def _off_plane(pts, centre=(1, 2.5, 2.5)):
    out = collapse_batch(realize(2))(pts)
    out[_near(out, centre, 0.3), 0] += 1e-3
    return out


@pytest.mark.parametrize("f", [_inf_near_centre, _off_plane])
def test_coverage_never_reads_the_map_inside(no_whole_mesh, f):
    # bad images only near the simplex's centre, the image of the inside
    # of P, which a passing check never maps
    rep = check_face_mapping_surjectivity(lambda pts: f(pts, (2, 2, 2)), 2, grid_step=0.1)
    assert rep.ok


@pytest.mark.parametrize(
    "f, error, match",
    [
        (_nan_near_corner, NumericalDomainError, r"to the non-finite \(nan"),
        (_inf_near_centre, NumericalDomainError, r"to the non-finite \(inf"),
        # once broadcast over every row and read as FAIL, 3/496 covered
        (lambda pts: pts[:1], InputError, r"shape \(1, 3\) for a block of shape"),
        # once an attempt to allocate 15.3 GiB
        (lambda pts: pts.T, InputError, r"shape \(3, \d+\) for a block"),
        # once a bare IndexError
        (lambda pts: pts[:, :2], InputError, r"shape \(\d+, 2\) for a block"),
        (_off_plane, NumericalDomainError, r"off the simplex's plane by a coordinate sum of 0.001"),
    ],
    ids=[
        "nan-near-corner", "inf-near-centre", "one-row", "transposed", "dropped-column",
        "off-plane",
    ],
)
def test_coverage_refuses_bad_map_output(f, error, match):
    with pytest.raises(error, match=match):
        check_face_mapping_surjectivity(f, 2, grid_step=0.1)


@pytest.mark.parametrize("n, grid_step", [(2, 0.05), (3, 0.5)])
def test_coverage_parts_never_pass_a_lone_row(n, grid_step):
    fb = collapse_batch(realize(n))
    sizes = []

    def f(pts):
        sizes.append(len(pts))
        return fb(pts)

    check_face_mapping_surjectivity(f, n, grid_step)
    assert min(sizes) >= 2 and max(sizes) <= SLAB_ROWS


@pytest.mark.parametrize(
    "n, make",
    [
        *[(n, lambda n=n: collapse_batch(realize(n))) for n in (1, 2, 3)],
        *[(n, lambda n=n: shrink_map(n, 0.9)) for n in (1, 2, 3)],
        *[(n, lambda n=n: radial_perturbation(n, 0.3)) for n in (2, 3)],
        (2, lambda: twist_perturbation(2, 0.7)),
    ],
    ids=[
        "collapse1", "collapse2", "collapse3", "shrink1", "shrink2", "shrink3",
        "radial2", "radial3", "twist2",
    ],
)
def test_maps_refuse_points_of_another_shape(n, make):
    # one 1-D point was once broadcast into a square array, and a row of
    # the wrong width gave NaN rows or a bare IndexError or ValueError
    f = make()
    assert f(np.full((4, n + 1), float(n + 2) / 2)).shape == (4, n + 1)
    for shape in ((4, n), (4, n + 2), (n + 1,), (2, 2, n + 1)):
        with pytest.raises(InputError, match=rf"got shape \({shape[0]},"):
            f(np.full(shape, 1.5))


def test_perturbations_fix_boundary():
    for psi in (
        radial_perturbation(2, 0.4),
        radial_perturbation(2, -0.4),
        twist_perturbation(2, 0.7),
    ):
        boundary = np.array(
            [[1.0, 2.0, 3.0], [4.0, 1.0, 1.0], [1.0, 2.5, 2.5]]
        )
        out = psi(boundary)
        assert np.allclose(out, boundary, atol=1e-9)
        interior = np.array([[2.0, 2.0, 2.0], [2.2, 1.9, 1.9]])
        img = psi(interior)
        assert np.allclose(img.sum(axis=1), 6.0)
        assert (img >= 1.0 - 1e-9).all()


def test_export_json_n2():
    data = export_json(2)
    assert data["n"] == 2
    assert len(data["vertices"]) == 6
    assert len(data["faces"]) == 12
    facet = next(f for f in data["faces"] if f["chain"] == [[1]])
    assert facet["dim"] == 1
    assert len(facet["vertices"]) == 2


def test_export_off_n2():
    text = export_off(2)
    lines = text.strip().splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "6 1 6"
    poly = lines[-1].split()
    assert poly[0] == "6"
    assert sorted(int(i) for i in poly[1:]) == [0, 1, 2, 3, 4, 5]


def test_export_off_n3():
    text = export_off(3)
    lines = text.strip().splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "24 14 36"
    sizes = sorted(int(line.split()[0]) for line in lines[2 + 24 :])
    assert sizes.count(4) == 6  # square facets
    assert sizes.count(6) == 8  # hexagonal facets


@pytest.mark.parametrize("n", [2, 3])
def test_export_off_is_pinned(n):
    path = os.path.join(os.path.dirname(__file__), "golden", f"p{n}.off")
    with open(path, "rb") as fh:
        assert export_off(n).encode() == fh.read()


def test_coverage_walks_one_flag_in_slabs(monkeypatch):
    # a small SLAB_ROWS puts one flag of the boundary mesh in each block
    # of _longest_edge and 16 simplices in each run of _rim_blocks, and
    # every block size must give the same report
    fb = collapse_batch(realize(2))
    bad = shrink_map(2, 0.9)
    maps = [fb, lambda pts: bad(fb(pts))]
    want = [check_face_mapping_surjectivity(f, 2, 0.05) for f in maps]
    monkeypatch.setattr(coverage, "SLAB_ROWS", 16)
    assert len(_mesh(2, 0.05, boundary=True).pieces) > 16
    got = [check_face_mapping_surjectivity(f, 2, 0.05) for f in maps]
    assert [repr(r) for r in got] == [repr(r) for r in want]
    assert want[0].ok and not want[1].ok


@pytest.mark.parametrize("slab", [64, 5, 1000])
def test_longest_edge_blocks_hold_at_most_slab_rows_floats(monkeypatch, slab):
    # SLAB_ROWS bounds the floats of each _longest_edge temporary: one
    # flag's edges hold 87 to 540 floats here, so at 64 and 5 every block
    # is one flag (the floor of one flag a block), and at 1000 the n = 2
    # and n = 3, grid 0.5 meshes end in a partial block of flags.  Every
    # passing report must be the default's, and the image edge the
    # longest over the expanded mesh's edges.
    fb2, fb3 = collapse_batch(realize(2)), collapse_batch(realize(3))
    radial = radial_perturbation(2, 0.3)
    cases = [
        (2, 0.05, fb2),
        (2, 0.05, lambda pts: radial(fb2(pts))),
        (3, 0.5, fb3),
        (3, 0.25, fb3),
    ]
    want = [check_face_mapping_surjectivity(f, n, step) for n, step, f in cases]
    for (n, step, f), report in zip(cases, want):
        rim = _mesh(n, step, boundary=True)
        images = _map_rows(f, rim.points)
        d = images[rim.edges[:, 0]] - images[rim.edges[:, 1]]
        assert report.ok
        assert report.image_edge == math.sqrt(np.einsum("ij,ij->i", d, d).max())
    monkeypatch.setattr(coverage, "SLAB_ROWS", slab)
    got = [check_face_mapping_surjectivity(f, n, step) for n, step, f in cases]
    assert [repr(r) for r in got] == [repr(r) for r in want]


def _reference_map(n, name, value):
    """The named map by the formulas it was first written with: row
    reductions, np.clip, and np.where over a masked division."""
    center = np.full(n + 1, plane_total(n) / (n + 1))
    if name == "collapse":
        return lambda pts: _collapse_rowwise(realize(n), pts)
    if name == "twist":
        return lambda pts: _twist_rowwise(value, pts)
    if name == "radial":
        return lambda pts: center + (
            1.0 + value * (1.0 - _reference_radial_parameter(pts, center))
        )[:, None] * (pts - center)
    return lambda pts: center + value * (pts - center)


_MAPS_UNDER_TEST = [
    *[(n, "collapse", None, lambda n=n: collapse_batch(realize(n))) for n in (1, 2, 3)],
    *[
        (n, "radial", c, lambda n=n, c=c: radial_perturbation(n, c))
        for n in (1, 2, 3)
        for c in (0.3, -0.3)
    ],
    (2, "twist", 0.7, lambda: twist_perturbation(2, 0.7)),
    (2, "twist", -0.5, lambda: twist_perturbation(2, -0.5)),
    *[(n, "shrink", 0.9, lambda n=n: shrink_map(n, 0.9)) for n in (1, 2, 3)],
]


@pytest.mark.parametrize(
    "n, name, value, make",
    _MAPS_UNDER_TEST,
    ids=[f"{name}{'' if v is None else f'{v:+}'}-n{n}" for n, name, v, _ in _MAPS_UNDER_TEST],
)
def test_maps_keep_their_bits_and_raise_nothing(n, name, value, make):
    # the boundary mesh's vertices, the centre (a zero direction from it)
    # and 200 seeded points of P; the simplex maps also get the collapse's
    # images of them, which lie on the simplex's boundary.  Under
    # errstate(all="raise") any masked division would raise.
    verts = np.array(realize(n).vertices, dtype=float)
    pts = np.concatenate(
        [
            _mesh(n, 0.1 if n < 3 else 0.5, boundary=True).points,
            np.full((1, n + 1), (n + 2) / 2),
            np.random.default_rng(47).dirichlet(np.ones(len(verts)), size=200) @ verts,
        ]
    )
    if name != "collapse":
        pts = np.concatenate([pts, _reference_map(n, "collapse", None)(pts)])
    want = _reference_map(n, name, value)(pts)
    with np.errstate(all="raise"):
        got = make()(pts)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
