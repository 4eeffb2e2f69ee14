"""Float half of the permutahedron: batched collapse, test maps, the
piecewise-linear coverage certificate and the OFF export.

This is the one module of the package that loads numpy; everything it
builds on (faces, the realization, the exact collapse) is the exact
``permutahedron`` module.  The certificate runs on floats over an
integer-built mesh of P_n.  A passing check maps only the mesh's
vertices on the boundary of P, and face samples, and claims that every
continuous map into the simplex's plane with those boundary values is
onto the simplex but for a thin band along its boundary; only a failing
check maps the interior too, to locate grid nodes: see
check_face_mapping_surjectivity for what it proves.  Importing
``periodmap`` or running a command other than ``permutahedron export
--format off`` never loads this module.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import InputError, NumericalDomainError, ResourceError, check_int, check_real
from .permutahedron import (
    DAMPING_SLACK,
    NestedSequence,
    PermRealization,
    _check_n,
    all_faces,
    enumerate_faces,
    plane_total,
    realize,
    subset_level,
)

MAX_GRID_POINTS = 4 * 10**7  # largest grid a coverage check builds
MAX_MESH_SIMPLICES = 2**21  # largest mesh of P a coverage check builds
FACE_SAMPLES = 40  # random points per face in the coverage check's face condition
FACE_TOL = 1e-7  # how far an image coordinate the face pins may stray from 1
SLAB_ROWS = 2**15  # rows per call of the checked map, simplices per block of mesh work
DEGENERATE = 1e-6  # |det| / product of edge lengths at or below which an image simplex is flat
LOCATE_TOL = 1e-9  # barycentric slack with which a grid node lies in an image simplex
# absolute, in grid steps: how far the edge over the grid step may be
# from an integer for the step to count as dividing the edge
GRID_SLACK = 1e-9
# absolute, in grid steps: how far an image simplex's node box reaches
# past its corners, so that a node on a box face up to rounding is still
# tested against the simplex and no node inside one is missed
BOX_SLACK = 1e-9
# absolute length in the plane: a rotated direction this short is the
# centre itself, which the twist fixes, and is not normalized
TWIST_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# batched collapse
# ---------------------------------------------------------------------------


def _sorted_columns(pts: np.ndarray) -> list[np.ndarray]:
    """The columns of pts sorted within each row, smallest first.

    Odd-even transposition on whole columns: n + 1 rounds of
    np.minimum and np.maximum.  A row-wise np.sort of so few columns
    pays per-row overhead: on 32,768 rows at n = 2 (2-CPU host) its
    prefix sums took about 1.9 ms against 0.2 ms for this network, which
    made the collapse about 50% slower.  For the same reason the check
    sums rows this short column by column (_row_sums).  pts is only
    read: the columns are views of it until the first swap replaces
    them.
    """
    cols = [pts[:, j] for j in range(pts.shape[1])]
    for rnd in range(len(cols)):
        for j in range(rnd % 2, len(cols) - 1, 2):
            cols[j], cols[j + 1] = (
                np.minimum(cols[j], cols[j + 1]),
                np.maximum(cols[j], cols[j + 1]),
            )
    return cols


def _row_sums(a: np.ndarray) -> np.ndarray:
    """The sums of a over its last axis, of a few entries (n or n+1),
    added left to right one column at a time: the bits of
    a.sum(axis=-1), which adds rows this short in the same order, at a
    tenth of its cost (0.03 against 0.36 ms on 30,673 rows of 4, 2-CPU
    host)."""
    return functools.reduce(np.add, np.moveaxis(a, -1, 0))


def collapse_batch(realization: PermRealization) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized float version of collapse_to_simplex for sampling: the
    same least sums, read from the prefix sums of the sorted columns.

    The map reads its input and never writes to it, so a read-only array
    is accepted.  Past the prefix sums it works in two arrays of the
    input's shape, each updated in place, and its row sums are column
    adds (_row_sums): the same bits as a fresh array for every step and
    row reductions, in about 40% of the time (0.81 against 1.93 ms on
    the 20,539 mesh vertices at n = 3, grid 0.25, 2-CPU host).
    """
    n1 = realization.n + 1
    eps = float(DAMPING_SLACK)
    m = float(realization.total)

    def apply(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        low = [0.0, *itertools.accumulate(_sorted_columns(pts)[:-1])]  # low[k] = c_k
        g = pts - 1.0  # k = 1: the least single coordinate holding y_i is y_i
        least = np.empty_like(g)
        for k in range(2, n1):
            np.add(pts, low[k - 1][:, None], out=least)
            np.maximum(low[k][:, None], least, out=least)
            least -= subset_level(k)
            np.minimum(g, least, out=g)
        w = g
        w /= eps
        np.clip(w, 0.0, 1.0, out=w)
        pulled = np.subtract(pts, 1.0, out=least)
        pulled *= w
        pulled += 1.0
        spare = m - _row_sums(pulled)
        spare /= _row_sums(w)
        w *= spare[:, None]
        pulled += w
        return pulled

    return apply


# ---------------------------------------------------------------------------
# boundary-fixing perturbations and a deliberately broken map
# ---------------------------------------------------------------------------


def _exit_time(dirs: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Per row, the t > 0 at which center + t * dirs leaves the simplex:
    the least (1 - c_i) / v_i over the coordinates with v_i < 0, inf
    when there is none.  Taken column by column with np.minimum."""
    t = np.full(len(dirs), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for c, v in zip(center, dirs.T):
            t = np.minimum(t, np.where(v < 0, (1.0 - c) / v, np.inf))
    return t


def _radial_parameter(pts: np.ndarray, center: np.ndarray) -> np.ndarray:
    """lambda in [0,1]: 0 at the simplex center, 1 on the boundary."""
    t_star = _exit_time(pts - center, center)
    lam = np.where(np.isfinite(t_star), 1.0 / t_star, 0.0)
    return np.clip(lam, 0.0, 1.0)


def radial_perturbation(
    n: int, coefficient: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Simplex self-map fixing the boundary: radial reparametrization
    lambda -> lambda + c*lambda*(1 - lambda), a bijection for |c| < 1."""
    check_int(n, "n")
    if not -1.0 < check_real(coefficient, "coefficient", positive=False) < 1.0:
        raise InputError("radial coefficient must be in (-1, 1)")
    m = plane_total(n)
    center = np.full(n + 1, m / (n + 1))

    def apply(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        lam = _radial_parameter(pts, center)
        scale = 1.0 + coefficient * (1.0 - lam)
        return center + scale[:, None] * (pts - center)

    return apply


def twist_perturbation(n: int, angle: float) -> Callable[[np.ndarray], np.ndarray]:
    """Boundary-fixing twist of the 2-simplex: rotate the direction from
    the center by angle*(1 - lambda) at constant radial parameter."""
    check_real(angle, "angle", positive=False)
    if check_int(n, "n") != 2:
        raise InputError("twist perturbation is implemented for n = 2 only")
    m = plane_total(n)
    center = np.full(3, m / 3.0)
    basis = _hyperplane_basis(n)  # (2, 3)

    def apply(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        v = pts - center
        lam = _radial_parameter(pts, center)
        uv = v @ basis.T  # in-plane coordinates
        theta = angle * (1.0 - lam)
        cos, sin = np.cos(theta), np.sin(theta)
        rotated = np.stack(
            [cos * uv[:, 0] - sin * uv[:, 1], sin * uv[:, 0] + cos * uv[:, 1]],
            axis=1,
        )
        new_dir = rotated @ basis
        out = np.tile(center, (len(pts), 1))
        # the bits of np.linalg.norm(new_dir, axis=1), summed by columns
        length = np.sqrt(_row_sums(new_dir * new_dir))
        nz = length > TWIST_FLOOR
        unit = new_dir[nz] / length[nz, None]
        # keep the radial parameter, swap in the rotated direction
        out[nz] = center + (lam[nz] * _exit_time(unit, center))[:, None] * unit
        return out

    return apply


def shrink_map(n: int, factor: float) -> Callable[[np.ndarray], np.ndarray]:
    """Pull everything toward the simplex center: breaks the face
    condition and leaves a neighborhood of the boundary uncovered."""
    check_int(n, "n")
    check_real(factor, "factor", positive=False)
    m = plane_total(n)
    center = np.full(n + 1, m / (n + 1))

    def apply(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return center + factor * (pts - center)

    return apply


def _hyperplane_basis(n: int) -> np.ndarray:
    """Orthonormal basis (rows) of {v : sum v = 0} in R^{n+1}."""
    ones = np.ones((1, n + 1))
    _, _, vt = np.linalg.svd(ones)
    return vt[1:]


# ---------------------------------------------------------------------------
# piecewise-linear surjectivity certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceViolation:
    chain: NestedSequence
    point: tuple[float, ...]
    image: tuple[float, ...]


@dataclass(frozen=True)
class CoverageReport:
    """What check_face_mapping_surjectivity found for a map f.

    A passing check maps only the boundary vertices of the mesh of P and
    the face samples, a failing one also the interior vertices of the
    whole mesh (check_face_mapping_surjectivity), and the fields read:

    ok: no face violation, and so every grid node is covered.
    grid_points: the nodes of the simplex grid at spacing grid_step,
        counted when passing, built when failing.
    covered: the nodes shown to lie in the image.  Passing: every node,
        in the image of every continuous map with f's boundary values
        up to max_gap.  Failing: the nodes located in an image simplex
        of the PL interpolant of f on the whole mesh.
    uncovered_witness: passing, None; failing, the first uncovered node
        in grid order, or None when every node was located.
    max_gap: an upper bound on the largest distance from a grid node to
        the image.  Passing: the width of the boundary band, widened by
        the boundary images' float drift off the plane.  Failing: the
        located nodes' bound, from the drift of every mesh image, raised
        to each uncovered node's distance to the nearest image of a
        boundary vertex of the mesh.
    face_violations: for each face, in all_faces order, the first
        checked point, sample or boundary vertex, whose image leaves the
        face's target by more than FACE_TOL; empty when passing.
    samples_used: the mesh vertices mapped through f: the boundary
        vertices when passing, every vertex of the whole mesh when
        failing.  The face samples are not counted.
    mesh_step: the longest edge of the boundary mesh when passing (0.0
        at n = 1, whose boundary is two points), of the whole mesh when
        failing.
    image_edge: the longest image of an edge of that mesh, 0.0 at n = 1
        when passing.  The PL interpolant stands for f only as closely
        as f varies along an edge.
    """

    ok: bool
    grid_points: int
    covered: int
    uncovered_witness: tuple[float, ...] | None
    max_gap: float
    face_violations: tuple[FaceViolation, ...]
    samples_used: int
    mesh_step: float
    image_edge: float

    def __str__(self):
        lines = [
            f"mesh step {self.mesh_step:.3g}, largest image edge {self.image_edge:.3g}",
            f"grid nodes {self.grid_points}, covered {self.covered},"
            f" max gap {self.max_gap:.3g}",
        ]
        if self.uncovered_witness is not None:
            lines.append(f"uncovered witness: {self.uncovered_witness}")
        for v in self.face_violations[:5]:
            lines.append(f"face condition broken on {v.chain}: {v.point} -> {v.image}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


@functools.cache
def _faces(n: int) -> tuple[tuple[NestedSequence, ...], tuple[np.ndarray, ...], np.ndarray]:
    """all_faces(n), the vertices of each face as a read-only float
    array (vertices, n+1), and the coordinates each face pins to 1, those
    of its chain's largest subset, as a read-only bool array (faces,
    n+1)."""
    realization = realize(n)
    faces = tuple(all_faces(n))
    vertices = tuple(np.array(realization.vertices_of_face(ns), dtype=float) for ns in faces)
    pins = np.zeros((len(faces), n + 1), dtype=bool)
    for i, ns in enumerate(faces):
        pins[i, [j - 1 for j in ns.chain[-1]]] = True
    for array in (*vertices, pins):
        array.flags.writeable = False
    return faces, vertices, pins


@functools.cache
def _face_rows(n: int) -> tuple[int, np.ndarray, tuple[tuple[np.ndarray, ...], ...]]:
    """The layout of the rows _face_samples returns: face by face in
    all_faces(n) order, FACE_SAMPLES samples, then the face's vertices.

    Returns the number of Gamma variates drawn, the owning face of each
    row, and for each vertex count m the faces of m vertices as four
    read-only arrays: the places in the draw of their (FACE_SAMPLES, m)
    weights, face i's being the draw's i-th block of FACE_SAMPLES * m
    variates read row by row, their vertices (faces, m, n+1), and the
    rows of their samples (faces, FACE_SAMPLES) and of their vertices
    (faces, m).
    """
    _, vertices, _ = _faces(n)
    sizes = np.array([len(fv) for fv in vertices])
    first = np.cumsum(FACE_SAMPLES + sizes) - (FACE_SAMPLES + sizes)  # each face's first row
    first_draw = FACE_SAMPLES * (np.cumsum(sizes) - sizes)  # and its first variate
    owners = np.repeat(np.arange(len(sizes)), FACE_SAMPLES + sizes)
    groups = []
    for m in np.unique(sizes):
        ids = np.flatnonzero(sizes == m)
        groups.append((
            first_draw[ids, None, None] + np.arange(FACE_SAMPLES * m).reshape(FACE_SAMPLES, m),
            np.stack([vertices[i] for i in ids]),
            first[ids, None] + np.arange(FACE_SAMPLES),
            first[ids, None] + FACE_SAMPLES + np.arange(m),
        ))
    for array in (owners, *itertools.chain(*groups)):
        array.flags.writeable = False
    return FACE_SAMPLES * int(sizes.sum()), owners, tuple(groups)


def _face_samples(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """FACE_SAMPLES seeded points of each face of P_n, uniform in its
    vertices' barycentric coordinates, then the face's vertices, face by
    face, and the owning face of each row.

    One Gamma(1) draw for all faces, split into a (FACE_SAMPLES, m)
    block of weights per face of m vertices, each row scaled by 1 over
    its sum, taken column by column, and mapped through the face's
    vertices: the same points, bit for bit, as a Dirichlet(1, ..., 1)
    draw of FACE_SAMPLES rows per face from default_rng(seed), which
    draws these variates in this order and scales them so.  Faces with
    as many vertices are weighted and mapped in one stacked product
    (_face_rows), which numpy computes face by face as the per-face
    product.
    """
    draws, owners, groups = _face_rows(n)
    gamma = np.random.default_rng(seed).standard_gamma(1.0, size=draws)
    rows = np.empty((len(owners), n + 1))
    for places, vertices, sample_rows, vertex_rows in groups:
        bary = gamma[places]
        bary *= (1.0 / _row_sums(bary))[..., None]
        rows[sample_rows] = bary @ vertices
        rows[vertex_rows] = vertices
    return rows, owners


@functools.cache
def _flags(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The maximal flags F_0 < F_1 < ... < F_{n-1} < P of faces of P_n,
    F_j of dimension j.

    Returns twice the barycentre of each face of each flag, an integer
    array (flags, n+1, n+1) whose row j is F_j and row n the centre of
    P, and the index of each F_j in all_faces(n), (flags, n).  A flag is
    a vertex, written as a maximal chain, and an order in which to drop
    the chain's subsets: F_j keeps all but the first j of them.  A face
    is a product of smaller permutahedra, so its barycentre is
    half-integral.
    """
    faces, vertices, _ = _faces(n)
    index = {ns.chain: i for i, ns in enumerate(faces)}
    twice = {ns.chain: 2 * fv.sum(axis=0) / len(fv) for ns, fv in zip(faces, vertices)}
    bary, ids = [], []
    for top in enumerate_faces(n, n):
        for order in itertools.permutations(range(n)):
            chains = [
                tuple(s for i, s in enumerate(top.chain) if i not in order[:j])
                for j in range(n)
            ]
            bary.append([twice[c] for c in chains] + [[n + 2] * (n + 1)])
            ids.append([index[c] for c in chains])
    return np.array(bary, dtype=np.int64), np.array(ids, dtype=np.int64)


def _orthoscheme(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Freudenthal's subdivision of the orthoscheme k >= x_1 >= ... >=
    x_n >= 0 into k**n simplices (Edelsbrunner-Grayson's edgewise
    subdivision).

    Returns the weights of its lattice points on the corners, integers
    summing to k (weight j is x_j - x_{j+1}, with x_0 = k and
    x_{n+1} = 0; corner j has its first j coordinates k), the pieces as
    rows of point indices, and the edges of the pieces as pairs of point
    indices, each once.  The pieces are the cube simplices a, a +
    e_p(1), a + e_p(1) + e_p(2), ... (a in {0..k-1}^n, p a permutation)
    whose points all lie in the orthoscheme.  At n = 0 it is one point,
    one piece and no edge.
    """
    if n == 0:
        return np.array([[k]]), np.zeros((1, 1), dtype=np.int64), np.zeros((0, 2), dtype=np.int64)
    pts = np.indices((k + 1,) * n).reshape(n, -1).T
    pts = pts[(pts[:, :-1] >= pts[:, 1:]).all(axis=1)]
    lookup = np.zeros((k + 1,) * n, dtype=np.int64)
    lookup[tuple(pts.T)] = np.arange(len(pts))
    corners = np.indices((k,) * n).reshape(n, -1).T
    pieces = []
    for perm in itertools.permutations(range(n)):
        walk = [corners]
        for axis in perm:
            walk.append(walk[-1].copy())
            walk[-1][:, axis] += 1
        walk = np.stack(walk, axis=1)  # (cubes, n+1, n)
        walk = walk[(walk[:, :, :-1] >= walk[:, :, 1:]).all(axis=(1, 2))]
        pieces.append(lookup[tuple(np.moveaxis(walk, 2, 0))])
    pieces = np.concatenate(pieces)
    pairs = [pieces[:, [a, b]] for a, b in itertools.combinations(range(n + 1), 2)]
    pairs = np.sort(np.concatenate(pairs), axis=1) @ [len(pts), 1]  # one key per edge
    edges = np.stack(np.divmod(np.unique(pairs), len(pts)), axis=1)
    ends = np.concatenate([np.full((len(pts), 1), k), pts, np.zeros((len(pts), 1), int)], axis=1)
    return -np.diff(ends, axis=1), pieces, edges


@dataclass(frozen=True)
class _Mesh:
    """A triangulation of P_n, or of its boundary: the barycentric
    subdivision over its maximal flags, each flag simplex refined by
    _orthoscheme.  Every simplex on the boundary of P lies in one facet.

    The mesh is kept factored, as its flags times one reference
    subdivision: simplex j of flag i has the vertices inverse[i,
    pieces[j]].  One mesh serves every check at its n and k (_mesh), so
    its arrays are read-only.  simplices and edges expand the factors
    for reading; the check itself walks the flags a block at a time
    (_flag_blocks), takes a per-vertex value to the block's reference
    points once, and reduces it over each piece's corners or each
    edge's two ends (_over_corners), gathering float corners only for
    the simplices whose image boxes hold a grid node (_corners).
    """

    points: np.ndarray  # (vertices, n+1)
    face: np.ndarray  # (vertices,) index in all_faces(n) of the least face holding it, -1 inside
    inverse: np.ndarray  # (flags, reference points) the mesh vertex of each reference point
    pieces: np.ndarray  # (pieces, dimension+1) reference point indices
    reference_edges: np.ndarray  # (reference edges, 2) reference point indices, each edge once
    step: float  # the longest edge, 0.0 when there is none

    @property
    def simplices(self) -> np.ndarray:
        """(simplices, dimension+1) vertex indices, flag by flag."""
        return self.inverse[:, self.pieces].reshape(-1, self.pieces.shape[1])

    @property
    def edges(self) -> np.ndarray:
        """(edges, 2) vertex indices, each edge once per flag holding it."""
        return self.inverse[:, self.reference_edges].reshape(-1, 2)


def _mesh(n: int, step: float, boundary: bool = False) -> _Mesh:
    """The mesh of P_n whose edges are at most step long, or with
    boundary its part on the boundary of P (_mesh_of).

    An edge of a piece of flag simplex is a sum of the flag's axes
    b_j - b_{j-1} over a set of j, divided by k; k is the least that
    brings the longest such sum under step, and the boundary mesh is cut
    at the same k.  A mesh above MAX_MESH_SIMPLICES simplices raises
    ResourceError before anything is built.  The mesh depends on n, k
    and boundary only: every step that gives the same k gets the same
    read-only mesh from _mesh_of.
    """
    bary, _ = _flags(n)
    axes = np.diff(bary, axis=1) / 2.0  # (flags, n, n+1)
    sums = np.array(list(itertools.product((0, 1), repeat=n))[1:]) @ axes
    k = max(1, math.ceil(np.linalg.norm(sums, axis=-1).max() / step))
    size = len(bary) * k ** (n - boundary)
    if size > MAX_MESH_SIMPLICES:
        raise ResourceError(
            f"mesh step {step} needs {size} simplices (limit {MAX_MESH_SIMPLICES})"
        )
    return _mesh_of(n, k, boundary)


@functools.lru_cache(maxsize=8)
def _mesh_of(n: int, k: int, boundary: bool = False) -> _Mesh:
    """The mesh of P_n with each flag simplex cut into k**n pieces, or
    with boundary its part on the boundary of P, built once and kept
    among the last 8 built.

    One reference subdivision serves every flag: its points are the
    weights times the barycentres, in integers (2k times the point), and
    points shared by flags are merged on those integers.  A flag
    simplex meets the boundary of P in its facet opposite the centre of
    P, so the boundary mesh is the same flags without the centre, cut by
    _orthoscheme(n - 1, k): (n+1)! n! k**(n-1) simplices, and the whole
    mesh's vertices on the boundary, in the same order, with the same
    least faces.  At n = 1 the boundary is two points, with no edge.
    """
    bary, ids = _flags(n)
    if boundary:
        bary = bary[:, :n]
    weights, pieces, edges = _orthoscheme(bary.shape[1] - 1, k)
    lattice = weights @ bary  # (flags, points, n+1), each point times 2k
    radix = 2 * k * (n + 1) + 1  # coordinates lie in [2k, 2k(n+1)]
    keys = (lattice[:, :, :n] * radix ** np.arange(n)).sum(axis=2).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # the least face holding a point: the last corner it weighs
    last = weights.shape[1] - 1 - np.argmax(weights[:, ::-1] > 0, axis=1)
    faces = np.concatenate([ids, np.full((len(ids), 1), -1)], axis=1)[:, last]
    # every edge is one of a few weight differences, each entry -1, 0 or
    # 1, mapped by its flag
    moves = weights[edges[:, 0]] - weights[edges[:, 1]]
    _, kinds = np.unique((moves + 1) @ 3 ** np.arange(moves.shape[1]), return_index=True)
    mesh = _Mesh(
        points=lattice.reshape(-1, n + 1)[first] / (2.0 * k),
        face=faces.ravel()[first],
        inverse=inverse.reshape(len(bary), -1),
        pieces=pieces,
        reference_edges=edges,
        step=float(np.linalg.norm(moves[kinds] @ bary, axis=-1).max(initial=0.0)) / (2 * k),
    )
    for field in fields(mesh):
        value = getattr(mesh, field.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return mesh


def _image(f: Callable[[np.ndarray], np.ndarray], pts: np.ndarray) -> np.ndarray:
    """f(pts) as a float array, checked to hold one finite row per point.

    A wrong shape raises InputError naming it; a NaN or infinite
    coordinate raises NumericalDomainError naming the first bad row.
    Either would otherwise be broadcast, or compare false against every
    tolerance, and read as a plausible report.
    """
    image = np.asarray(f(pts), dtype=float)
    if image.shape != pts.shape:
        raise InputError(
            f"map returned an array of shape {image.shape} for a block of shape {pts.shape}"
        )
    finite = np.isfinite(image)
    if not finite.all():  # one flat pass: a per-row all() costs 20 times more
        i = int(np.argmin(finite.all(axis=1)))
        raise NumericalDomainError(
            f"map sent {tuple(pts[i].tolist())} to the non-finite {tuple(image[i].tolist())}"
        )
    return image


def _map_rows(f: Callable[[np.ndarray], np.ndarray], pts: np.ndarray) -> np.ndarray:
    """f applied to pts in row blocks of at most SLAB_ROWS rows.

    The blocks are of near-equal size, so none is a lone row when pts
    has two or more, and a single row is mapped as a block of two copies
    of itself: numpy multiplies a single row by a matrix through another
    routine than a block, and its last bits can differ.  Each block's
    image is checked by _image.
    """
    if len(pts) == 1:
        return _image(f, np.repeat(pts, 2, axis=0))[:1]
    blocks = np.array_split(pts, max(1, -(-len(pts) // SLAB_ROWS)))
    return np.concatenate([_image(f, block) for block in blocks])


def _grid_divisions(n: int, step: float) -> int:
    """The k for which the simplex grid at spacing step has k steps along
    each edge; it has math.comb(k + n, n) nodes.  A step that does not
    divide the edge raises InputError, a grid whose box (k+1)**n is above
    MAX_GRID_POINTS ResourceError."""
    m = plane_total(n)
    k_total = (m - (n + 1)) / step
    k = int(round(k_total))
    if abs(k - k_total) > GRID_SLACK:
        raise InputError(f"grid step {step} must divide {m - (n + 1)} evenly")
    if (k + 1) ** n > MAX_GRID_POINTS:
        raise ResourceError("grid too fine for this dimension")
    return k


def _simplex_lattice(n: int, k: int) -> np.ndarray:
    """The nodes of the simplex grid with k steps along each edge, as the
    integer points (k_0, ..., k_{n-1}) with sum at most k, in meshgrid
    order: node i is 1 + step * (k_0, ..., k_{n-1}, k - sum).  Only a
    check that locates nodes builds it."""
    ks = np.indices((k + 1,) * n).reshape(n, -1).T
    return ks[_row_sums(ks) <= k]


def _flag_blocks(mesh: _Mesh, reference: np.ndarray):
    """Pairs of slices, of the flags and of the reference rows (pieces or
    edges), that walk the whole mesh with at most SLAB_ROWS simplices or
    edges at a time: whole flags while one holds fewer than SLAB_ROWS
    rows, otherwise one flag in runs of SLAB_ROWS rows."""
    per_block = SLAB_ROWS // max(1, len(reference))
    if per_block:
        for start in range(0, len(mesh.inverse), per_block):
            yield slice(start, start + per_block), slice(None)
        return
    for flag in range(len(mesh.inverse)):
        for start in range(0, len(reference), SLAB_ROWS):
            yield slice(flag, flag + 1), slice(start, start + SLAB_ROWS)


def _over_corners(
    values: np.ndarray, inverse: np.ndarray, reference: np.ndarray, reduce: np.ufunc
) -> np.ndarray:
    """reduce (a binary ufunc), left to right, over the corners of each
    of the given reference rows (pieces or edges) in the given flags
    (their rows of _Mesh.inverse), of values given per mesh vertex:
    (rows, flags, ...), row by row and flag by flag within a row."""
    # np.take, not fancy indexing: on these small rows it is several times faster
    per_point = np.take(values, inverse.T, axis=0)  # (reference points, flags, ...)
    out = np.take(per_point, reference[:, 0], axis=0)
    for column in reference.T[1:]:
        reduce(out, np.take(per_point, column, axis=0), out=out)
    return out


def _corners(
    columns: np.ndarray, inverse: np.ndarray, pieces: np.ndarray, picked: np.ndarray
) -> np.ndarray:
    """The corners of the picked simplices, given by their places in
    _over_corners's order, in column form (n, n+1, s): coordinate i of
    corner c of simplex t is [i, c, t], gathered from the chart's
    columns (n, vertices)."""
    piece, flag = np.divmod(picked, len(inverse))
    vertices = inverse[flag, pieces[piece].T]  # (n+1, s)
    return np.take(columns, vertices, axis=1)


def _longest_edge(points: np.ndarray, mesh: _Mesh) -> float:
    """The longest of the mesh's edges with the given end points, 0.0
    when it has none."""
    longest = 0.0
    for flags, rows in _flag_blocks(mesh, mesh.reference_edges):
        ends = mesh.reference_edges[rows]
        d = _over_corners(points, mesh.inverse[flags], ends, np.subtract)
        d = d.reshape(-1, points.shape[1])
        longest = max(longest, float(np.einsum("ij,ij->i", d, d).max(initial=0.0)))
    return math.sqrt(longest)


def _minor(a: np.ndarray, rows: tuple[int, ...], cols: tuple[int, ...]) -> np.ndarray:
    """The determinants of the square submatrices on the given rows and
    columns of matrices given entry by entry, a[i, j] the (i, j) entries
    of all of them: Laplace expansion down the first of the columns."""
    if len(rows) == 1:
        return a[rows[0], cols[0]]
    out = a[rows[0], cols[0]] * _minor(a, rows[1:], cols[1:])
    for place in range(1, len(rows)):
        term = a[rows[place], cols[0]] * _minor(a, rows[:place] + rows[place + 1 :], cols[1:])
        if place % 2:
            out -= term
        else:
            out += term
    return out


def _inverses(corners: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """For simplices given by their corners in column form (n, n+1, s),
    whether each is flat, and the affine maps from a grid node's lattice
    coordinates x to its barycentric coordinates 1..n in each, as rows
    (n (n+1), s): in row j (n+1) + i, i < n, the coefficient of x_i in
    coordinate j+1, and in row j (n+1) + n its constant.  A flat
    simplex's rows are finite and meaningless.

    The edge matrix A has the edge from corner 0 to corner j+1 as column
    j.  Its determinant and cofactors are taken in closed form, by
    Laplace expansion on whole columns of entries (_minor), and A^-1 is
    adj A / det A; the cofactor of a 1 x 1 matrix is 1.  A simplex is
    flat when |det A| is at most DEGENERATE times the product of its
    edge lengths.  The node at x is 1 + step x, so its coordinates 1..n
    are (step adj A / det A) x + (adj A / det A) (1 - corner 0).
    """
    n = len(corners)
    a = corners[:, 1:] - corners[:, :1]  # a[i, j]: coordinate i of edge j
    lengths = functools.reduce(np.multiply, np.sqrt(functools.reduce(np.add, a * a)))
    cofactors = np.ones((n, n, a.shape[2]))
    if n > 1:
        for i, j in itertools.product(range(n), repeat=2):
            others = tuple(r for r in range(n) if r != i), tuple(c for c in range(n) if c != j)
            cofactors[i, j] = _minor(a, *others)
            if (i + j) % 2:
                np.negative(cofactors[i, j], out=cofactors[i, j])
    det = functools.reduce(np.add, a[:, 0] * cofactors[:, 0])  # down column 0
    flat = np.abs(det) <= DEGENERATE * lengths
    np.copyto(det, 1.0, where=flat)  # no division by a zero determinant
    origin = 1.0 - corners[:, 0]
    # row by row over the simplices: a temporary of the whole table
    # costs more here than the arithmetic
    out = np.empty((n, n + 1, a.shape[2]))
    for j in range(n):
        for i in range(n):
            entry = np.divide(cofactors[i, j], det, out=cofactors[i, j])  # (j, i) of A^-1
            np.multiply(entry, step, out=out[j, i])
            if i:
                out[j, n] += entry * origin[i]
            else:
                np.multiply(entry, origin[i], out=out[j, n])
    return flat, out.reshape(n * (n + 1), -1)


def _inside(coefficients: np.ndarray, owner: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Whether each node, given by its lattice coordinates in column form
    (n, m), lies in the simplex owner names, up to LOCATE_TOL in every
    barycentric coordinate: coordinates 1..n from the owner's rows of
    _inverses's coefficients, gathered once, coordinate 0 as 1 less
    their sum."""
    n = len(nodes)
    rows = np.take(coefficients, owner, axis=1).reshape(n, n + 1, -1)
    lam = rows[:, n]  # (n, m): the constants, then each coordinate, in place
    for i in range(n):
        lam += np.multiply(rows[:, i], nodes[i], out=rows[:, i])
    least = functools.reduce(np.minimum, lam)
    np.minimum(least, 1.0 - functools.reduce(np.add, lam), out=least)
    return least >= -LOCATE_TOL


def _locate(chart: np.ndarray, mesh: _Mesh, k: int, lattice: np.ndarray, step: float) -> np.ndarray:
    """Which nodes of the simplex grid lie in an image simplex that is not
    flat, up to LOCATE_TOL in barycentric coordinates.

    A bucket join on the node lattice: each image simplex is tested
    against the nodes in its bounding box only.  The boxes come first,
    in integers, from each vertex image's least and greatest node
    coordinates; only a simplex whose box holds a node is gathered as
    floats and inverted, once, in closed form (_inverses), which gives
    its barycentric coordinates as affine functions of a node's lattice
    coordinates.  Its (simplex, box node) pairs are then tested in runs
    of at most SLAB_ROWS, each pair a few multiply-adds per coordinate
    (_inside), and a node inside is marked by its mixed-radix index in
    the cube of (k+1)**n lattice points that holds the grid.
    """
    n = chart.shape[1]
    radix = (k + 1) ** np.arange(n - 1, -1, -1)
    hit = np.zeros((k + 1) ** n, dtype=bool)
    # ceil, floor and clip are monotone, so a simplex's box is its
    # corners' least low and greatest high
    scaled = (chart - 1.0) / step  # lattice coordinates
    low = np.clip(np.ceil(scaled - BOX_SLACK), 0, k).astype(np.int64)
    high = np.clip(np.floor(scaled + BOX_SLACK), -1, k).astype(np.int64)
    columns = np.ascontiguousarray(chart.T)
    for flags, rows in _flag_blocks(mesh, mesh.pieces):
        inverse, pieces = mesh.inverse[flags], mesh.pieces[rows]
        lo = _over_corners(low, inverse, pieces, np.minimum).reshape(-1, n)
        hi = _over_corners(high, inverse, pieces, np.maximum).reshape(-1, n)
        # a box holds a node when it is not empty and its least node lies in the grid
        fits = _row_sums(lo) <= k
        for low_d, high_d in zip(lo.T, hi.T):
            fits &= high_d >= low_d
        picked = np.flatnonzero(fits)
        flat, coefficients = _inverses(_corners(columns, inverse, pieces, picked), step)
        lo = np.take(lo.T, picked, axis=1)  # (n, boxed simplices), by column
        sizes = np.take(hi.T, picked, axis=1) - lo + 1
        # a flat simplex is tested against no node
        counts = np.where(flat, 0, functools.reduce(np.multiply, sizes))
        ends = np.cumsum(counts)
        starts, total = ends - counts, int(ends[-1]) if len(ends) else 0
        for start in range(0, total, SLAB_ROWS):  # (simplex, box node) pairs, in runs
            stop = min(start + SLAB_ROWS, total)
            first, last = np.searchsorted(ends, (start, stop - 1), side="right")
            held = np.minimum(ends[first : last + 1], stop)
            held -= np.maximum(starts[first : last + 1], start)
            owner = np.repeat(np.arange(first, last + 1), held)
            rank = np.arange(start, stop) - np.take(starts, owner)
            nodes = np.empty((n, stop - start), dtype=np.int64)
            for d in range(n - 1, 0, -1):
                rank, nodes[d] = np.divmod(rank, np.take(sizes[d], owner))
                nodes[d] += np.take(lo[d], owner)
            nodes[0] = rank + np.take(lo[0], owner)
            # a box node past the grid's far face (sum above k) is marked
            # and never read: dropping it first costs more than testing it
            inside = _inside(coefficients, owner, nodes.astype(float))
            hit[radix @ nodes[:, inside]] = True
    return hit[lattice @ radix]


def _on_plane(
    f: Callable[[np.ndarray], np.ndarray], points: np.ndarray, total: int
) -> tuple[np.ndarray, np.ndarray]:
    """f(points), mapped by _map_rows, and each image's coordinate sum
    less total.  The image farthest off the simplex's plane, when it is
    off by more than FACE_TOL, raises NumericalDomainError naming it."""
    images = _map_rows(f, points)
    excess = _row_sums(images) - total
    drift = np.abs(excess)
    if drift.max() > FACE_TOL:
        i = int(np.argmax(drift))
        raise NumericalDomainError(
            f"map sent {tuple(points[i].tolist())} to {tuple(images[i].tolist())},"
            f" off the simplex's plane by a coordinate sum of {drift[i]:.3g}"
        )
    return images, excess


def check_face_mapping_surjectivity(
    f: Callable[[np.ndarray], np.ndarray],
    n: int,
    grid_step: float,
    seed: int = 0,
) -> CoverageReport:
    """Piecewise-linear surjectivity certificate for a map f of the
    permutahedron P_n onto the simplex, n <= 3.

    f must accept a (k, n+1) array of points, k >= 2, and return their
    (k, n+1) images, acting row by row; a wrong shape raises InputError,
    and a non-finite image or one off the simplex's plane
    NumericalDomainError.  An error raised by f reaches the caller
    unchanged.

    What is mapped.  P is triangulated with edges at most grid_step
    (_mesh), and a check first maps only the vertices of that mesh on
    the boundary of P, taken from the boundary mesh (_mesh with
    boundary: the same triangulation restricted to the boundary, the
    same vertices in the same order), then FACE_SAMPLES points drawn
    from each face with the given seed plus the face's vertices.  The
    samples are one Gamma(1) draw of default_rng(seed), split per face
    into barycentric weights (_face_samples): the same points as a
    Dirichlet(1, ..., 1) draw per face from that generator.  Each mesh
    depends only on n and on the number of cuts of each flag simplex
    that grid_step asks for: it is built once for that pair, kept
    read-only among the last 8 built, and shared by every check that
    asks for it, so no report depends on the checks before it.  Every
    image is checked to be finite, of the right shape and on the
    simplex's plane within FACE_TOL; then the face condition is checked
    at the samples and at every boundary vertex, against its least face:
    the coordinates of the face's chain's largest subset must map to 1
    within FACE_TOL.

    Why the face condition certifies: the polytopal Sperner and KKM
    lemma (De Loera, Peterson and Su, J. Combin. Theory Ser. A 100,
    2002).  Let g and h map P_n into the simplex's plane so that each
    boundary point x goes where every coordinate that x's least face
    pins is 1.  Then so does every (1 - t) g + t h, so no boundary point
    meets the open simplex along the way, and g and h have the same
    degree over each of its points: one integer d_n for every such map.
    d_n = 1 for n <= 3: test_collapse_has_degree_one in
    tests/test_permutahedron.py counts the oriented preimages, under the
    PL interpolant of collapse_batch, of points near the centre.  The PL
    interpolant of f on the boundary mesh respects the faces when its
    vertices do: a boundary simplex lies in one face F of P, each of its
    vertices has a least face inside F, pinning every coordinate F pins,
    and linearity carries the condition over the simplex.

    What a passing check claims.  It reads f on the boundary of P only.
    The degree over a point depends only on the boundary values, so with
    no face violation every continuous map of P_n into the simplex's
    plane whose boundary values are the PL interpolant of f's images of
    the boundary vertices is onto every point of the simplex farther
    than FACE_TOL from its boundary, widened by the boundary images'
    float drift off the plane.  Every grid node lies within that band,
    whose width is max_gap, so the nodes are only counted,
    math.comb(k + n, n) for k steps along an edge.  f's values inside P
    take no part; how far f on the boundary strays from the interpolant
    is only hinted at by image_edge.  The whole mesh, the node lattice
    and node location are never built or run.

    What a failing check reports.  With a face violation the whole mesh
    is built, its interior vertices are mapped and checked as above, and
    the report is the PL interpolant's on the whole mesh: the node
    lattice is built (_simplex_lattice) and its nodes are located in the
    image simplices that are not flat (_locate); a located node is
    covered, within 2 n LOCATE_TOL image edges, and an uncovered node's
    gap is bounded by its distance to the nearest image of a boundary
    vertex of the mesh.

    n must be a positive int, grid_step a positive finite real number,
    and seed a non-negative int, or InputError is raised.  An n above 3,
    a boundary mesh above MAX_MESH_SIMPLICES simplices or a grid above
    MAX_GRID_POINTS nodes raises ResourceError before f is called.  The
    whole mesh is budgeted only where a failing check builds it: above
    MAX_MESH_SIMPLICES simplices, ResourceError names its size, the
    limit and the first face whose condition is broken.
    """
    n = _check_n(n, 3, "coverage check")
    grid_step = float(check_real(grid_step, "grid_step"))
    check_int(seed, "seed", low=0)
    total = plane_total(n)
    k = _grid_divisions(n, grid_step)
    rim = _mesh(n, grid_step, boundary=True)

    faces, _, pins = _faces(n)
    samples, owners = _face_samples(n, seed)
    points = np.concatenate([rim.points, samples])
    images, excess = _on_plane(f, points, total)
    # the seeded samples and face vertices first, then the boundary vertices
    checked = np.concatenate([np.arange(len(rim.points), len(points)), np.arange(len(rim.points))])
    violations = _face_violations(
        faces, pins, points[checked], images[checked], np.concatenate([owners, rim.face])
    )
    rim_images, rim_excess = images[: len(rim.points)], excess[: len(rim.points)]
    if not violations:
        # the inner simplex lies in the image of every map with these
        # boundary values, and every node lies within the boundary band
        shift = float(np.abs(rim_excess / (n + 1)).max())
        return CoverageReport(
            ok=True,
            grid_points=math.comb(k + n, n),
            covered=math.comb(k + n, n),
            uncovered_witness=None,
            max_gap=(FACE_TOL + shift) * math.sqrt(n * (n + 1)) + shift * math.sqrt(n + 1),
            face_violations=(),
            samples_used=len(rim.points),
            mesh_step=rim.step,
            image_edge=_longest_edge(rim_images, rim),
        )

    try:
        mesh = _mesh(n, grid_step)
    except ResourceError as error:
        raise ResourceError(
            f"{error}, to locate grid nodes: the face condition is broken on"
            f" {violations[0].chain}"
        ) from None
    inside = mesh.face < 0
    mapped, excess = np.empty_like(mesh.points), np.empty(len(mesh.points))
    mapped[~inside], excess[~inside] = rim_images, rim_excess
    mapped[inside], excess[inside] = _on_plane(f, mesh.points[inside], total)
    shifts = excess / (n + 1)
    shift = float(np.abs(shifts).max())
    image_edge = _longest_edge(mapped, mesh)
    lattice = _simplex_lattice(n, k)
    chart = (mapped - shifts[:, None])[:, :n]  # the images moved onto the plane
    located = _locate(chart, mesh, k, lattice, grid_step)
    covered = int(located.sum())
    # barycentric coordinates no lower than -LOCATE_TOL put a node
    # within 2 n LOCATE_TOL edge lengths of its simplex
    max_gap = shift * math.sqrt(n + 1) + 2 * n * LOCATE_TOL * image_edge
    witness = None
    if covered < len(lattice):
        grid = 1.0 + grid_step * np.column_stack([lattice, k - _row_sums(lattice)])
        witness = tuple(grid[int(np.argmin(located))].tolist())
        gaps = _nearest_distance(grid[~located], np.unique(rim_images, axis=0))
        max_gap = max(max_gap, float(gaps.max()))
    return CoverageReport(
        ok=False,
        grid_points=len(lattice),
        covered=covered,
        uncovered_witness=witness,
        max_gap=max_gap,
        face_violations=violations,
        samples_used=len(mesh.points),
        mesh_step=mesh.step,
        image_edge=image_edge,
    )


def _face_violations(
    faces: tuple[NestedSequence, ...],
    pins: np.ndarray,
    points: np.ndarray,
    images: np.ndarray,
    owners: np.ndarray,
) -> tuple[FaceViolation, ...]:
    """For each face, in the order of faces, the first of the points it
    owns whose image leaves the face's target: a coordinate the face pins
    (_faces) more than FACE_TOL from 1."""
    bad = np.zeros(len(images), dtype=bool)
    for column, pinned in zip(images.T, pins.T):
        bad |= (np.abs(column - 1.0) > FACE_TOL) & pinned[owners]
    rows = np.flatnonzero(bad)
    bad_faces, first = np.unique(owners[rows], return_index=True)
    return tuple(
        FaceViolation(faces[i], tuple(points[r].tolist()), tuple(images[r].tolist()))
        for i, r in zip(bad_faces, rows[first])
    )


def _nearest_distance(nodes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each node's distance to the nearest target, a block of nodes at a
    time, from |a - b|^2 = |a|^2 - 2 a.b + |b|^2."""
    out = np.empty(len(nodes))
    square = np.einsum("ij,ij->i", targets, targets)
    rows = max(1, 2**20 // len(targets))
    for start in range(0, len(nodes), rows):
        block = nodes[start : start + rows]
        d2 = square - 2.0 * block @ targets.T
        out[start : start + rows] = d2.min(axis=1) + np.einsum("ij,ij->i", block, block)
    return np.sqrt(np.maximum(out, 0.0))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _cyclic_order(pts: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Indices that order the coplanar points pts by angle about their
    centre, turning about the unit normal of their plane."""
    u = pts - pts.mean(axis=0)
    u -= np.outer(u @ normal, normal)
    ref = u[0] / np.linalg.norm(u[0])
    return np.argsort(np.arctan2(u @ np.cross(normal, ref), u @ ref))


def export_off(n: int) -> str:
    """OFF mesh of the realization, n <= 3 (planar polygon for n = 2)."""
    realization = realize(check_int(n, "n", 2, 3))
    verts = np.array(realization.vertices, dtype=float)
    if n == 2:
        # the whole hexagon is the unique polygon
        coords = verts
        polygons = [_cyclic_order(coords, np.ones(3) / math.sqrt(3.0)).tolist()]
        edge_count = len(coords)
    else:
        coords = (verts - verts.mean(axis=0)) @ _hyperplane_basis(3).T
        vert_index = {v: i for i, v in enumerate(realization.vertices)}
        polygons = []
        for ns in enumerate_faces(n, 1):
            idx = [vert_index[v] for v in realization.vertices_of_face(ns)]
            normal = coords[idx].mean(axis=0) - coords.mean(axis=0)
            order = _cyclic_order(coords[idx], normal / np.linalg.norm(normal))
            polygons.append([idx[i] for i in order])
        edge_count = sum(len(p) for p in polygons) // 2
    lines = ["OFF", f"{len(coords)} {len(polygons)} {edge_count}"]
    for row in coords:
        lines.append(" ".join(f"{x:.12g}" for x in row))
    for poly in polygons:
        lines.append(str(len(poly)) + " " + " ".join(str(i) for i in poly))
    return "\n".join(lines) + "\n"
