"""Float half of the permutahedron: batched collapse, test maps, the
piecewise-linear coverage certificate and the OFF export.

This is the one module of the package that loads numpy; everything it
builds on (faces, the realization, the exact collapse) is the exact
``permutahedron`` module.  The certificate maps the vertices of an
integer-built mesh of P_n and runs on floats: see
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


# ---------------------------------------------------------------------------
# batched collapse
# ---------------------------------------------------------------------------


def _sorted_columns(pts: np.ndarray) -> list[np.ndarray]:
    """The columns of pts sorted within each row, smallest first.

    Odd-even transposition on whole columns: n + 1 rounds of
    np.minimum and np.maximum.  A row-wise np.sort of so few columns
    pays per-row overhead: on 32,768 rows at n = 2 (2-CPU host) its
    prefix sums took about 1.9 ms against 0.2 ms for this network, which
    made the collapse about 50% slower.
    """
    cols = [pts[:, j] for j in range(pts.shape[1])]
    for rnd in range(len(cols)):
        for j in range(rnd % 2, len(cols) - 1, 2):
            cols[j], cols[j + 1] = (
                np.minimum(cols[j], cols[j + 1]),
                np.maximum(cols[j], cols[j + 1]),
            )
    return cols


def collapse_batch(realization: PermRealization) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized float version of collapse_to_simplex for sampling: the
    same least sums, read from the prefix sums of the sorted columns."""
    n1 = realization.n + 1
    eps = float(DAMPING_SLACK)
    m = float(realization.total)

    def apply(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        low = [0.0, *itertools.accumulate(_sorted_columns(pts)[:-1])]  # low[k] = c_k
        g = pts - 1.0  # k = 1: the least single coordinate holding y_i is y_i
        for k in range(2, n1):
            least = np.maximum(low[k][:, None], pts + low[k - 1][:, None])
            g = np.minimum(g, least - subset_level(k))
        w = np.clip(g / eps, 0.0, 1.0)
        pulled = 1.0 + (pts - 1.0) * w
        spare = m - pulled.sum(axis=1)
        wsum = w.sum(axis=1)
        return pulled + (spare / wsum)[:, None] * w

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
        nz = np.linalg.norm(new_dir, axis=1) > 1e-14
        unit = new_dir[nz] / np.linalg.norm(new_dir[nz], axis=1, keepdims=True)
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

    ok: no face violation, and so every grid node is covered.
    grid_points: the nodes of the simplex grid at spacing grid_step.
    covered: the nodes shown to lie in the PL image, the image of the
        piecewise-linear interpolant of f on the mesh, up to max_gap:
        every node when the face condition holds, otherwise the nodes
        located in an image simplex.
    uncovered_witness: the first uncovered node in grid order, or None.
    max_gap: an upper bound on the largest distance from a grid node to
        the PL image: the width of the boundary band when the face
        condition holds, otherwise the located nodes' bound, raised to
        each uncovered node's distance to the nearest image of a
        boundary vertex of the mesh.
    face_violations: for each face, in all_faces order, the first
        checked point whose image leaves the face's target by more than
        FACE_TOL.
    samples_used: the mesh vertices mapped through f.
    mesh_step: the longest edge of the mesh of P.
    image_edge: the longest image of a mesh edge.  The PL image stands
        for the image of f only as closely as f varies along an edge.
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
    whose points all lie in the orthoscheme.
    """
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
    """A triangulation of P_n: the barycentric subdivision over its
    maximal flags, each flag simplex refined by _orthoscheme.  Every
    simplex on the boundary of P lies in one facet.

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
    pieces: np.ndarray  # (pieces, n+1) reference point indices
    reference_edges: np.ndarray  # (reference edges, 2) reference point indices, each edge once
    step: float  # the longest edge

    @property
    def simplices(self) -> np.ndarray:
        """(simplices, n+1) vertex indices, flag by flag."""
        return self.inverse[:, self.pieces].reshape(-1, self.pieces.shape[1])

    @property
    def edges(self) -> np.ndarray:
        """(edges, 2) vertex indices, each edge once per flag holding it."""
        return self.inverse[:, self.reference_edges].reshape(-1, 2)


def _mesh(n: int, step: float) -> _Mesh:
    """The mesh of P_n whose edges are at most step long.

    An edge of a piece of flag simplex is a sum of the flag's axes
    b_j - b_{j-1} over a set of j, divided by k; k is the least that
    brings the longest such sum under step.  A mesh above
    MAX_MESH_SIMPLICES simplices raises ResourceError before anything is
    built.  The mesh depends on n and k only: every step that gives the
    same k gets the same read-only mesh from _mesh_of.
    """
    bary, _ = _flags(n)
    axes = np.diff(bary, axis=1) / 2.0  # (flags, n, n+1)
    sums = np.array(list(itertools.product((0, 1), repeat=n))[1:]) @ axes
    k = max(1, math.ceil(np.linalg.norm(sums, axis=-1).max() / step))
    size = len(bary) * k**n
    if size > MAX_MESH_SIMPLICES:
        raise ResourceError(
            f"mesh step {step} needs {size} simplices (limit {MAX_MESH_SIMPLICES})"
        )
    return _mesh_of(n, k)


@functools.lru_cache(maxsize=8)
def _mesh_of(n: int, k: int) -> _Mesh:
    """The mesh of P_n with each flag simplex cut into k**n pieces, built
    once and kept among the last 8 built.

    One reference subdivision serves every flag: its points are the
    weights times the barycentres, in integers (2k times the point), and
    points shared by flags are merged on those integers.
    """
    bary, ids = _flags(n)
    weights, pieces, edges = _orthoscheme(n, k)
    lattice = weights @ bary  # (flags, points, n+1), each point times 2k
    radix = 2 * k * (n + 1) + 1  # coordinates lie in [2k, 2k(n+1)]
    keys = (lattice[:, :, :n] * radix ** np.arange(n)).sum(axis=2).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # the least face holding a point: the last corner it weighs
    last = n - np.argmax(weights[:, ::-1] > 0, axis=1)
    faces = np.concatenate([ids, np.full((len(ids), 1), -1)], axis=1)[:, last]
    # every edge is one of a few weight differences, each entry -1, 0 or
    # 1, mapped by its flag
    moves = weights[edges[:, 0]] - weights[edges[:, 1]]
    _, kinds = np.unique((moves + 1) @ 3 ** np.arange(n + 1), return_index=True)
    mesh = _Mesh(
        points=lattice.reshape(-1, n + 1)[first] / (2.0 * k),
        face=faces.ravel()[first],
        inverse=inverse.reshape(len(bary), -1),
        pieces=pieces,
        reference_edges=edges,
        step=float(np.linalg.norm(moves[kinds] @ bary, axis=-1).max()) / (2 * k),
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


def _simplex_lattice(n: int, step: float) -> tuple[int, np.ndarray]:
    """The simplex grid at spacing step as k and the integer points
    (k_0, ..., k_{n-1}) with sum at most k, in meshgrid order: node i is
    1 + step * (k_0, ..., k_{n-1}, k - sum)."""
    m = plane_total(n)
    k_total = (m - (n + 1)) / step
    k = int(round(k_total))
    if abs(k - k_total) > 1e-9:
        raise InputError(f"grid step {step} must divide {m - (n + 1)} evenly")
    if (k + 1) ** n > MAX_GRID_POINTS:
        raise ResourceError("grid too fine for this dimension")
    ks = np.indices((k + 1,) * n).reshape(n, -1).T
    return k, ks[ks.sum(axis=1) <= k]


def _flag_blocks(mesh: _Mesh, reference: np.ndarray):
    """Pairs of slices, of the flags and of the reference rows (pieces or
    edges), that walk the whole mesh with at most SLAB_ROWS simplices or
    edges at a time: whole flags while one holds fewer than SLAB_ROWS
    rows, otherwise one flag in runs of SLAB_ROWS rows."""
    per_block = SLAB_ROWS // len(reference)
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
    chart: np.ndarray, inverse: np.ndarray, pieces: np.ndarray, picked: np.ndarray
) -> np.ndarray:
    """The corners (n+1, s, n) of the picked simplices, given by their
    places in _over_corners's order."""
    piece, flag = np.divmod(picked, len(inverse))
    vertices = inverse[flag, pieces[piece].T]  # (n+1, s)
    return np.take(chart, vertices, axis=0)


def _longest_edge(points: np.ndarray, mesh: _Mesh) -> float:
    longest = 0.0
    for flags, rows in _flag_blocks(mesh, mesh.reference_edges):
        ends = mesh.reference_edges[rows]
        d = _over_corners(points, mesh.inverse[flags], ends, np.subtract)
        d = d.reshape(-1, points.shape[1])
        longest = max(longest, float(np.einsum("ij,ij->i", d, d).max()))
    return math.sqrt(longest)


def _edges(corners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For simplices given by their corners (n+1, s, n), the edges from
    corner 0 as rows (s, n, n) and whether each simplex is flat: |det|
    at most DEGENERATE times the product of the edge lengths."""
    edges = np.moveaxis(corners[1:] - corners[0], 0, 1)
    det = np.linalg.det(edges)
    flat = np.abs(det) <= DEGENERATE * np.linalg.norm(edges, axis=2).prod(axis=1)
    return edges, flat


def _barycentric(edges: np.ndarray, origin: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Barycentric coordinates (s, n+1) of the points q (s, n) in the
    simplices with the given corner 0 (s, n) and edges (s, n, n)."""
    lam = np.linalg.solve(np.swapaxes(edges, 1, 2), (q - origin)[:, :, None])[:, :, 0]
    return np.concatenate([1.0 - lam.sum(axis=1, keepdims=True), lam], axis=1)


def _locate(chart: np.ndarray, mesh: _Mesh, k: int, lattice: np.ndarray, step: float) -> np.ndarray:
    """Which nodes of the simplex grid lie in an image simplex that is not
    flat, up to LOCATE_TOL in barycentric coordinates.

    A bucket join on the node lattice: each image simplex is tested
    against the nodes in its bounding box only.  The boxes come first,
    in integers, from each vertex image's least and greatest node
    coordinates; only a simplex whose box holds a node is gathered as
    floats, tested for flatness and solved for.
    """
    n = chart.shape[1]
    index = np.full((k + 1,) * n, -1)
    index[tuple(lattice.T)] = np.arange(len(lattice))
    covered = np.zeros(len(lattice), dtype=bool)
    # ceil, floor and clip are monotone, so a simplex's box is its
    # corners' least low and greatest high
    scaled = (chart - 1.0) / step  # lattice coordinates
    low = np.clip(np.ceil(scaled - 1e-9), 0, k).astype(np.int64)
    high = np.clip(np.floor(scaled + 1e-9), -1, k).astype(np.int64)
    for flags, rows in _flag_blocks(mesh, mesh.pieces):
        inverse, pieces = mesh.inverse[flags], mesh.pieces[rows]
        lo = _over_corners(low, inverse, pieces, np.minimum).reshape(-1, n)
        hi = _over_corners(high, inverse, pieces, np.maximum).reshape(-1, n)
        # a box holds a node when it is not empty and its least node lies in the grid
        picked = np.flatnonzero((hi >= lo).all(axis=1) & (lo.sum(axis=1) <= k))
        corners = _corners(chart, inverse, pieces, picked)
        edges, flat = _edges(corners)
        corners, edges, picked = corners[:, ~flat], edges[~flat], picked[~flat]
        lo = lo[picked]
        sizes = hi[picked] - lo + 1
        counts = sizes.prod(axis=1)
        starts, total = np.cumsum(counts) - counts, int(counts.sum())
        for start in range(0, total, SLAB_ROWS):  # (simplex, box node) pairs, in runs
            pair = np.arange(start, min(start + SLAB_ROWS, total))
            owner = np.searchsorted(starts, pair, side="right") - 1
            rank = pair - starts[owner]
            nodes = lo[owner]
            for d in reversed(range(n)):
                nodes[:, d] += rank % sizes[owner, d]
                rank //= sizes[owner, d]
            keep = nodes.sum(axis=1) <= k
            owner, nodes = owner[keep], nodes[keep]
            lam = _barycentric(edges[owner], corners[0, owner], 1.0 + step * nodes)
            inside = lam.min(axis=1) >= -LOCATE_TOL
            covered[index[tuple(nodes[inside].T)]] = True
    return covered


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

    P is triangulated with edges at most grid_step (_mesh) and only the
    mesh vertices are mapped.  The mesh depends only on n and on the
    number of cuts of each flag simplex that grid_step asks for: it is
    built once for that pair, kept read-only among the last 8 built, and
    shared by every check that asks for it, so no report depends on the
    checks before it.  What is certified is the PL interpolant of f on
    that mesh, whose image is reported as close to f's as the
    largest image edge says.  The face condition is checked at every
    boundary vertex of the mesh, against its least face, and at
    FACE_SAMPLES points drawn from each face with the given seed plus
    the face's vertices: the coordinates of the chain's largest subset
    must map to 1 within FACE_TOL.

    The face condition alone certifies; this is the polytopal Sperner
    and KKM lemma (De Loera, Peterson and Su, J. Combin. Theory Ser. A
    100, 2002).  Let f and g map P_n into the simplex's plane so that
    each boundary point x goes where every coordinate that x's least
    face pins is 1.  Then so does every (1 - t) f + t g, so no boundary
    point meets the open simplex along the way, and f and g have the
    same degree over each of its points: one integer d_n for every such
    map.  d_n = 1 for n <= 3: test_collapse_has_degree_one in
    tests/test_permutahedron.py counts the oriented preimages, under the
    PL interpolant of collapse_batch, of points near the centre.  The PL
    interpolant respects the faces when its vertices do: a boundary
    simplex of the mesh lies in one face F of P, each of its vertices
    has a least face inside F, pinning every coordinate F pins, and
    linearity carries the condition over the simplex.

    So with no face violation, every point of the simplex farther than
    FACE_TOL from its boundary, widened by the images' float drift off
    the plane, lies in the PL image, and every grid node is covered
    within that band, whose width is max_gap.  Otherwise the nodes are
    located in the image simplices that are not flat (_locate): a
    located node is covered, within 2 n LOCATE_TOL image edges, and an
    uncovered node's gap is bounded by its distance to the nearest image
    of a boundary vertex of the mesh.

    n must be a positive int, grid_step a positive finite real number,
    and seed a non-negative int, or InputError is raised.  An n above 3,
    a mesh above MAX_MESH_SIMPLICES simplices or a grid above
    MAX_GRID_POINTS nodes raises ResourceError before f is called.
    """
    n = _check_n(n, 3, "coverage check")
    grid_step = float(check_real(grid_step, "grid_step"))
    check_int(seed, "seed", low=0)
    total = plane_total(n)
    k, lattice = _simplex_lattice(n, grid_step)
    mesh = _mesh(n, grid_step)

    faces, vertices, pins = _faces(n)
    rng = np.random.default_rng(seed)
    samples, owners = [], []
    for i, fv in enumerate(vertices):
        bary = rng.dirichlet(np.ones(len(fv)), size=FACE_SAMPLES)
        samples += [bary @ fv, fv]
        owners.append(np.full(FACE_SAMPLES + len(fv), i))
    boundary = np.flatnonzero(mesh.face >= 0)
    owners.append(mesh.face[boundary])
    points = np.concatenate([mesh.points, *samples])
    images = _map_rows(f, points)
    excess = images.sum(axis=1) - total
    drift = np.abs(excess)
    if drift.max() > FACE_TOL:
        i = int(np.argmax(drift))
        raise NumericalDomainError(
            f"map sent {tuple(points[i].tolist())} to {tuple(images[i].tolist())},"
            f" off the simplex's plane by a coordinate sum of {drift[i]:.3g}"
        )
    # the seeded samples and face vertices first, then the mesh's boundary
    checked = np.concatenate([np.arange(len(mesh.points), len(points)), boundary])
    violations = _face_violations(
        faces, pins, points[checked], images[checked], np.concatenate(owners)
    )

    mapped = images[: len(mesh.points)]
    shifts = excess[: len(mesh.points)] / (n + 1)
    shift = float(np.abs(shifts).max())
    image_edge = _longest_edge(mapped, mesh)
    if not violations:
        # the inner simplex lies in the PL image, and every node lies
        # within the boundary band of it
        covered = np.ones(len(lattice), dtype=bool)
        max_gap = (FACE_TOL + shift) * math.sqrt(n * (n + 1)) + shift * math.sqrt(n + 1)
    else:
        chart = (mapped - shifts[:, None])[:, :n]  # the images moved onto the plane
        covered = _locate(chart, mesh, k, lattice, grid_step)
        # barycentric coordinates no lower than -LOCATE_TOL put a node
        # within 2 n LOCATE_TOL edge lengths of its simplex
        max_gap = shift * math.sqrt(n + 1) + 2 * n * LOCATE_TOL * image_edge
    witness = None
    if not covered.all():
        grid = 1.0 + grid_step * np.concatenate(
            [lattice, k - lattice.sum(axis=1, keepdims=True)], axis=1
        )
        witness = tuple(grid[int(np.argmin(covered))].tolist())
        gaps = _nearest_distance(grid[~covered], np.unique(mapped[boundary], axis=0))
        max_gap = max(max_gap, float(gaps.max()))
    return CoverageReport(
        ok=not violations,
        grid_points=len(lattice),
        covered=int(covered.sum()),
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
    bad = ((np.abs(images - 1.0) > FACE_TOL) & pins[owners]).any(axis=1)
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
