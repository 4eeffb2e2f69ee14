"""Float half of the permutahedron: batched collapse, test maps, the
piecewise-linear coverage certificate and the OFF export.

With ``degree``, whose scan it calls, this is the one module of the
package that loads numpy; all else it builds on (faces, the realization,
the exact collapse) is the exact ``permutahedron`` module.  The
certificate runs on floats over an integer-built mesh of the boundary
of P_n, and maps only its vertices.  A passing check claims that every
continuous map into the simplex's plane with those boundary values is
onto the simplex but for a thin band along its boundary; a failing one
names the grid nodes every such map covers, by the winding number of
the boundary values around each, which ``degree`` counts: see
check_face_mapping_surjectivity for what it proves.  Importing
``periodmap`` or running a command other than ``permutahedron export
--format off`` never loads this module.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .degree import LOCATE_TOL, SLAB_ROWS, _det, on_image, winding
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
FACE_TOL = 1e-7  # how far an image coordinate the face pins may stray from 1
# absolute, in grid steps: how far the edge over the grid step may be
# from an integer for the step to count as dividing the edge
GRID_SLACK = 1e-9
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


def _point_rows(pts: np.ndarray, n: int) -> np.ndarray:
    """pts as a float array of points of R^{n+1}, one per row.  Any other
    shape raises InputError naming it: a 1-D point or a row of another
    width would be broadcast into a wrong answer or fail inside numpy."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != n + 1:
        raise InputError(f"expected a (k, {n + 1}) array of points, got shape {pts.shape}")
    return pts


def collapse_batch(realization: PermRealization) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized float version of collapse_to_simplex for sampling: the
    same least sums, read from the prefix sums of the sorted columns.

    The map takes a (k, n+1) array of points (_point_rows), reads it and
    never writes to it, so a read-only array is accepted.  Past the
    prefix sums it works in two arrays of the input's shape, each
    updated in place, and its row sums are column adds (_row_sums): the
    same bits as a fresh array for every step and row reductions, in
    about 40% of the time (0.81 against 1.93 ms on the 20,539 mesh
    vertices at n = 3, grid 0.25, 2-CPU host).
    """
    n1 = realization.n + 1
    eps = float(DAMPING_SLACK)
    m = float(realization.total)

    def apply(pts: np.ndarray) -> np.ndarray:
        pts = _point_rows(pts, realization.n)
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
        pts = _point_rows(pts, n)
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
        pts = _point_rows(pts, n)
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
        pts = _point_rows(pts, n)
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

    Every field speaks of the PL interpolant of f's images of the
    boundary vertices of the mesh (check_face_mapping_surjectivity):

    ok: no face violation, and so every grid node is covered.
    grid_points: the nodes of the simplex grid at spacing grid_step,
        counted when passing, scanned when failing.
    covered: the nodes shown to lie in the image of every continuous
        map with these boundary values.  Passing: every node, up to
        max_gap.  Failing: the nodes the boundary values wind around, and
        those within LOCATE_TOL grid steps of the boundary's image.
    uncovered_witness: passing, None; failing, the first uncovered node
        in grid order, or None when every node is covered.
    max_gap: an upper bound on the largest distance from a grid node to
        the image.  Passing: the width of the boundary band, widened by
        the boundary images' float drift off the plane.  Failing: that
        drift and LOCATE_TOL, raised by each uncovered node's path to a
        covered node or to the image of a boundary vertex (_gaps).
    face_violations: for each face, in all_faces order, the first
        boundary vertex in the face, in mesh order, whose image leaves
        the face's target by more than FACE_TOL; empty when passing.
    samples_used: the boundary vertices mapped, the only points f saw.
    mesh_step: the longest edge of the boundary mesh, 0.0 at n = 1,
        whose boundary is two points.
    image_edge: the longest image of an edge of that mesh, 0.0 at n = 1:
        the interpolant is only as close to f as f varies along an edge.
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
    its arrays are read-only.  simplices, edges and oriented expand the
    factors; _longest_edge walks the flags a block at a time.
    """

    points: np.ndarray  # (vertices, n+1)
    face: np.ndarray  # (vertices,) index in all_faces(n) of the least face holding it, -1 inside
    inverse: np.ndarray  # (flags, reference points) the mesh vertex of each reference point
    pieces: np.ndarray  # (pieces, dimension+1) reference point indices
    reference_edges: np.ndarray  # (reference edges, 2) reference point indices, each edge once
    step: float  # the longest edge, 0.0 when there is none
    k: int  # the cuts of each flag simplex's edges

    @property
    def simplices(self) -> np.ndarray:
        """(simplices, dimension+1) vertex indices, flag by flag."""
        return self.inverse[:, self.pieces].reshape(-1, self.pieces.shape[1])

    @property
    def edges(self) -> np.ndarray:
        """(edges, 2) vertex indices, each edge once per flag holding it."""
        return self.inverse[:, self.reference_edges].reshape(-1, 2)

    @functools.cached_property
    def oriented(self) -> tuple[np.ndarray, np.ndarray]:
        """Of a boundary mesh, worked out once and kept read-only: the
        simplices, each with its vertex indices sorted, in column form (n,
        simplices), and their facing, the sign of det(v_1 - c, ..., v_n -
        c) over their sorted vertices less P's centre c, in the chart of
        the first n coordinates, taken exactly (_det) on the integers
        2k(v - c)."""
        n, k = self.pieces.shape[1], self.k
        domain = np.rint(self.points[:, :n].T * (2 * k)).astype(np.int64) - (n + 2) * k
        ordered = np.stack(_sorted_columns(self.simplices))
        facing = np.sign(_det(np.take(domain, ordered, axis=1)))
        ordered.flags.writeable = facing.flags.writeable = False
        return ordered, facing


@functools.cache
def _reach(n: int) -> float:
    """The longest sum, over the flags of P_n and the nonempty sets of j,
    of a flag's axes b_j - b_{j-1}: k times the longest edge a piece of
    a flag simplex cut k ways can have."""
    bary, _ = _flags(n)
    axes = np.diff(bary, axis=1) / 2.0  # (flags, n, n+1)
    sums = np.array(list(itertools.product((0, 1), repeat=n))[1:]) @ axes
    return float(np.linalg.norm(sums, axis=-1).max())


def _mesh(n: int, step: float, boundary: bool = False) -> _Mesh:
    """The mesh of P_n whose edges are at most step long, or with
    boundary its part on the boundary of P (_mesh_of).

    An edge of a piece of flag simplex is a sum of the flag's axes over
    a set of j, divided by k; k is the least that brings the longest
    such sum, _reach(n), worked out once per n, under step, and the
    boundary mesh is cut at the same k.  A mesh above MAX_MESH_SIMPLICES
    simplices raises ResourceError before anything is built.  The mesh
    depends on n, k and boundary only: every step that gives the same k
    gets the same read-only mesh from _mesh_of.
    """
    k = max(1, math.ceil(_reach(n) / step))
    size = len(_flags(n)[0]) * k ** (n - boundary)
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
        k=k,
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

    pts of at most SLAB_ROWS rows is mapped as it is, in one call, and
    its image returned as f gave it, converted to float.  More rows are
    cut into blocks of near-equal size, so none is a lone row: numpy
    multiplies a single row by a matrix through another routine than a
    block, and its last bits can differ.  The check's rows, the boundary
    mesh's vertices, are at least 2 (2 at n = 1).  Each block's image is
    checked by _image.
    """
    if len(pts) <= SLAB_ROWS:
        return _image(f, pts)
    blocks = np.array_split(pts, -(-len(pts) // SLAB_ROWS))
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


def _longest_edge(points: np.ndarray, mesh: _Mesh) -> float:
    """The longest of the mesh's edges with the given end points, 0.0
    when it has none, taken a block of flags at a time, as many as hold
    at most SLAB_ROWS reference edges and at least one, to the reference
    points, then to each edge's ends (np.take: several times faster than
    indexing)."""
    longest, ends = 0.0, mesh.reference_edges
    per_block = max(1, SLAB_ROWS // max(1, len(ends)))
    for start in range(0, len(mesh.inverse), per_block):
        flags = slice(start, start + per_block)
        per_point = np.take(points, mesh.inverse[flags].T, axis=0)  # (reference points, flags, w)
        d = np.take(per_point, ends[:, 0], axis=0)
        d -= np.take(per_point, ends[:, 1], axis=0)
        d = d.reshape(-1, points.shape[1])
        longest = max(longest, float(np.einsum("ij,ij->i", d, d).max(initial=0.0)))
    return math.sqrt(longest)


def _simplex_lattice(n: int, k: int) -> np.ndarray:
    """The nodes of the simplex grid with k steps along each edge, as the
    integer points (k_0, ..., k_{n-1}) with sum at most k, in meshgrid
    order: node i is 1 + step * (k_0, ..., k_{n-1}, k - sum)."""
    ks = np.indices((k + 1,) * n).reshape(n, -1).T
    return ks[_row_sums(ks) <= k]


@functools.lru_cache(maxsize=8)
def _cube_points(n: int, k: int) -> np.ndarray:
    """Each grid node's point, by mixed radix, in the cube of (k+1)**n
    lattice points of the chart dropping coordinate n (row 0), 0, ...,
    n - 2: (n, nodes) in grid order, read-only, kept among the last 8
    built.  In chart n a lattice line is a run of k + 1 cube points."""
    nodes = _simplex_lattice(n, k)
    nodes = np.column_stack([nodes, k - _row_sums(nodes)])
    radix = (k + 1) ** np.arange(n - 1, -1, -1)
    out = np.array([np.delete(nodes, c, axis=1) @ radix for c in (n, *range(n - 1))])
    out.flags.writeable = False
    return out


def _rim_blocks(xs: np.ndarray, rim: _Mesh):
    """The boundary mesh's simplices (_Mesh.oriented) in runs of at most
    SLAB_ROWS: their corners from xs (n, vertices) in column form (n, n,
    simplices) and their facing.  The corners come in sorted vertex
    order, so the scan reads a shared facet alike in both simplices."""
    simplices, facing = rim.oriented
    for start in range(0, len(facing), SLAB_ROWS):
        block = slice(start, start + SLAB_ROWS)
        yield np.take(xs, simplices[:, block], axis=1), facing[block]


def _on_plane(
    f: Callable[[np.ndarray], np.ndarray], points: np.ndarray, total: int
) -> tuple[np.ndarray, np.ndarray]:
    """f(points), mapped by _map_rows, and each image's coordinate sum
    less total.  f is given a copy of points, which it may write to,
    while points may be a shared mesh's read-only array.  The image
    farthest off the simplex's plane, when it is off by more than
    FACE_TOL, raises NumericalDomainError naming it."""
    images = _map_rows(f, points.copy())
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
    (_mesh), and every check maps only the vertices of that mesh on the
    boundary of P (_mesh with boundary), in the mesh's order, and
    nothing else.  A mesh depends only on n and the cuts of each flag
    simplex that grid_step asks for, and is built once and shared
    read-only, so no report depends on the checks before it.  Every
    image is checked to be finite, of the right shape and on the
    simplex's plane within FACE_TOL; then the face condition is checked
    at every boundary vertex, against its least face: the coordinates of
    the face's chain's largest subset must map to 1 within FACE_TOL.  A
    broken face is named by its first offending vertex in mesh order.

    Why the face condition certifies: the polytopal Sperner and KKM
    lemma (De Loera, Peterson and Su, J. Combin. Theory Ser. A 100,
    2002).  Let g and h map P_n into the simplex's plane so that each
    boundary point x goes where every coordinate that x's least face
    pins is 1.  Then so does every (1 - t) g + t h, so no boundary point
    meets the open simplex along the way, and g and h have the same
    degree over each of its points: one integer d_n for every such map,
    not 0 by induction over facets, d_n = +-d_{n-1} and d_0 = 1
    (collapse_to_simplex).  The PL
    interpolant of f on the boundary mesh respects the faces when its
    vertices do: a boundary simplex lies in one face F of P, each of its
    vertices has a least face inside F, pinning every coordinate F pins,
    and linearity carries the condition over the simplex.

    What a passing check claims.  The degree over a point depends only
    on the boundary values, so with no face violation every continuous
    map of P_n into the simplex's plane whose boundary values are the PL
    interpolant of f's images of the boundary vertices is onto every
    point of the simplex farther than FACE_TOL from its boundary,
    widened by the boundary images' float drift off the plane.  Every
    grid node lies within that band, of width max_gap, so the nodes are
    only counted, math.comb(k + n, n) for k steps along an edge.  How
    far f on the boundary strays from the interpolant is only hinted at
    by image_edge.

    What a failing check reports.  Nothing more is mapped, and the report
    too speaks of the boundary values only.  Let d be the winding number
    of the PL boundary interpolant around a grid node y off its image.
    If d is not 0, every continuous map with these boundary values
    covers y; if d is 0, the boundary map is null-homotopic in the plane
    less y, by Hopf's degree theorem, so some such map misses y (Milnor,
    Topology from the Differentiable Viewpoint, 1965, section 7).  So a
    node is covered when d is not 0, from one scan of the grid's lattice
    lines (degree.winding), or when it lies within LOCATE_TOL grid steps of a
    point of an image simplex: its foot in a face's span, by one rule at
    every n (degree.on_image).  The witness is the first uncovered node in
    grid order, and an uncovered node's gap is bounded by a path of grid
    moves to a covered node or a boundary image (_gaps).

    n must be a positive int, grid_step a positive finite real number,
    and seed a non-negative int, or InputError is raised.  An n above 3,
    a boundary mesh above MAX_MESH_SIMPLICES simplices or a grid above
    MAX_GRID_POINTS nodes raises ResourceError before f is called.  seed
    selects nothing, and no report depends on it: it is still accepted
    because perfbench passes it, and goes when perfbench stops (ROADMAP
    item 5).
    """
    n = _check_n(n, 3, "coverage check")
    grid_step = float(check_real(grid_step, "grid_step"))
    check_int(seed, "seed", low=0)
    k = _grid_divisions(n, grid_step)
    rim = _mesh(n, grid_step, boundary=True)

    faces, _, pins = _faces(n)
    images, excess = _on_plane(f, rim.points, plane_total(n))
    violations = _face_violations(faces, pins, rim.points, images, rim.face)
    shifts = excess / (n + 1)
    drift = float(np.abs(shifts).max())  # of a coordinate, off the plane
    nodes = math.comb(k + n, n)
    report = CoverageReport(
        ok=not violations,
        grid_points=nodes,
        covered=nodes,
        uncovered_witness=None,
        # passing, the inner simplex lies in the image of every map with
        # these boundary values, and every node within the boundary band
        max_gap=(FACE_TOL + drift) * math.sqrt(n * (n + 1)) + drift * math.sqrt(n + 1),
        face_violations=violations,
        samples_used=len(rim.points),
        mesh_step=rim.step,
        image_edge=_longest_edge(images, rim),
    )
    if not violations:
        return report

    # the images moved onto the plane, in the lattice coordinates of the
    # chart of the first n coordinates
    xs = np.ascontiguousarray((images[:, :n] - shifts[:, None] - 1.0).T / grid_step)
    blocks = list(_rim_blocks(xs, rim))
    covered_at = winding(blocks, k) != 0
    covered_at |= on_image(blocks, k)
    points = _cube_points(n, k)
    covered_at = np.take(covered_at, points[0])  # the grid's nodes, in grid order
    # a node on the image is within LOCATE_TOL grid steps of it in the
    # chart, and so within sqrt(n + 1) times that on the plane
    max_gap = (drift + LOCATE_TOL * grid_step) * math.sqrt(n + 1)
    witness = None
    uncovered = np.flatnonzero(~covered_at)
    if len(uncovered):
        node = np.unravel_index(points[0, uncovered[0]], (k + 1,) * n)
        witness = tuple((1.0 + grid_step * np.array([*node, k - sum(node)])).tolist())
        gaps = _gaps(covered_at, images, points, k, grid_step)
        max_gap += float(np.take(gaps, uncovered).max())
    return replace(
        report, covered=nodes - len(uncovered), uncovered_witness=witness, max_gap=max_gap
    )


def _face_violations(
    faces: tuple[NestedSequence, ...],
    pins: np.ndarray,
    points: np.ndarray,
    images: np.ndarray,
    owners: np.ndarray,
) -> tuple[FaceViolation, ...]:
    """For each face, in the order of faces, the first of the points it
    owns, in row order, whose image leaves the face's target: a
    coordinate the face pins (_faces) more than FACE_TOL from 1.

    The condition is tested over the whole array, with the pins gathered
    once for every row (np.take, several times faster here than fancy
    indexing); np.unique then picks each face's first offending row.
    """
    off = np.abs(images - 1.0) > FACE_TOL
    off &= np.take(pins, owners, axis=0)
    rows = np.flatnonzero(functools.reduce(np.logical_or, off.T))
    if not len(rows):
        return ()
    bad_faces, first = np.unique(owners[rows], return_index=True)
    return tuple(
        FaceViolation(faces[i], tuple(points[r].tolist()), tuple(images[r].tolist()))
        for i, r in zip(bad_faces, rows[first])
    )


def _gaps(
    covered_at: np.ndarray, images: np.ndarray, points: np.ndarray, k: int, step: float
) -> np.ndarray:
    """For each grid node, in grid order, a bound on its distance on the
    plane to the image, less the drift and LOCATE_TOL terms: the length
    of a path of grid moves e_a - e_b, each sqrt(2) grid steps, from a
    covered node, or from the cube point nearest a boundary vertex's
    image at the cost of its distance to it.  In the chart dropping
    coordinate c the moves e_a - e_c are the cube's axes, and a pass
    along one is exact: min of cost(j) + |i - j| unit over j <= i is a
    running minimum of cost(j) - j unit, plus i unit, and likewise over
    j >= i.  The charts of _cube_points take every move; at n = 2 a path
    is at most 2/sqrt(3) times the straight distance."""
    n = images.shape[1] - 1
    unit = math.sqrt(2) * step
    seeds = np.clip(np.rint((images[:, :n] - 1.0) / step), 0, k).astype(np.int64)
    seeded = 1.0 + step * np.column_stack([seeds, k - _row_sums(seeds)])
    cost = np.where(covered_at, 0.0, np.inf)
    for chart, at in enumerate(points):
        cube = np.full((k + 1,) * n, np.inf)
        flat = cube.reshape(-1)
        if not chart:
            radix = (k + 1) ** np.arange(n - 1, -1, -1)
            np.minimum.at(flat, seeds @ radix, np.sqrt(_row_sums((seeded - images) ** 2)))
        flat[at] = np.minimum(np.take(flat, at), cost)
        for axis in range(n):
            ramp = unit * np.arange(k + 1).reshape([-1 if a == axis else 1 for a in range(n)])
            back = (slice(None),) * axis + (slice(None, None, -1),)
            above = np.minimum.accumulate((cube + ramp)[back], axis=axis)[back] - ramp
            below = np.minimum.accumulate(cube - ramp, axis=axis) + ramp
            np.minimum(below, above, out=cube)
        cost = np.take(flat, at)
    return cost


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
