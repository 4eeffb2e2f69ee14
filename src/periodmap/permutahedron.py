"""Permutahedron and simplex geometry: face lattice, collapse, projection.

The n-permutahedron is realized as the convex hull of the permutations
of (1, ..., n+1); the ambient simplex is the tight enclosing one
{x_i >= 1, sum x = (n+1)(n+2)/2} in the same hyperplane, so the
permutahedron is its truncation.  Faces are labelled by strictly
increasing chains of nonempty proper subsets of {1, ..., n+1}.

Exact rational arithmetic is used for the combinatorics, the collapse
map on rational inputs, and the nearest-point projection; the sampled
coverage checks run on floats.  The permutahedron is the set of points
majorized by (n+1, ..., 1): the least sum of k coordinates is the sum of
the k smallest, so one sort and its prefix sums state every subset
inequality.  Membership, the collapse map and the sample filter read
them that way, and the nearest point is a sort followed by an isotonic
regression (pool-adjacent-violators); nothing enumerates coordinate
subsets or faces outside the face lattice itself.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InputError, NumericalDomainError, ResourceError

DAMPING_SLACK = Fraction(1, 4)  # slack scale below which coordinates are pulled in
MAX_GRID_POINTS = 4 * 10**7  # largest sample box or grid a coverage check builds
FACE_SAMPLES = 40  # random points per face in the coverage check's face condition
FACE_TOL = 1e-7  # how far an image coordinate the face pins may stray from 1
SLAB_ROWS = 2**15  # rows per sample slab and per call of the checked map
KD_LEAF_SIZE = 256  # points per leaf of the coverage check's KD-trees


def subset_level(k: int) -> int:
    """Minimal possible sum of k distinct values from {1, ..., n+1}."""
    return k * (k + 1) // 2


def plane_total(n: int) -> int:
    return (n + 1) * (n + 2) // 2


def proper_subsets(n: int) -> list[tuple[int, ...]]:
    """Nonempty proper subsets of {1, ..., n+1}, sorted lexicographically."""
    ground = range(1, n + 2)
    out = []
    for size in range(1, n + 1):
        out.extend(itertools.combinations(ground, size))
    out.sort()
    return out


@dataclass(frozen=True)
class NestedSequence:
    """Strictly increasing chain of nonempty proper subsets of {1,...,n+1}."""

    n: int
    chain: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise InputError("n must be positive")
        l = len(self.chain)
        if not 1 <= l <= self.n:
            raise InputError(f"chain length must be in 1..{self.n}, got {l}")
        ground = set(range(1, self.n + 2))
        norm = []
        prev = None
        for raw in self.chain:
            s = set(raw)
            if len(s) != len(raw):
                raise InputError(f"repeated element in subset {raw}")
            if not s or not s < ground:
                raise InputError(f"subset {raw} must be nonempty and proper")
            if prev is not None and not prev < s:
                raise InputError("chain subsets must strictly increase")
            prev = s
            norm.append(tuple(sorted(s)))
        object.__setattr__(self, "chain", tuple(norm))

    @property
    def length(self) -> int:
        return len(self.chain)

    def dim(self) -> int:
        """Dimension of the face this chain labels."""
        return self.n - self.length

    def __str__(self):
        return " < ".join("{" + ",".join(map(str, s)) + "}" for s in self.chain)

    @staticmethod
    def parse(n: int, text: str) -> "NestedSequence":
        """Chain syntax '1;1,2' for {1} < {1,2}."""
        try:
            chain = tuple(
                tuple(int(tok) for tok in part.split(","))
                for part in text.split(";")
                if part.strip()
            )
        except ValueError as exc:
            raise InputError(f"cannot parse chain {text!r}") from exc
        return NestedSequence(n, chain)


def enumerate_faces(n: int, codim: int) -> list[NestedSequence]:
    """All chains of the given length, each once, in lexicographic order."""
    if not 1 <= codim <= n:
        raise InputError(f"codim must be in 1..{n}, got {codim}")
    subsets = proper_subsets(n)
    sets = {s: frozenset(s) for s in subsets}
    # strict supersets of each subset; strictness makes each chain appear once
    above = {s: [t for t in subsets if sets[s] < sets[t]] for s in subsets}
    chains = [(s,) for s in subsets]
    for _ in range(codim - 1):
        chains = [ch + (t,) for ch in chains for t in above[ch[-1]]]
    # extending a sorted list by sorted lists keeps the lexicographic order
    return [NestedSequence(n, ch) for ch in chains]


def all_faces(n: int) -> list[NestedSequence]:
    out = []
    for codim in range(1, n + 1):
        out.extend(enumerate_faces(n, codim))
    return out


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PermRealization:
    n: int
    total: int
    vertices: tuple[tuple[int, ...], ...]

    def contains(self, point: Sequence, tol: Fraction = Fraction(0)) -> bool:
        """Whether the point sums to total and each k of its coordinates
        sum to at least subset_level(k), up to tol.

        The least sum of k coordinates is the sum of the k smallest, so
        one sort decides all the subset inequalities (majorization).
        """
        if len(point) != self.n + 1:
            raise InputError("point has wrong length")
        return self._least_sums([Fraction(x) for x in point], tol) is not None

    def _least_sums(self, y: list[Fraction], tol: Fraction) -> list[Fraction] | None:
        """[c_0, ..., c_{n+1}], c_k the sum of the k smallest coordinates
        of y, when y lies in the polytope up to tol; otherwise None."""
        low = [0, *itertools.accumulate(sorted(y))]
        if abs(low[-1] - self.total) > tol or any(
            low[k] - subset_level(k) < -tol for k in range(1, self.n + 1)
        ):
            return None
        return low

    def vertices_of_face(self, ns: NestedSequence) -> list[tuple[int, ...]]:
        """Vertices whose value blocks refine the chain: positions in I_1
        carry the smallest |I_1| values, and so on block by block."""
        if ns.n != self.n:
            raise InputError("chain does not match this realization")
        blocks = []
        prev: tuple[int, ...] = ()
        for sub in ns.chain + ((tuple(range(1, self.n + 2))),):
            blocks.append(tuple(sorted(set(sub) - set(prev))))
            prev = sub
        out = []
        for v in self.vertices:
            lo = 0
            good = True
            for block in blocks:
                vals = sorted(v[i - 1] for i in block)
                if vals != list(range(lo + 1, lo + len(block) + 1)):
                    good = False
                    break
                lo += len(block)
            if good:
                out.append(v)
        return out


def realize(n: int) -> PermRealization:
    if n < 1:
        raise InputError("n must be positive")
    if n > 6:
        raise ResourceError(f"realization capped at n = 6, got {n}")
    verts = tuple(sorted(itertools.permutations(range(1, n + 2))))
    return PermRealization(n=n, total=plane_total(n), vertices=verts)


# ---------------------------------------------------------------------------
# nearest-point projection onto the permutahedron
# ---------------------------------------------------------------------------


def closest_point_map(point: Sequence, realization: PermRealization) -> tuple:
    """Exact euclidean nearest point of the permutahedron.

    The permutahedron is the set of points majorized by (n+1, ..., 1),
    so its nearest point is found by one sort and one isotonic
    regression: with x sorted in descending order by sigma, fit a
    non-increasing v to x_sigma - (n+1, ..., 1) by pool-adjacent-violators,
    and return z with z_sigma = x_sigma - v.  Blocks are pooled by their
    exact Fraction means, so the output is exact.  The input must lie in
    the enclosing simplex.
    """
    n1 = realization.n + 1
    if len(point) != n1:
        raise InputError("point has wrong length")
    x = [Fraction(p) for p in point]
    tol = Fraction(1, 10**9)
    if abs(sum(x) - realization.total) > tol or any(xi < 1 - tol for xi in x):
        raise DomainError("point must lie in the enclosing simplex")

    order = sorted(range(n1), key=lambda i: x[i], reverse=True)
    # blocks of (sum, count) whose means strictly decrease
    blocks: list[tuple[Fraction, int]] = []
    for rank, i in enumerate(order):
        total, count = x[i] - (n1 - rank), 1
        while blocks and blocks[-1][0] * count <= total * blocks[-1][1]:
            prev_total, prev_count = blocks.pop()
            total, count = total + prev_total, count + prev_count
        blocks.append((total, count))
    fit = [s / c for s, c in blocks for _ in range(c)]
    z = [Fraction(0)] * n1
    for rank, i in enumerate(order):
        z[i] = x[i] - fit[rank]
    return tuple(z)


# ---------------------------------------------------------------------------
# collapse map onto the simplex
# ---------------------------------------------------------------------------


def collapse_to_simplex(point: Sequence, realization: PermRealization) -> tuple:
    """Slack-damped collapse of the permutahedron onto the simplex.

    Coordinates whose tightest containing constraint has slack below
    DAMPING_SLACK are pulled toward the lower bound 1 (reaching it
    exactly when the constraint is tight), and the lost mass is
    redistributed over the undamped coordinates.  On each face the
    pinned coordinates land exactly at 1, and points whose slacks all
    clear DAMPING_SLACK are fixed, so the map restricts to the identity
    on the deep interior.

    With c_k the sum of the k smallest coordinates, the least sum of k
    coordinates that include y_i is max(c_k, y_i + c_{k-1}), so the
    tightest slack at coordinate i is the least of those sums minus
    subset_level(k) over k = 1..n: one sort and its prefix sums.
    """
    n1 = realization.n + 1
    if len(point) != n1:
        raise InputError("point has wrong length")
    y = [Fraction(p) for p in point]
    low = realization._least_sums(y, Fraction(1, 10**9))  # low[k] = c_k
    if low is None:
        raise DomainError("collapse input must lie in the permutahedron")
    weights = []
    for yi in y:
        g = min(max(low[k], yi + low[k - 1]) - subset_level(k) for k in range(1, n1))
        weights.append(min(Fraction(1), max(Fraction(0), g / DAMPING_SLACK)))
    pulled = [1 + (yi - 1) * w for yi, w in zip(y, weights)]
    spare = realization.total - sum(pulled)
    wsum = sum(weights)
    # the tight subsets at any point form a chain of proper subsets, so
    # they never cover every coordinate and wsum stays positive
    assert wsum > 0
    return tuple(p + spare * w / wsum for p, w in zip(pulled, weights))


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
    if not -1.0 < coefficient < 1.0:
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
    if n != 2:
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
# sampled surjectivity check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceViolation:
    chain: NestedSequence
    point: tuple[float, ...]
    image: tuple[float, ...]


@dataclass(frozen=True)
class CoverageReport:
    ok: bool
    grid_points: int
    covered: int
    uncovered_witness: tuple[float, ...] | None
    max_gap: float
    face_violations: tuple[FaceViolation, ...]
    samples_used: int

    def __str__(self):
        lines = [
            f"grid nodes {self.grid_points}, covered {self.covered},"
            f" max gap {self.max_gap:.3g}"
        ]
        if self.uncovered_witness is not None:
            lines.append(f"uncovered witness: {self.uncovered_witness}")
        for v in self.face_violations[:5]:
            lines.append(f"face condition broken on {v.chain}: {v.point} -> {v.image}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


class _SampleBox:
    """Grid sample of the permutahedron in its hyperplane, made slab by slab.

    The grid is a box one step wider than the permutahedron on every
    side; its size is worked out from the axis lengths before anything is
    allocated, and a box above MAX_GRID_POINTS is refused.  The box is
    cut into slabs along its first axis, each of at most SLAB_ROWS points
    when one line of the box fits, and ``slab(i)`` makes slab i in
    meshgrid order, filtered: the sum of its k smallest coordinates must
    reach subset_level(k), for k = 1..n.  Every slab is made the same way
    whichever part of the check asks for it, so the samples do not depend
    on how the slabs are shared out.
    """

    def __init__(self, realization: PermRealization, step: float) -> None:
        n = realization.n
        self.basis = _hyperplane_basis(n)
        self.center = np.full(n + 1, realization.total / (n + 1))
        verts = np.array(realization.vertices, dtype=float)
        plane = (verts - self.center) @ self.basis.T
        lo = plane.min(axis=0) - step
        hi = plane.max(axis=0) + step
        # np.arange(start, stop, step) holds ceil((stop - start) / step) values
        lengths = [math.ceil((hi[i] + step - lo[i]) / step) for i in range(n)]
        size = math.prod(lengths)
        if size > MAX_GRID_POINTS:
            raise ResourceError(
                f"sample step {step} needs a box of {size} points (limit {MAX_GRID_POINTS})"
            )
        self.axes = [np.arange(lo[i], hi[i] + step, step) for i in range(n)]
        self.line_points = math.prod(len(a) for a in self.axes[1:])
        self.lines_per_slab = max(1, SLAB_ROWS // self.line_points)
        self.slabs = -(-len(self.axes[0]) // self.lines_per_slab)

    def box_points(self, slabs: range) -> int:
        """Points of the box in a run of slabs, before the filter."""
        step = self.lines_per_slab
        lines = range(len(self.axes[0]))[slabs.start * step : slabs.stop * step]
        return len(lines) * self.line_points

    def slab(self, i: int) -> np.ndarray:
        start = i * self.lines_per_slab
        first = self.axes[0][start : start + self.lines_per_slab]
        mesh = np.meshgrid(first, *self.axes[1:], indexing="ij")
        pts = self.center + np.stack([m.ravel() for m in mesh], axis=1) @ self.basis
        low = itertools.accumulate(_sorted_columns(pts)[:-1])
        keep = [c - subset_level(k) >= -1e-12 for k, c in enumerate(low, start=1)]
        return pts[np.logical_and.reduce(keep)]


def _facet_samples(realization: PermRealization) -> np.ndarray:
    """Dense samples of every facet, so images track the simplex boundary."""
    n = realization.n
    parts = []
    if n == 2:
        t = np.linspace(0.0, 1.0, 2001)[:, None]
        for ns in enumerate_faces(2, 1):
            fv = realization.vertices_of_face(ns)
            a, b = (np.array(v, dtype=float) for v in fv)
            parts.append(a + t * (b - a))
    else:
        rng = np.random.default_rng(1729)
        for ns in enumerate_faces(n, 1):
            fv = np.array(realization.vertices_of_face(ns), dtype=float)
            bary = rng.dirichlet(np.ones(len(fv)), size=4000)
            parts.append(bary @ fv)
    return np.concatenate(parts, axis=0)


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


def _map_rows(
    f: Callable[[np.ndarray], np.ndarray], pts: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """f applied to pts in row blocks of at most SLAB_ROWS rows, written
    into out (an array of pts' shape) or into a new array.

    The blocks are of near-equal size, so none is a lone row when pts
    has two or more, and a single row is mapped as a block of two copies
    of itself: numpy multiplies a single row by a matrix through another
    routine than a block, and its last bits can differ.  Each block's
    image is checked by _image.
    """
    if out is None:
        out = np.empty(pts.shape)
    if len(pts) == 1:
        out[:] = _image(f, np.repeat(pts, 2, axis=0))[:1]
        return out
    start = 0
    for block in np.array_split(pts, max(1, -(-len(pts) // SLAB_ROWS))):
        out[start : start + len(block)] = _image(f, block)
        start += len(block)
    return out


def _simplex_grid(n: int, step: float) -> np.ndarray:
    m = plane_total(n)
    k_total = (m - (n + 1)) / step
    k = int(round(k_total))
    if abs(k - k_total) > 1e-9:
        raise InputError(f"grid step {step} must divide {m - (n + 1)} evenly")
    if (k + 1) ** n > MAX_GRID_POINTS:
        raise ResourceError("grid too fine for this dimension")
    axes = np.meshgrid(*[np.arange(k + 1)] * n, indexing="ij")
    ks = np.stack([a.ravel() for a in axes], axis=1)
    ks = ks[ks.sum(axis=1) <= k]
    last = k - ks.sum(axis=1)
    grid = np.concatenate([ks, last[:, None]], axis=1).astype(float)
    return 1.0 + step * grid


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    reports one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _coverage_part(
    f: Callable[[np.ndarray], np.ndarray],
    box: _SampleBox,
    slabs: range,
    extra: np.ndarray | None,
    grid: np.ndarray,
    stop: threading.Event,
) -> tuple[int, np.ndarray | None]:
    """One part of the coverage check: make the given slabs of the box,
    map each through f as it is made, add the image of the extra samples,
    index all the images, kept in one array, in one tree and query it at
    the grid nodes.

    Returns the number of samples and each grid node's distance to the
    nearest of their images; a part with no samples builds no tree and
    returns None.  A part quits early, returning nothing useful, once
    stop is set.
    """
    from scipy.spatial import cKDTree

    rows = box.box_points(slabs) + (0 if extra is None else len(extra))
    # room for every box point of the slabs; the pages past the samples
    # kept are never written, so they take no memory
    images = np.empty((rows, box.center.size))
    count = 0
    for i in slabs:
        if stop.is_set():
            return 0, None
        pts = box.slab(i)
        if len(pts):
            _map_rows(f, pts, images[count : count + len(pts)])
            count += len(pts)
    if extra is not None:
        _map_rows(f, extra, images[count : count + len(extra)])
        count += len(extra)
    if not count:
        return 0, None
    images = images[:count]
    # sliding-midpoint splits build faster than median splits and the
    # nearest-neighbour distances are exact either way
    tree = cKDTree(
        images,
        leafsize=KD_LEAF_SIZE,
        balanced_tree=False,
        compact_nodes=False,
        copy_data=False,
    )
    return len(images), tree.query(grid, k=1)[0]


def check_face_mapping_surjectivity(
    f: Callable[[np.ndarray], np.ndarray],
    n: int,
    grid_step: float,
    seed: int = 0,
) -> CoverageReport:
    """Sampled surjectivity check (a proxy, not a certificate) for a map
    of the permutahedron onto the simplex.

    First verifies the face condition on FACE_SAMPLES random points and
    the vertices of every proper face (images must pin the coordinates of
    the chain's largest subset to 1 within FACE_TOL), then checks that
    every simplex grid node at spacing grid_step has an image point
    within grid_step, sampling the permutahedron at grid_step / 10.  f
    must accept a (k, n+1) array of points, k >= 2, and return their
    (k, n+1) images; a wrong shape raises InputError and a non-finite
    image NumericalDomainError.

    The sampling runs in parts, one per CPU the process may use (its
    affinity mask, else os.cpu_count()) but no more than the box has
    slabs, each in its own thread; with one part it runs in the calling
    thread.  Each part makes
    a contiguous run of the sample box's slabs, maps them and indexes
    its images in its own KD-tree; a grid node's distance is the least
    of the parts' nearest distances, which is its distance to the
    nearest image of all the samples, so the report does not depend on
    the number of parts.  f is therefore called from several threads at
    once, on disjoint row blocks: it must be thread-safe and act row by
    row, giving each row the same image whatever block holds it.  Every
    map this module ships does.  An error raised by f reaches the caller
    unchanged, after every part has stopped.

    grid_step must be positive and finite; a sample box or grid above
    MAX_GRID_POINTS points raises ResourceError before f is called.
    """
    if n > 3:
        raise ResourceError("coverage check capped at n = 3")
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise InputError(f"grid_step must be positive and finite, got {grid_step}")
    realization = realize(n)
    grid = _simplex_grid(n, grid_step)
    box = _SampleBox(realization, grid_step / 10.0)

    rng = np.random.default_rng(seed)
    violations = []
    for ns in all_faces(n):
        fv = np.array(realization.vertices_of_face(ns), dtype=float)
        bary = rng.dirichlet(np.ones(len(fv)), size=FACE_SAMPLES)
        pts = bary @ fv
        pts = np.concatenate([pts, fv], axis=0)
        images = _image(f, pts)
        pinned = [i - 1 for i in ns.chain[-1]]
        bad = np.abs(images[:, pinned] - 1.0).max(axis=1) > FACE_TOL
        if bad.any():
            idx = int(np.argmax(bad))
            violations.append(
                FaceViolation(ns, tuple(pts[idx]), tuple(images[idx]))
            )

    parts = min(_cpu_count(), box.slabs)
    cuts = [box.slabs * i // parts for i in range(parts + 1)]
    facets = _facet_samples(realization)
    stop = threading.Event()

    def run(i: int) -> tuple[int, np.ndarray | None]:
        try:
            return _coverage_part(
                f, box, range(cuts[i], cuts[i + 1]), facets if i == 0 else None, grid, stop
            )
        except BaseException:
            stop.set()  # the other parts quit at their next slab
            raise

    if parts == 1:
        results = [run(0)]
    else:
        # imported here: concurrent.futures loads logging, which the
        # exact commands never need
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=parts) as pool:
            futures = [pool.submit(run, i) for i in range(parts)]
            # the first error in part order is raised once the pool has
            # joined every thread; a later part's error is dropped
            results = [fut.result() for fut in futures]
    samples_used = sum(count for count, _ in results)
    dist = np.minimum.reduce([d for _, d in results if d is not None])
    covered = dist <= grid_step
    witness = None
    if not covered.all():
        witness = tuple(grid[int(np.argmin(covered))])
    ok = covered.all() and not violations
    return CoverageReport(
        ok=bool(ok),
        grid_points=len(grid),
        covered=int(covered.sum()),
        uncovered_witness=witness,
        max_gap=float(dist.max()),
        face_violations=tuple(violations),
        samples_used=samples_used,
    )


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def export_json(n: int) -> dict:
    """Vertices and the full face lattice, exact integer data."""
    if n > 4:
        raise ResourceError("face-lattice export capped at n = 4")
    realization = realize(n)
    vert_index = {v: i for i, v in enumerate(realization.vertices)}
    faces = []
    for ns in all_faces(n):
        fv = realization.vertices_of_face(ns)
        faces.append(
            {
                "chain": [list(s) for s in ns.chain],
                "dim": ns.dim(),
                "vertices": sorted(vert_index[v] for v in fv),
            }
        )
    return {
        "n": n,
        "plane_total": realization.total,
        "vertices": [list(v) for v in realization.vertices],
        "faces": faces,
    }


def export_off(n: int) -> str:
    """OFF mesh of the realization, n <= 3 (planar polygon for n = 2)."""
    if n not in (2, 3):
        raise InputError("OFF export needs n = 2 or 3")
    realization = realize(n)
    verts = np.array(realization.vertices, dtype=float)
    if n == 2:
        coords = verts
    else:
        basis = _hyperplane_basis(3)
        center = verts.mean(axis=0)
        coords = (verts - center) @ basis.T
    vert_index = {v: i for i, v in enumerate(realization.vertices)}

    polygons = []
    if n == 2:
        # the whole hexagon is the unique polygon
        c = coords.mean(axis=0)
        u = coords - c
        ref = u[0] / np.linalg.norm(u[0])
        second = np.cross(np.ones(3) / math.sqrt(3.0), ref)
        angles = np.arctan2(u @ second, u @ ref)
        polygons = [[int(i) for i in np.argsort(angles)]]
        edge_count = len(coords)
    else:
        centroid_all = coords.mean(axis=0)
        for ns in enumerate_faces(n, 1):
            fv = realization.vertices_of_face(ns)
            idx = [vert_index[v] for v in fv]
            pts = coords[idx]
            c = pts.mean(axis=0)
            normal = c - centroid_all
            normal /= np.linalg.norm(normal)
            u = pts - c
            u -= np.outer(u @ normal, normal)
            ref = u[0] / np.linalg.norm(u[0])
            second = np.cross(normal, ref)
            angles = np.arctan2(u @ second, u @ ref)
            order = np.argsort(angles)
            polygons.append([idx[i] for i in order])
        edge_count = sum(len(p) for p in polygons) // 2
    lines = ["OFF", f"{len(coords)} {len(polygons)} {edge_count}"]
    for row in coords:
        lines.append(" ".join(f"{x:.12g}" for x in row))
    for poly in polygons:
        lines.append(str(len(poly)) + " " + " ".join(str(i) for i in poly))
    return "\n".join(lines) + "\n"
