"""Permutahedron and simplex geometry: face lattice, collapse, projection.

The n-permutahedron is realized as the convex hull of the permutations
of (1, ..., n+1); the ambient simplex is the tight enclosing one
{x_i >= 1, sum x = (n+1)(n+2)/2} in the same hyperplane, so the
permutahedron is its truncation.  Faces are labelled by strictly
increasing chains of nonempty proper subsets of {1, ..., n+1}.

Everything here is exact: the combinatorics, the collapse map on
rational inputs, the nearest-point projection and the JSON export, on
integers over one denominator.  The permutahedron is the set of points
majorized by (n+1, ..., 1): the least sum of k coordinates is the sum
of the k smallest, so one sort and its prefix sums state every subset
inequality.  Membership and the collapse map read them that way, and
the nearest point is a sort followed by an isotonic regression
(pool-adjacent-violators); nothing enumerates coordinate subsets or
faces outside the face lattice itself.  The float half, the batched
collapse, the test maps, the coverage certificate and the OFF export,
is ``coverage``, which with the ``degree`` scan it calls is all of
the package that loads numpy.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bilinear import _clear
from .errors import DomainError, InputError, ResourceError, check_int, check_real

DAMPING_SLACK = Fraction(1, 4)  # slack scale below which coordinates are pulled in
MAX_FACE_N = 7  # largest n whose faces are enumerated: n = 8 has 7,087,260
# absolute, in coordinates: how far outside the enclosing simplex a
# projection's input, or outside P a collapse's input, may lie and still
# be read as inside, so that a float input rounded just off the boundary
# is accepted
INPUT_TOL = Fraction(1, 10**9)


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
        n = check_int(self.n, "n")
        try:
            chain = [tuple(raw) for raw in self.chain]
        except TypeError:
            raise InputError(f"a chain is a list of subsets, got {self.chain!r}") from None
        check_int(len(chain), "chain length", 1, n)
        norm = []
        prev = None
        for raw in chain:
            s = {check_int(x, "subset element", 1, n + 1) for x in raw}
            if len(s) != len(raw):
                raise InputError(f"repeated element in subset {raw}")
            if not 1 <= len(s) <= n:
                raise InputError(f"subset {raw} must be nonempty and proper")
            if prev is not None and not prev < s:
                raise InputError("chain subsets must strictly increase")
            prev = s
            norm.append(tuple(sorted(s)))
        object.__setattr__(self, "chain", tuple(norm))

    @classmethod
    def _generated(cls, n: int, chain: tuple[tuple[int, ...], ...]) -> "NestedSequence":
        """A chain of sorted subsets built valid, for an int n: not checked
        again."""
        ns = cls.__new__(cls)
        object.__setattr__(ns, "n", n)
        object.__setattr__(ns, "chain", chain)
        return ns

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


def _check_n(n, cap: int = MAX_FACE_N, what: str = "face enumeration") -> int:
    """n as a Python int; an n that is not a positive int raises
    InputError and one above the cap of ``what`` ResourceError, before
    any work."""
    if check_int(n, "n") > cap:
        raise ResourceError(f"{what} capped at n = {cap}, got {n}")
    return int(n)


def _chains(n: int, codim: int) -> list[list[tuple[tuple[int, ...], ...]]]:
    """The chains of each length 1..codim, each list in lexicographic
    order; the chains of one length extend those one shorter."""
    subsets = proper_subsets(n)
    sets = {s: frozenset(s) for s in subsets}
    # strict supersets of each subset; strictness makes each chain appear once
    above = {s: [t for t in subsets if sets[s] < sets[t]] for s in subsets}
    levels = [[(s,) for s in subsets]]
    for _ in range(codim - 1):
        # extending a sorted list by sorted lists keeps the lexicographic order
        levels.append([ch + (t,) for ch in levels[-1] for t in above[ch[-1]]])
    return levels


def enumerate_faces(n: int, codim: int) -> list[NestedSequence]:
    """All chains of the given length, each once, in lexicographic order.

    n must be a positive int (InputError) and at most MAX_FACE_N
    (ResourceError).
    """
    n = _check_n(n)
    check_int(codim, "codim", 1, n)
    return [NestedSequence._generated(n, ch) for ch in _chains(n, codim)[-1]]


def all_faces(n: int) -> list[NestedSequence]:
    """The faces of every codimension 1..n, in enumerate_faces' order."""
    n = _check_n(n)
    return [NestedSequence._generated(n, ch) for level in _chains(n, n) for ch in level]


def face_counts(n: int) -> list[int]:
    """The number of faces of each codimension 1..n, in closed form.

    A face of codimension c is a chain of c proper subsets, that is an
    ordered partition of {1, ..., n+1} into c+1 blocks, so there are as
    many as maps of n+1 points onto c+1 labels: by inclusion-exclusion
    the sum over j of (-1)^j C(c+1, j) (c+1-j)^(n+1), or (c+1)! S(n+1,
    c+1).  n is refused as in enumerate_faces.
    """
    n = _check_n(n)
    return [
        sum((-1) ** j * math.comb(c + 1, j) * (c + 1 - j) ** (n + 1) for j in range(c + 2))
        for c in range(1, n + 1)
    ]


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
        sum to at least subset_level(k), up to a finite real tol.

        The least sum of k coordinates is the sum of the k smallest, so
        one sort decides all the subset inequalities (majorization).
        """
        tol = _exact(check_real(tol, "tol", positive=False))
        return self._least_sums(*self._point(point), tol) is not None

    def _point(self, point: Sequence) -> tuple[list[int], int]:
        """The coordinates of point as integers x over one d > 0, floats read
        exactly; a point that is not n+1 finite real numbers is InputError."""
        if not hasattr(point, "__len__") or len(point) != self.n + 1:
            raise InputError(f"point must be a list of {self.n + 1} coordinates, got {point!r}")
        return _clear([_exact(check_real(x, "point coordinate", positive=False)) for x in point])

    def _least_sums(self, x: list[int], d: int, tol: Fraction) -> list[int] | None:
        """[d c_0, ..., d c_{n+1}], c_k the sum of the k smallest coordinates
        of x / d, when x / d lies in the polytope up to tol; else None."""
        low = [0, *itertools.accumulate(sorted(x))]
        t, u = tol.numerator * d, tol.denominator
        if abs(low[-1] - self.total * d) * u > t or any(
            (low[k] - subset_level(k) * d) * u < -t for k in range(1, self.n + 1)
        ):
            return None
        return low

    def vertices_of_face(self, ns: NestedSequence) -> list[tuple[int, ...]]:
        """The face's vertices, sorted: the permutations whose positions in
        each block I_j - I_{j-1} of the chain (I_{c+1} the whole set) carry
        the values |I_{j-1}|+1, ..., |I_j|.  They are generated, not
        filtered: one vertex per choice of an ordering of each block's
        values, (|I_1|)! (|I_2| - |I_1|)! ... in all."""
        if ns.n != self.n:
            raise InputError("chain does not match this realization")
        order: list[int] = []  # the positions, block by block
        orderings = []
        for sub in ns.chain + (tuple(range(1, self.n + 2)),):
            orderings.append(itertools.permutations(range(len(order) + 1, len(sub) + 1)))
            order += sorted(set(sub).difference(order))
        # reads the blocks' values, laid end to end, back in position order
        pick = operator.itemgetter(*sorted(range(self.n + 1), key=order.__getitem__))
        return sorted(pick(sum(choice, ())) for choice in itertools.product(*orderings))


def _exact(x) -> Fraction:
    # Fraction reads no numpy float but float64, and float() holds each exactly
    return Fraction(x) if hasattr(x, "numerator") else Fraction(float(x))


def realize(n: int) -> PermRealization:
    n = _check_n(n, 6, "realization")
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
    exact sums, integers over the point's one denominator d, so the output
    is exact.  The input must lie in the enclosing simplex.
    """
    n1 = realization.n + 1
    x, d = realization._point(point)
    # in the enclosing simplex up to INPUT_TOL, the test scaled by d
    t, u = INPUT_TOL.numerator * d, INPUT_TOL.denominator
    if abs(sum(x) - realization.total * d) * u > t or (min(x) - d) * u < -t:
        raise DomainError("point must lie in the enclosing simplex")

    order = sorted(range(n1), key=x.__getitem__, reverse=True)
    # blocks of (sum, count) whose means strictly decrease
    blocks: list[tuple[int, int]] = []
    for rank, i in enumerate(order):
        total, count = x[i] - (n1 - rank) * d, 1
        while blocks and blocks[-1][0] * count <= total * blocks[-1][1]:
            prev_total, prev_count = blocks.pop()
            total, count = total + prev_total, count + prev_count
        blocks.append((total, count))
    z = [Fraction(0)] * n1
    for i, (s, c) in zip(order, (b for b in blocks for _ in range(b[1]))):
        z[i] = Fraction(x[i] * c - s, c * d)
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

    Its degree d_n is not 0, by induction over facets.  It sends each
    face F of P_n onto the simplex's face where the coordinates of F's
    largest subset are 1, so over a point z inside the facet x_i = 1 only
    P's facet with chain ({i}) reaches z.  That facet is P_{n-1}, and the
    collapse on it respects its faces, so d_n = +-d_{n-1}; d_0 = 1.
    """
    n1 = realization.n + 1
    x, d = realization._point(point)
    low = realization._least_sums(x, d, INPUT_TOL)  # low[k] = c_k d
    if low is None:
        raise DomainError("collapse input must lie in the permutahedron")
    full = DAMPING_SLACK.numerator * d  # y = x / d, and each weight is an integer over full
    weights = []
    for xi in x:
        g = min(max(low[k], xi + low[k - 1]) - subset_level(k) * d for k in range(1, n1))
        weights.append(min(full, max(0, g * DAMPING_SLACK.denominator)))
    pulled = [full * d + (xi - d) * w for xi, w in zip(x, weights)]
    spare = realization.total * full * d - sum(pulled)
    wsum = sum(weights)
    # the tight subsets at any point form a chain of proper subsets, so
    # they never cover every coordinate and wsum stays positive
    assert wsum > 0
    return tuple(Fraction(p * wsum + spare * w, full * d * wsum) for p, w in zip(pulled, weights))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def export_json(n: int) -> dict:
    """Vertices and the full face lattice, exact integer data."""
    n = _check_n(n, 4, "face-lattice export")
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


# ---------------------------------------------------------------------------
# coverage names that perfbench reads from this module
# ---------------------------------------------------------------------------

_COVERAGE_NAMES = frozenset(
    {
        "collapse_batch",
        "radial_perturbation",
        "twist_perturbation",
        "shrink_map",
        "check_face_mapping_surjectivity",
    }
)


def __getattr__(name: str):
    # perfbench reads these five as permutahedron attributes; they live
    # in coverage, which is imported (with numpy) on first access only.
    # This goes at the next benchmark change, when perfbench imports
    # them from coverage.
    if name in _COVERAGE_NAMES:
        from . import coverage

        return getattr(coverage, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
