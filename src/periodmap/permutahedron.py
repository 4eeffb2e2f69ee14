"""Permutahedron and simplex geometry: face lattice, collapse, projection.

The n-permutahedron is realized as the convex hull of the permutations
of (1, ..., n+1); the ambient simplex is the tight enclosing one
{x_i >= 1, sum x = (n+1)(n+2)/2} in the same hyperplane, so the
permutahedron is its truncation.  Faces are labelled by strictly
increasing chains of nonempty proper subsets of {1, ..., n+1}.

Everything here is exact: the combinatorics, the collapse map on
rational inputs, the nearest-point projection and the JSON export, all
in ints and Fractions.  The permutahedron is the set of points
majorized by (n+1, ..., 1): the least sum of k coordinates is the sum
of the k smallest, so one sort and its prefix sums state every subset
inequality.  Membership and the collapse map read them that way, and
the nearest point is a sort followed by an isotonic regression
(pool-adjacent-violators); nothing enumerates coordinate subsets or
faces outside the face lattice itself.  The float half, the batched
collapse, the test maps, the coverage certificate and the OFF export,
is ``coverage``, the one module that loads numpy.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, InputError, ResourceError

DAMPING_SLACK = Fraction(1, 4)  # slack scale below which coordinates are pulled in
MAX_FACE_N = 7  # largest n whose faces are enumerated: n = 8 has 7,087,260


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


def _check_n(n) -> None:
    """Refuse an n that is not a positive int (InputError) or that is
    above MAX_FACE_N (ResourceError), before any face is made."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise InputError(f"n must be a positive int, got {n!r}")
    if n > MAX_FACE_N:
        raise ResourceError(f"face enumeration capped at n = {MAX_FACE_N}, got {n}")


def enumerate_faces(n: int, codim: int) -> list[NestedSequence]:
    """All chains of the given length, each once, in lexicographic order.

    n must be a positive int (InputError) and at most MAX_FACE_N
    (ResourceError).
    """
    _check_n(n)
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
    _check_n(n)
    out = []
    for codim in range(1, n + 1):
        out.extend(enumerate_faces(n, codim))
    return out


def face_counts(n: int) -> list[int]:
    """The number of faces of each codimension 1..n, in closed form.

    A face of codimension c is a chain of c proper subsets, that is an
    ordered partition of {1, ..., n+1} into c+1 blocks, so there are as
    many as maps of n+1 points onto c+1 labels: by inclusion-exclusion
    the sum over j of (-1)^j C(c+1, j) (c+1-j)^(n+1), or (c+1)! S(n+1,
    c+1).  n is refused as in enumerate_faces.
    """
    _check_n(n)
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
