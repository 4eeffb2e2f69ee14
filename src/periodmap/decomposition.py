"""Dimension bookkeeping for a space split along a separating hypersurface.

The input is the algebraic shadow of the split: compactly supported
classes of the two pieces (H1, H2), the isotropic image D of the
connecting map, and the two relative second Betti numbers.  The module
checks the additivity identities, completes D to a sum of hyperbolic
planes, and forms the maximal semi-positive subspace that the stretched
family of metrics limits to.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .bilinear import (
    GramForm,
    Signature,
    Subspace,
    _solve,
    nullspace,
    positive_part,
    signature,
    subspace_intersect,
    subspace_signature,
    subspace_sum,
)
from .errors import InconsistentDataError, InputError, PreconditionError

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class DecompositionData:
    """Split data: pairwise orthogonal H1, H2 and isotropic D inside ambient.

    bhat1 and bhat2 are the relative Betti numbers of the two pieces.
    They are independent inputs: the dimension identity relating them to
    the ambient dimension is a check, not a consequence of the subspace
    data.  The structural checks of ``validate`` run at most once per
    instance: ``report`` caches their result.
    """

    ambient: GramForm
    H1: Subspace
    H2: Subspace
    D: Subspace
    bhat1: int
    bhat2: int

    def __post_init__(self):
        for name in ("H1", "H2", "D"):
            sub = getattr(self, name)
            if sub.ambient != self.ambient:
                raise InputError(f"{name} does not live in the ambient form")
        for name in ("bhat1", "bhat2"):
            b = getattr(self, name)
            if isinstance(b, bool) or not isinstance(b, int) or b < 0:
                raise InputError(f"{name} must be a non-negative integer, got {b!r}")

    @cached_property
    def report(self) -> "ValidationReport":
        return validate(self)

    def to_json(self) -> dict:
        return {
            "ambient": self.ambient.to_json(),
            "H1": self.H1.to_json(include_ambient=False),
            "H2": self.H2.to_json(include_ambient=False),
            "D": self.D.to_json(include_ambient=False),
            "bhat1": self.bhat1,
            "bhat2": self.bhat2,
        }

    @staticmethod
    def from_json(data: dict) -> "DecompositionData":
        if not isinstance(data, dict):
            raise InputError("decomposition JSON must be an object")
        missing = {"ambient", "H1", "H2", "D", "bhat1", "bhat2"} - set(data)
        if missing:
            raise InputError(f"decomposition JSON missing keys: {sorted(missing)}")
        ambient = GramForm.from_json(data["ambient"])
        return DecompositionData(
            ambient=ambient,
            H1=Subspace.from_json(data["H1"], ambient),
            H2=Subspace.from_json(data["H2"], ambient),
            D=Subspace.from_json(data["D"], ambient),
            bhat1=data["bhat1"],
            bhat2=data["bhat2"],
        )


@dataclass(frozen=True)
class ValidationIssue:
    condition: str
    witness: tuple[Vector, Vector]

    def __str__(self):
        a, b = self.witness
        return f"{self.condition}: witness {tuple(map(str, a))}, {tuple(map(str, b))}"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(i) for i in self.issues)


def _first_pairing(q: GramForm, pairs) -> tuple[Vector, Vector] | None:
    """The first pair (a, b) with Q(a, b) != 0, or None."""
    return next(((a, b) for a, b in pairs if q.evaluate(a, b) != 0), None)


def validate(data: DecompositionData) -> ValidationReport:
    """Check every structural condition, collecting witnesses for failures.

    Failures are report entries rather than exceptions so that a single
    pass surfaces everything wrong with the input.
    """
    issues = []
    q = data.ambient
    for name, sub in (("H1", data.H1), ("H2", data.H2)):
        rad = nullspace(sub)
        if not rad.is_zero():
            w = rad.canonical[0]
            issues.append(ValidationIssue(f"pairing degenerate on {name}", (w, w)))
    d = data.D.basis
    for condition, pairs in (
        ("H1 not orthogonal to H2", itertools.product(data.H1.basis, data.H2.basis)),
        ("pairing not trivial on D", ((a, b) for i, a in enumerate(d) for b in d[i:])),
        ("D not orthogonal to H1 + H2", itertools.product(d, data.H1.basis + data.H2.basis)),
    ):
        hit = _first_pairing(q, pairs)
        if hit is not None:
            issues.append(ValidationIssue(condition, hit))
    h1h2 = subspace_sum(data.H1, data.H2)
    overlap = subspace_intersect(data.H1, data.H2)
    if overlap.is_zero():
        overlap = subspace_intersect(h1h2, data.D)
    if not overlap.is_zero():
        w = overlap.canonical[0]
        issues.append(ValidationIssue("H1 + H2 + D is not a direct sum", (w, w)))
    return ValidationReport(tuple(issues))


def _require_valid(data: DecompositionData) -> None:
    report = data.report
    if not report.ok:
        raise PreconditionError(f"invalid decomposition data: {report}")


def check_betti_identity(data: DecompositionData) -> bool:
    """Whole = piece + piece + twice the connecting image, in dimensions."""
    _require_valid(data)
    return data.ambient.dim == data.bhat1 + data.bhat2 + 2 * data.D.dim


def check_bpm_identity(data: DecompositionData) -> bool:
    """Signature additivity: each of b+ and b- splits as H1 + H2 + dim D."""
    _require_valid(data)
    amb = signature(data.ambient)
    s1 = subspace_signature(data.H1)
    s2 = subspace_signature(data.H2)
    k = data.D.dim
    return (
        amb.b_plus == s1.b_plus + s2.b_plus + k
        and amb.b_minus == s1.b_minus + s2.b_minus + k
    )


@dataclass(frozen=True)
class HyperbolicComplement:
    """Dual subspace W completing D to a sum of hyperbolic planes.

    pairing_matrix is the Gram matrix of the restricted pairing in the
    interleaved basis d1, w1, d2, w2, ...; the construction makes it
    exactly block diagonal with [[0,1],[1,0]] blocks.
    """

    W: Subspace
    pairing_matrix: tuple[Vector, ...]


def hyperbolic_complement(data: DecompositionData) -> HyperbolicComplement:
    """Solve for a dual of D that is null, normalized, and clears H1 + H2.

    Each dual vector w_j satisfies Q(d_i, w_j) = delta_ij and is
    orthogonal to H1 + H2; cross terms Q(w_j, w_i) for i < j are removed
    with d_i shifts and the self-pairing with the shift
    w_j -> w_j - (1/2) Q(w_j, w_j) d_j, processed in index order.
    """
    _require_valid(data)
    if not (check_betti_identity(data) and check_bpm_identity(data)):
        raise PreconditionError("dimension identities fail; complement undefined")
    q = data.ambient
    n = q.dim
    d_basis = list(data.D.basis)
    side = list(data.H1.basis) + list(data.H2.basis)
    rows = [q.apply(v) for v in d_basis + side]
    ws: list[Vector] = []
    for j in range(len(d_basis)):
        rhs = [int(i == j) for i in range(len(rows))]
        w = _solve(rows, rhs)
        if w is None:
            raise InconsistentDataError(
                f"no dual vector for D basis vector {j}; data violates the split"
            )
        for i, prev in enumerate(ws):
            c = q.evaluate(w, prev)
            if c != 0:
                w = tuple(x - c * d for x, d in zip(w, d_basis[i]))
        self_pair = q.evaluate(w, w)
        if self_pair != 0:
            half = self_pair / 2
            w = tuple(x - half * d for x, d in zip(w, d_basis[j]))
        ws.append(w)

    w_sub = Subspace.spanned_by(q, ws)
    if w_sub.dim != len(d_basis):
        raise InconsistentDataError("dual vectors are dependent")
    total = subspace_sum(subspace_sum(data.H1, data.H2), subspace_sum(data.D, w_sub))
    if total.dim != n:
        raise InconsistentDataError(
            f"H1 + H2 + D + W spans only {total.dim} of {n} dimensions"
        )
    inter = []
    for d, w in zip(d_basis, ws):
        inter.extend([d, w])
    pairing = tuple(
        tuple(q.evaluate(a, b) for b in inter) for a in inter
    )
    return HyperbolicComplement(W=Subspace(q, ws), pairing_matrix=pairing)


def _is_maximal_positive_in(
    part: Subspace, whole: Subspace, d: Subspace, name: str
) -> None:
    # membership is only required modulo D: shifting a representative by
    # isotropic D vectors changes nothing downstream
    if not subspace_sum(whole, d).contains_subspace(part):
        raise PreconditionError(f"{name} is not contained in its piece (mod D)")
    sig = subspace_signature(part)
    if sig != Signature(part.dim, 0, 0):
        raise PreconditionError(f"{name} is not positive definite")
    if part.dim != subspace_signature(whole).b_plus:
        raise PreconditionError(f"{name} is not maximal positive in its piece")


def limit_period_subspace(
    data: DecompositionData, H1plus: Subspace, H2plus: Subspace
) -> Subspace:
    """Semi-positive subspace the period points converge to under stretching.

    The result is H1plus + D + H2plus.  Its positive part has dimension
    b_plus(ambient) - dim D and its radical is exactly D, so it lies on
    the boundary of the positive grassmannian precisely when D is
    nonzero.
    """
    _require_valid(data)
    if not check_bpm_identity(data):
        raise PreconditionError("signature additivity fails for this data")
    _is_maximal_positive_in(H1plus, data.H1, data.D, "H1plus")
    _is_maximal_positive_in(H2plus, data.H2, data.D, "H2plus")
    out = subspace_sum(subspace_sum(H1plus, H2plus), data.D)
    k = data.D.dim
    bp = signature(data.ambient).b_plus
    sig = subspace_signature(out)
    if out.dim != bp or sig != Signature(bp - k, 0, k):
        raise InconsistentDataError(
            f"limit subspace has signature {tuple(sig)}, expected ({bp - k}, 0, {k})"
        )
    return out


def canonical_limit(data: DecompositionData) -> Subspace:
    """The limit subspace of ``limit_period_subspace`` with the canonical
    maximal positive parts of H1 and H2 (``positive_part``)."""
    return limit_period_subspace(data, positive_part(data.H1), positive_part(data.H2))


# ---------------------------------------------------------------------------
# worked splits and the fuzz generator
# ---------------------------------------------------------------------------


def connected_sum_split() -> DecompositionData:
    """Two one-piece summands glued along a sphere: diag(1, -1), D = 0."""
    q = GramForm([[1, 0], [0, -1]])
    return DecompositionData(
        ambient=q,
        H1=q.subspace([(1, 0)]),
        H2=q.subspace([(0, 1)]),
        D=q.zero_subspace(),
        bhat1=1,
        bhat2=1,
    )


def product_split() -> DecompositionData:
    """A product split along a circle times a sphere: hyperbolic pairing,
    H1 = H2 = 0 and D spanned by one factor class."""
    q = GramForm([[0, 1], [1, 0]])
    return DecompositionData(
        ambient=q,
        H1=q.zero_subspace(),
        H2=q.zero_subspace(),
        D=q.subspace([(1, 0)]),
        bhat1=0,
        bhat2=0,
    )


def random_decomposition(
    rng: random.Random, max_dim: int = 8
) -> DecompositionData:
    """Valid split data with known ground truth, then disguised.

    The pairing is built block diagonal from a nondegenerate block for
    each piece plus hyperbolic planes for D and its dual, so every
    identity holds by construction; a random unimodular change of basis
    (12 elementary row steps) hides the blocks.
    """
    while True:
        n1 = rng.randint(0, 3)
        n2 = rng.randint(0, 3)
        k = rng.randint(0, 2)
        n = n1 + n2 + 2 * k
        if 1 <= n <= max_dim:
            break
    g0 = [[0] * n for _ in range(n)]
    for i in range(n1 + n2):
        g0[i][i] = rng.choice([1, 1, 2, -1, -1, -2, -3])
    for b in range(k):
        i = n1 + n2 + 2 * b
        g0[i][i + 1] = g0[i + 1][i] = 1

    # u carries the disguised coordinates to the block ones; inv is its
    # exact inverse, updated by the inverse of each elementary step
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(12):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        for row in inv:
            row[j] -= c * row[i]
    # the pairing in disguised coordinates, u^t g0 u, by integer sums
    g0u = [[sum(x * y for x, y in zip(row, col)) for col in zip(*u)] for row in g0]
    q = GramForm(
        [[sum(x * y for x, y in zip(a, b)) for b in zip(*g0u)] for a in zip(*u)]
    )

    def pulled(indices) -> Subspace:
        # the block basis vector e_i in disguised coordinates: column i of inv
        return Subspace.spanned_by(q, [[row[i] for row in inv] for i in indices])

    return DecompositionData(
        ambient=q,
        H1=pulled(range(n1)),
        H2=pulled(range(n1, n1 + n2)),
        D=pulled(range(n1 + n2, n, 2)),
        bhat1=n1,
        bhat2=n2,
    )
