"""Conformal systole of a unimodular lattice at a period point.

The period point is a maximal positive-definite subspace H of the
ambient form.  Splitting an integer class w = w+ + w- along H and its
orthogonal complement gives the squared norm Q(w+, w+) - Q(w-, w-),
a positive definite quadratic form on the lattice.  The conformal
systole is its minimum over nonzero integer vectors; the supremum of
that minimum over all period points is a lattice invariant.

Exact rational subspaces get exact enumeration certificates; float
hyperboloid points run the same search in floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bilinear import (
    GramForm,
    Subspace,
    _int_det,
    _mat_inverse,
    as_vector,
    minkowski_form,
    signature,
    standard_embedding,
    subspace_signature,
)
from .errors import (
    DomainError,
    InputError,
    PreconditionError,
    ResourceError,
)
from .grassmannian import HPoint, disk_to_hpoint, to_poincare_disk


@dataclass(frozen=True)
class PeriodPoint:
    """Maximal positive subspace of the ambient form.

    Exactly one of ``subspace`` (rational, exact arithmetic throughout)
    and ``point`` (hyperboloid float path, ambient must be the standard
    diagonal form) is set.
    """

    ambient: GramForm
    subspace: Subspace | None = None
    point: HPoint | None = None

    def __post_init__(self):
        if (self.subspace is None) == (self.point is None):
            raise InputError("set exactly one of subspace and point")
        bp = signature(self.ambient).b_plus
        if self.subspace is not None:
            if self.subspace.ambient != self.ambient:
                raise InputError("subspace ambient does not match")
            sig = subspace_signature(self.subspace)
            if tuple(sig) != (self.subspace.dim, 0, 0) or self.subspace.dim != bp:
                raise PreconditionError(
                    f"period subspace must be maximal positive definite,"
                    f" got signature {tuple(sig)} with b+ = {bp}"
                )
        else:
            if self.ambient.gram != minkowski_form(self.point.n).gram:
                raise PreconditionError(
                    "the hyperboloid path needs the standard diagonal form"
                )

    @property
    def is_exact(self) -> bool:
        return self.subspace is not None


def period_point(subspace: Subspace) -> PeriodPoint:
    return PeriodPoint(ambient=subspace.ambient, subspace=subspace)


def period_point_from_hpoint(point: HPoint) -> PeriodPoint:
    return PeriodPoint(ambient=minkowski_form(point.n), point=point)


# ---------------------------------------------------------------------------
# the norm
# ---------------------------------------------------------------------------


def _norm_matrix_exact(pp: PeriodPoint) -> list[list[Fraction]]:
    """M with w^t M w = Q(w+, w+) - Q(w-, w-), exactly.

    With P the orthogonal projection onto H the matrix is G(2P - I):
    symmetric because GP is, positive definite because the form is
    positive on H and negative on the complement.
    """
    form = pp.ambient
    sub = pp.subspace
    rinv = _mat_inverse(sub.restricted_gram())
    # columns of Y are G b_i, so M = 2 Y R^{-1} Y^t - G
    y = [form.apply(b) for b in sub.basis]
    k = len(y)
    z = [[sum(y[j][a] * rinv[j][i] for j in range(k)) for i in range(k)]
         for a in range(form.dim)]
    return [
        [2 * sum(z[a][i] * y[i][c] for i in range(k)) - form.gram[a][c]
         for c in range(form.dim)]
        for a in range(form.dim)
    ]


def _norm_matrix_float(pp: PeriodPoint) -> np.ndarray:
    u = np.array(pp.point.coords, dtype=float)
    g = np.diag([1.0] + [-1.0] * pp.point.n)
    gu = g @ u
    return 2.0 * np.outer(gu, gu) - g


def norm_matrix(pp: PeriodPoint):
    return _norm_matrix_exact(pp) if pp.is_exact else _norm_matrix_float(pp)


def period_norm_sq(pp: PeriodPoint, w: Sequence):
    """Exact Fraction on the rational path, float otherwise."""
    if pp.is_exact:
        m = _norm_matrix_exact(pp)
        v = as_vector(w)
        if len(v) != pp.ambient.dim:
            raise InputError("vector length does not match the form")
        return sum(v[i] * m[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))
    m = _norm_matrix_float(pp)
    v = np.array([float(x) for x in w], dtype=float)
    if v.shape != (pp.ambient.dim,):
        raise InputError("vector length does not match the form")
    return float(v @ m @ v)


def period_norm(pp: PeriodPoint, w: Sequence) -> float:
    val = period_norm_sq(pp, w)
    if val < 0:
        raise DomainError(f"norm matrix is not positive on {w}: {val}")
    return math.sqrt(float(val))


# ---------------------------------------------------------------------------
# certified shortest vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystoleResult:
    value: float
    value_sq: object  # Fraction on the exact path, float otherwise
    minimizers: tuple[tuple[int, ...], ...]
    bound_used: int
    certified: bool
    needed_radius: int

    def __str__(self):
        mins = ", ".join(str(m) for m in self.minimizers)
        tag = "certified" if self.certified else (
            f"UNCERTIFIED (needs radius {self.needed_radius})"
        )
        return f"conf = {self.value:.12g} at {mins} [{tag}, box {self.bound_used}]"


MAX_ENUMERATION = 4 * 10**7


def _box_radii(minv_diag, budget) -> list[int]:
    # |x_i| <= sqrt(budget * (M^{-1})_ii) on the ellipsoid q <= budget
    radii = []
    for entry in minv_diag:
        bound = budget * entry
        if bound < 0:
            raise DomainError("norm form is not positive definite")
        radii.append(math.isqrt(int(bound)))
    return radii


def conf_systole(
    pp: PeriodPoint, lattice_bound: int | None = None, lattice_scale: int = 1
) -> SystoleResult:
    """Certified minimum of the period norm over nonzero lattice vectors.

    The enumeration box comes from the inverse norm matrix: any vector
    outside it has norm above the seed value (the best standard basis
    vector), so searching the box alone is a proof of minimality.  When
    ``lattice_bound`` caps the box below that radius the search still
    runs and the result is flagged uncertified, carrying the radius a
    certificate would need.  ``lattice_scale``, an int of at least 1,
    evaluates the systole of the scaled sublattice (scale * Z^d).
    """
    if (
        isinstance(lattice_scale, bool)
        or not isinstance(lattice_scale, int)
        or lattice_scale < 1
    ):
        raise InputError(
            f"lattice scale must be an integer of at least 1, got {lattice_scale!r}"
        )
    d = pp.ambient.dim
    if pp.is_exact:
        m = _norm_matrix_exact(pp)
        minv = _mat_inverse(tuple(tuple(row) for row in m))
        seed = min(m[i][i] for i in range(d))  # q(e_i) = M_ii
        if seed <= 0:
            raise DomainError("norm form is not positive definite")
        radii = _box_radii([minv[i][i] for i in range(d)], seed)
    else:
        m = _norm_matrix_float(pp)
        minv = np.linalg.inv(m)
        seed = float(min(m[i][i] for i in range(d)))
        if seed <= 0:
            raise DomainError("norm form is not positive definite")
        # small inflation absorbs float rounding in the box bound
        radii = [
            int(math.floor(math.sqrt(seed * minv[i][i] * 1.0 + 1e-9) + 1e-9)) + 1
            for i in range(d)
        ]

    needed = max(radii)
    certified = True
    if lattice_bound is not None and needed > lattice_bound:
        radii = [min(r, lattice_bound) for r in radii]
        certified = False

    count = 1
    for r in radii:
        count *= 2 * r + 1
    if count > MAX_ENUMERATION:
        raise ResourceError(
            f"enumeration box of {count} points exceeds the supported size"
        )

    best = None
    best_vecs: list[tuple[int, ...]] = []
    if pp.is_exact:
        # float prefilter over the box, exact re-check of the shortlist;
        # the generous relative margin keeps the certificate honest
        mf = np.array([[float(x) for x in row] for row in m])
        grids = np.meshgrid(*[np.arange(-r, r + 1) for r in radii], indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1).astype(float)
        norms = np.einsum("ij,jk,ik->i", pts, mf, pts)
        norms[~np.any(pts != 0, axis=1)] = np.inf
        float_min = float(np.min(norms))
        shortlist = pts[norms <= float_min * (1.0 + 1e-6) + 1e-9]
        for h in shortlist:
            w = tuple(int(x) for x in h)
            if w < tuple(-x for x in w):
                continue  # sign representatives; both recorded below
            val = sum(
                w[i] * m[i][j] * w[j] for i in range(d) for j in range(d)
            )
            if best is None or val < best:
                best, best_vecs = val, [w]
            elif val == best:
                best_vecs.append(w)
    else:
        grids = np.meshgrid(*[np.arange(-r, r + 1) for r in radii], indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1).astype(float)
        norms = np.einsum("ij,jk,ik->i", pts, m, pts)
        nonzero = np.any(pts != 0, axis=1)
        norms[~nonzero] = np.inf
        best = float(np.min(norms))
        tol = 1e-9 * max(1.0, best)
        hits = pts[norms <= best + tol]
        seen = set()
        for h in hits:
            w = tuple(int(x) for x in h)
            key = max(w, tuple(-x for x in w))
            if key not in seen:
                seen.add(key)
                best_vecs.append(key)

    minimizers = []
    for w in best_vecs:
        minimizers.append(tuple(lattice_scale * x for x in w))
        minimizers.append(tuple(-lattice_scale * x for x in w))
    minimizers.sort()

    scale_sq = lattice_scale * lattice_scale
    value_sq = best * scale_sq
    return SystoleResult(
        value=math.sqrt(float(best)) * lattice_scale,
        value_sq=value_sq,
        minimizers=tuple(minimizers),
        bound_used=max(radii),
        certified=certified,
        needed_radius=needed,
    )


# ---------------------------------------------------------------------------
# supremum search over the period domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsSearchConfig:
    grid: float = 0.05
    patch_radius: float = 0.9
    refine_tol: float = 1e-6
    max_refine_rounds: int = 60


@dataclass(frozen=True)
class CsResult:
    value: float
    disk_point: tuple[float, ...]
    grid: float
    refine_tol: float
    evaluations: int = field(compare=False, default=0)

    def __str__(self):
        pt = ", ".join(f"{x:.8f}" for x in self.disk_point)
        return (
            f"CS = {self.value:.12g} at disk ({pt})"
            f" [grid {self.grid}, refined to {self.refine_tol}]"
        )


def _conf_at_unit_vector(form: GramForm, u: np.ndarray, gram: np.ndarray) -> float:
    """Float conformal systole when the positive line is spanned by u."""
    gu = gram @ u
    m = 2.0 * np.outer(gu, gu) - gram
    minv = np.linalg.inv(m)
    seed = float(np.min(np.diag(m)))
    if seed <= 0:
        raise DomainError("positive line is not positive for this form")
    d = form.dim
    radii = [
        int(math.floor(math.sqrt(max(seed * minv[i][i], 0.0)) + 1e-9)) + 1
        for i in range(d)
    ]
    count = 1
    for r in radii:
        count *= 2 * r + 1
    if count > MAX_ENUMERATION:
        raise ResourceError("supremum search hit an enumeration box too large")
    grids = np.meshgrid(*[np.arange(-r, r + 1) for r in radii], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1).astype(float)
    norms = np.einsum("ij,jk,ik->i", pts, m, pts)
    norms[~np.any(pts != 0, axis=1)] = np.inf
    return math.sqrt(float(np.min(norms)))


class _DiskObjective:
    """conf as a function of Poincare-disk coordinates, via the embedding."""

    def __init__(self, form: GramForm):
        sig = signature(form)
        if sig.b_plus != 1 or sig.b_null != 0:
            raise PreconditionError(
                f"supremum search needs signature (1, n), got {tuple(sig)}"
            )
        self.form = form
        self.n = form.dim - 1
        emb = standard_embedding(form)
        cols = np.array(
            [[float(x) for x in row] for row in emb.matrix], dtype=float
        )  # rows of emb.matrix are rows; columns are basis vectors
        scales = np.array([math.sqrt(float(s)) for s in emb.scales])
        self.back = cols / scales[np.newaxis, :]  # maps R^{1,n} coords to form space
        self.gram = np.array([[float(x) for x in r] for r in form.gram])
        self.evaluations = 0

    def __call__(self, disk: Sequence[float]) -> float:
        r2 = sum(x * x for x in disk)
        if r2 >= 0.999999:
            return -math.inf
        hp = disk_to_hpoint(disk)
        u = self.back @ np.array(hp.coords)
        self.evaluations += 1
        return _conf_at_unit_vector(self.form, u, self.gram)


def _grid_points(n: int, radius: float, step: float):
    ticks = np.arange(-radius, radius + step / 2, step)
    for pt in itertools.product(ticks, repeat=n):
        if sum(x * x for x in pt) <= radius * radius:
            yield tuple(float(x) for x in pt)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def cs_supremum(form: GramForm, search: CsSearchConfig | None = None) -> CsResult:
    """Best-found supremum of the conformal systole over period points.

    Coarse deterministic grid over a Poincare-disk patch, then
    coordinate-wise golden-section refinement around the best grid
    point.  The result is the best value found at the stated
    resolution; no global optimality is claimed beyond it.
    """
    cfg = search or CsSearchConfig()
    obj = _DiskObjective(form)
    best_pt = (0.0,) * obj.n
    best_val = obj(best_pt)
    for pt in _grid_points(obj.n, cfg.patch_radius, cfg.grid):
        val = obj(pt)
        if val > best_val + 1e-15:
            best_val, best_pt = val, pt

    span = cfg.grid
    pt = list(best_pt)
    for _ in range(cfg.max_refine_rounds):
        moved = 0.0
        for axis in range(obj.n):
            lo, hi = pt[axis] - span, pt[axis] + span

            def along(x, axis=axis):
                q = list(pt)
                q[axis] = x
                return obj(q)

            x, val = _golden_max(along, lo, hi, cfg.refine_tol / 4.0)
            if val > best_val:
                moved = max(moved, abs(x - pt[axis]))
                pt[axis] = x
                best_val = val
        span = max(span / 2.0, cfg.refine_tol)
        if moved < cfg.refine_tol and span <= cfg.refine_tol:
            break
    return CsResult(
        value=best_val,
        disk_point=tuple(pt),
        grid=cfg.grid,
        refine_tol=cfg.refine_tol,
        evaluations=obj.evaluations,
    )


def cs_invariance_check(
    form_a: GramForm,
    form_b: GramForm,
    u_matrix: Sequence[Sequence[int]],
    search: CsSearchConfig | None = None,
) -> bool:
    """Equal lattices must give equal suprema, within search tolerance.

    ``u_matrix`` must be an integer matrix with determinant +-1 carrying
    the first form to the second by congruence, exactly; that makes the
    two lattices isomorphic as quadratic lattices, so the supremum is
    the same number and the two searches must agree within twice the
    refinement tolerance.
    """
    cfg = search or CsSearchConfig()
    rows = [[Fraction(x) for x in row] for row in u_matrix]
    d = form_a.dim
    if len(rows) != d or any(len(r) != d for r in rows):
        raise InputError("congruence matrix has the wrong shape")
    if any(x.denominator != 1 for r in rows for x in r):
        raise InputError("congruence matrix must be integral")
    det = _int_det([[int(x) for x in r] for r in rows])
    if det not in (1, -1):
        raise PreconditionError(f"matrix must be unimodular, determinant {det}")
    conj = [
        [
            sum(
                rows[i][a] * form_a.gram[i][j] * rows[j][b]
                for i in range(d)
                for j in range(d)
            )
            for b in range(d)
        ]
        for a in range(d)
    ]
    if tuple(tuple(r) for r in conj) != form_b.gram:
        raise PreconditionError("congruence does not carry the first form to the second")
    res_a = cs_supremum(form_a, cfg)
    res_b = cs_supremum(form_b, cfg)
    return abs(res_a.value - res_b.value) < 2.0 * cfg.refine_tol


def rational_disk_period_point(
    form: GramForm, disk: Sequence[Fraction]
) -> PeriodPoint:
    """Exact period point on the standard form from rational disk coordinates.

    The positive line through the hyperboloid point over a rational disk
    point has a rational generator: (1 + r^2, 2 d_1, ..., 2 d_n).
    """
    dd = [Fraction(x) for x in disk]
    r2 = sum(x * x for x in dd)
    if r2 >= 1:
        raise DomainError("disk point must have norm < 1")
    gen = [1 + r2] + [2 * x for x in dd]
    if form.gram != minkowski_form(len(dd)).gram:
        raise PreconditionError("rational disk path needs the standard diagonal form")
    return period_point(Subspace(form, [gen]))


def disk_of_period_point(pp: PeriodPoint) -> tuple[float, ...]:
    """Disk coordinates of a (1, n) period point, for reporting."""
    if signature(pp.ambient).b_plus != 1:
        raise PreconditionError("disk coordinates need a (1, n) ambient form")
    if pp.is_exact:
        gen = pp.subspace.basis[0]
        from .grassmannian import line_to_hpoint

        emb = standard_embedding(pp.ambient)
        return to_poincare_disk(line_to_hpoint(emb.to_minkowski(gen)))
    return to_poincare_disk(pp.point)
