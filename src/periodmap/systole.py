"""Conformal systole of a unimodular lattice at a period point.

The period point is a maximal positive-definite subspace H of the
ambient form.  Splitting an integer class w = w+ + w- along H and its
orthogonal complement gives the squared norm Q(w+, w+) - Q(w-, w-),
a positive definite quadratic form on the lattice.  The conformal
systole is its minimum over nonzero integer vectors; the supremum of
that minimum over all period points is a lattice invariant.

Shortest vectors come from one Fincke-Pohst enumerator, which searches
the whole seed ellipsoid (the lattice vectors no longer than the
shortest basis vector) and shrinks each coordinate range as the best
norm found falls.  On a rational subspace the norm form is an integer
matrix from start to finish: it is reduced by integral LLL, and the
enumeration of the reduced form's ellipsoid is an exact certificate.
Floats appear only for hyperboloid points, whose results are not
certified, and in the supremum search over a disk patch.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bilinear import (
    GramForm,
    Subspace,
    _clear,
    _dot,
    _int_adjugate,
    _int_det,
    as_matrix,
    as_vector,
    minkowski_form,
    signature,
    standard_embedding,
    subspace_signature,
)
from .errors import (
    DomainError,
    InputError,
    NumericalDomainError,
    PreconditionError,
    ResourceError,
)
from .grassmannian import HPoint, disk_to_hpoint


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
        if self.subspace is not None:
            if self.subspace.ambient != self.ambient:
                raise InputError("subspace ambient does not match")
            bp = signature(self.ambient).b_plus
            sig = subspace_signature(self.subspace)
            if tuple(sig) != (self.subspace.dim, 0, 0) or self.subspace.dim != bp:
                raise PreconditionError(
                    f"period subspace must be maximal positive definite,"
                    f" got signature {tuple(sig)} with b+ = {bp}"
                )
        elif self.ambient != minkowski_form(self.point.n):
            raise PreconditionError("the hyperboloid path needs the standard diagonal form")

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


def _norm_matrix_int(pp: PeriodPoint) -> tuple[list[list[int]], int]:
    """(N, scale): the integer matrix N = scale M, with w^t M w = Q(w+, w+) - Q(w-, w-).

    With P the orthogonal projection onto H the matrix M is G(2P - I):
    symmetric because GP is, positive definite because the form is
    positive on H and negative on the complement.  With G the form's
    integer gram (``den`` times its gram), X the cleared basis of H,
    Y = X G, R = Y X^t, r = det R and A = adj R, that is
    r den M = 2 Y^t A Y - r G; for a line (b+ = 1) A = 1 and r = Q(h, h).
    """
    form = pp.ambient
    x, _ = pp.subspace._int_basis()
    y = [form._image(v) for v in x]
    rmat = [[_dot(yi, xj) for xj in x] for yi in y]
    r = _int_det(rmat)
    cols = list(zip(*y))  # column a of Y
    ay = list(zip(*[[_dot(row, col) for col in cols] for row in _int_adjugate(rmat)]))
    dim = form.dim
    n = [[0] * dim for _ in range(dim)]
    for a in range(dim):
        for c in range(a, dim):
            n[a][c] = n[c][a] = 2 * _dot(cols[a], ay[c]) - r * form._igram[a][c]
    return n, r * form._den


def _norm_matrix_float(u: Sequence[float], gram=None) -> np.ndarray:
    """2 (Gu)(Gu)^t - G for the unit vector u; G defaults to diag(1, -1, ..., -1)."""
    if gram is None:
        gram = np.diag([1.0] + [-1.0] * (len(u) - 1))
    gu = gram @ np.asarray(u, dtype=float)
    return 2.0 * np.outer(gu, gu) - gram


def period_norm_sq(pp: PeriodPoint, w: Sequence):
    """Exact Fraction on the rational path, float otherwise."""
    if pp.is_exact:
        v = as_vector(w)
        if len(v) != pp.ambient.dim:
            raise InputError("vector length does not match the form")
        n, scale = _norm_matrix_int(pp)
        x, d = _clear(v)
        return Fraction(_dot(x, [_dot(row, x) for row in n]), scale * d * d)
    m = _norm_matrix_float(pp.point.coords)
    v = np.array([float(x) for x in w], dtype=float)
    if v.shape != (pp.ambient.dim,):
        raise InputError("vector length does not match the form")
    return float(v @ m @ v)


# ---------------------------------------------------------------------------
# certified shortest vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystoleResult:
    value: float
    value_sq: object  # Fraction on the exact path, float otherwise
    minimizers: tuple[tuple[int, ...], ...]
    certified: bool  # exact integer arithmetic and a complete enumeration
    needed_radius: int

    def __str__(self):
        mins = ", ".join(str(m) for m in self.minimizers)
        tag = "certified" if self.certified else "float, not certified"
        return (
            f"conf = {self.value:.12g} at {mins}"
            f" [{tag}, needed radius {self.needed_radius}]"
        )


MAX_ENUMERATION = 4 * 10**7


def _exact_radii(form: GramForm, n: list[list[int]], scale: int) -> list[int]:
    """Radii of the box holding every w with w^t M w <= seed, M = n / scale.

    The seed is the smallest diagonal entry of M, the norm of a basis
    vector.  The bound on |w_i| is sqrt(seed (M^-1)_ii), rounded down
    exactly.
    Because (2P - I)^2 = I, M^-1 = G^-1 M G^-1; with C = adj(den G) and
    c = det(den G) that is den^2 C n C / (c^2 scale), an integer ratio
    with no inverse to compute.
    """
    adj, det = form._adjugate
    if det == 0:
        raise PreconditionError("the form is degenerate, so its norm matrix is singular")
    seed = min(n[i][i] for i in range(len(n)))
    num = seed * form._den ** 2
    denom = (scale * det) ** 2
    return [
        math.isqrt(num * _dot(c, [_dot(row, c) for row in n]) // denom) for c in adj
    ]


def _lll(gram: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """LLL reduction (delta = 3/4) of a positive definite integer Gram matrix.

    Integral LLL (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7): with d_i the Gram determinant of the first i
    basis vectors and lam[k][j] = d_{j+1} mu_kj, every quantity stays an
    integer and every division is exact.  Returns (u, g): the rows of u
    are the reduced basis in the input's coordinates, so the matrix U with
    columns u is unimodular, and g = U^t gram U.
    """
    n = len(gram)
    g = [list(row) for row in gram]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    dd = [1] + [0] * n  # dd[i] = d_i, so dd[0] = 1
    lam = [[0] * n for _ in range(n)]

    def reduce(k: int, l: int) -> None:
        # size reduction: b_k -= q b_l with q the integer nearest mu_kl
        if 2 * abs(lam[k][l]) <= dd[l + 1]:
            return
        q = (2 * lam[k][l] + dd[l + 1]) // (2 * dd[l + 1])
        u[k] = [a - q * b for a, b in zip(u[k], u[l])]
        gkl = g[k][l]
        for i in range(n):
            if i != k:
                g[k][i] -= q * g[l][i]
                g[i][k] = g[k][i]
        g[k][k] += q * q * g[l][l] - 2 * q * gkl
        lam[k][l] -= q * dd[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k: int, kmax: int) -> None:
        u[k - 1], u[k] = u[k], u[k - 1]
        g[k - 1], g[k] = g[k], g[k - 1]
        for row in g:
            row[k - 1], row[k] = row[k], row[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        lk = lam[k][k - 1]
        b = (dd[k - 1] * dd[k + 1] + lk * lk) // dd[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (dd[k + 1] * lam[i][k - 1] - lk * t) // dd[k]
            lam[i][k - 1] = (b * t + lk * lam[i][k]) // dd[k + 1]
        dd[k] = b

    k, kmax = 0, -1
    while k < n:
        if k > kmax:  # incremental Gram-Schmidt of the new vector k
            kmax = k
            for j in range(k + 1):
                v = g[k][j]
                for i in range(j):
                    v = (dd[i + 1] * v - lam[k][i] * lam[j][i]) // dd[i]
                if j < k:
                    lam[k][j] = v
                elif v <= 0:
                    raise DomainError("Gram matrix is not positive definite")
                else:
                    dd[k + 1] = v
        if k:
            reduce(k, k - 1)
            if 4 * dd[k + 1] * dd[k - 1] < 3 * dd[k] ** 2 - 4 * lam[k][k - 1] ** 2:
                swap(k, kmax)  # the Lovasz condition fails
                k = max(1, k - 1)
                continue
            for l in range(k - 2, -1, -1):
                reduce(k, l)
        k += 1
    return u, g


def _shortest(m, seed):
    """Minimum of w^t m w over nonzero integer w, and its minimizers.

    Fincke-Pohst enumeration (Cohen, A Course in Computational Algebraic
    Number Theory, 2.7.3) completes squares from the last coordinate in,
    visiting only vectors inside the ellipsoid w^t m w <= bound; the bound
    starts at ``seed``, the norm of some lattice vector, and falls to the
    best value found, so the search is complete.  Each time it falls, the
    upper end of every open coordinate range is recomputed from it
    (Schnorr and Euchner, Math. Programming 66, 1994), so a skewed form
    stops walking a range that only the seed's ellipsoid held.  A search
    whose entered coordinate ranges hold more than MAX_ENUMERATION nodes
    is refused; a range that shrinks gives back the nodes it will no
    longer visit.  The squares come from pivot-scaled (Bareiss) Schur
    complements: with p_k the k-th leading principal minor and V the
    scaled form of the fixed tail, |p_k w_k + s_k| <= sqrt((bound p_k -
    V) p_{k-1}), so an integer ``m`` and ``seed`` keep every range an
    isqrt and every comparison exact.  Floats run the same steps, values
    within 1e-9 (relative above 1) of the minimum counting as ties.
    Returns the minimum and one vector of each sign pair of minimizers.
    """
    d = len(m)
    exact = isinstance(seed, int)
    root = math.isqrt if exact else math.sqrt
    div = operator.floordiv if exact else operator.truediv

    def tie(v):  # exact values tie only when equal
        return v if exact else v + 1e-9 * max(1.0, v)

    # row k of b ends as row k of the k-th scaled Schur complement;
    # p[k + 1] = b[k][k] is the k-th leading principal minor, p[0] = 1
    b = [list(row) for row in m]
    p = [1]
    for k in range(d):
        if b[k][k] <= 0:  # only rounding makes a pivot of a norm matrix non-positive
            raise NumericalDomainError(f"norm matrix has non-positive pivot {b[k][k]}")
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                b[i][j] = div(b[k][k] * b[i][j] - b[i][k] * b[k][j], p[k])
        p.append(b[k][k])
    x = [0] * d
    found = []
    bound = tie(seed)
    nodes = 0

    def visit(k, tail, free):
        # tail = V_{k+1}; free once a later coordinate is nonzero, else
        # w_k >= 0 keeps one vector of each sign pair
        nonlocal bound, nodes
        s = sum(b[k][j] * x[j] for j in range(k + 1, d))
        room = (bound * p[k + 1] - tail) * p[k]
        if room < 0:
            return
        r = root(room)
        lo = int(-((r + s) // p[k + 1]))
        if not free:
            lo = max(0, lo)
        hi = int((r - s) // p[k + 1])
        nodes += max(0, hi - lo + 1)
        if nodes > MAX_ENUMERATION:
            raise ResourceError(f"enumeration passed {MAX_ENUMERATION} nodes")
        at = bound
        xk = lo
        while xk <= hi:
            x[k] = xk
            t = p[k + 1] * xk + s
            v = div(tail * p[k] + t * t, p[k + 1])
            if k:
                visit(k - 1, v, free or xk != 0)
            elif (free or xk) and v <= bound:
                found.append((v, tuple(x)))
                bound = min(bound, tie(v))
            xk += 1
            if bound < at:  # the bound fell: cut the range's upper end to it
                at = bound
                room = (bound * p[k + 1] - tail) * p[k]
                new = int((root(room) - s) // p[k + 1]) if room >= 0 else xk - 1
                new = max(new, xk - 1)
                nodes -= hi - new  # only nodes it will no longer visit
                hi = new

    visit(d - 1, 0, False)
    if not found:
        raise NumericalDomainError("rounding lost every vector of the seed ellipsoid")
    best = min(v for v, _ in found)
    return best, [w for v, w in found if v <= tie(best)]


def _check_positive_int(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InputError(f"{what} must be an integer of at least 1, got {value!r}")


def conf_systole(pp: PeriodPoint, lattice_scale: int = 1) -> SystoleResult:
    """Minimum of the period norm over nonzero lattice vectors.

    The result reports ``needed_radius``, the radius of the coordinate
    box that provably holds every shortest vector (any vector outside it
    is longer than the best standard basis vector); no search enumerates
    that box.

    On a rational period point the norm matrix is an integer matrix N
    (``_norm_matrix_int``) and the search is exact integer arithmetic
    from start to finish: it enumerates the whole seed ellipsoid of N
    reduced by integral LLL (``_lll``) and maps the minimizers back
    through the unimodular transform.  That complete exact enumeration
    is the certificate, and it does not depend on how well LLL reduced;
    ``certified`` is true exactly on this path.  A hyperboloid point runs
    the same search in floats in the form's own basis, without
    reduction, and is not certified.  ``lattice_scale``, an int of at
    least 1, evaluates the systole of the scaled sublattice
    (scale * Z^d).
    """
    _check_positive_int(lattice_scale, "lattice scale")
    if pp.is_exact:
        m, scale = _norm_matrix_int(pp)
        needed = max(_exact_radii(pp.ambient, m, scale))
        u, g = _lll(m)
        best, coords = _shortest(g, min(g[i][i] for i in range(len(g))))
        reps = [[_dot(col, c) for col in zip(*u)] for c in coords]
        best = Fraction(best, scale)
    else:
        m = _norm_matrix_float(pp.point.coords).tolist()
        # the bound of _exact_radii, sqrt(seed (M^-1)_ii), with M^-1 = G M G
        # for G = diag(1, -1, ..., -1), rounded up with slack
        seed = min(m[i][i] for i in range(len(m)))
        needed = max(
            math.floor(math.sqrt(seed * m[i][i] + 1e-9) + 1e-9) + 1 for i in range(len(m))
        )
        best, reps = _shortest(m, seed)

    return SystoleResult(
        value=math.sqrt(float(best)) * lattice_scale,
        value_sq=best * (lattice_scale * lattice_scale),
        minimizers=tuple(sorted(
            tuple(s * lattice_scale * x for x in w) for w in reps for s in (1, -1)
        )),
        certified=pp.is_exact,
        needed_radius=needed,
    )


# ---------------------------------------------------------------------------
# supremum search over the period domain
# ---------------------------------------------------------------------------


PATCH_RADIUS = 0.9  # the searched disk patch; the objective is -inf outside it
MAX_REFINE_ROUNDS = 60


@dataclass(frozen=True)
class CsSearchConfig:
    grid: float = 0.05
    refine_tol: float = 1e-6


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


class _DiskObjective:
    """conf as a function of Poincare-disk coordinates, via the embedding.

    Inside the patch of radius PATCH_RADIUS the value is the minimum over
    the whole seed ellipsoid, with no box; outside it is -inf.  Every norm
    form of the patch is within a factor ((1 + r) / (1 - r))^2 of the one
    at its centre, r = PATCH_RADIUS, so enumerating in a lattice basis
    LLL-reduced for that one bounds the work by the rank alone.
    """

    def __init__(self, form: GramForm):
        sig = signature(form)
        if sig.b_plus != 1 or sig.b_null != 0:
            raise PreconditionError(
                f"supremum search needs signature (1, n), got {tuple(sig)}"
            )
        self.n = form.dim - 1
        emb = standard_embedding(form)
        # the rows of u span the lattice, reduced for the norm form at the
        # patch centre (the first embedding column); back maps R^{1,n}
        # coordinates to coordinates in that basis, U^-1 emb.matrix
        centre = period_point(Subspace(form, [[row[0] for row in emb.matrix]]))
        u, _ = _lll(_norm_matrix_int(centre)[0])
        inv = [[_int_det(u) * a for a in row] for row in zip(*_int_adjugate(u))]
        cols = [[_dot(row, col) for col in zip(*emb.matrix)] for row in inv]
        self.back = np.array(cols, dtype=float) / np.sqrt(np.array(emb.scales, dtype=float))
        self.gram = np.array([[form.evaluate(a, b) for b in u] for a in u], dtype=float)
        self.evaluations = 0

    def __call__(self, disk: Sequence[float]) -> float:
        if sum(x * x for x in disk) > PATCH_RADIUS * PATCH_RADIUS:
            return -math.inf
        u = self.back @ np.array(disk_to_hpoint(disk).coords)
        self.evaluations += 1
        m = _norm_matrix_float(u, self.gram).tolist()
        return math.sqrt(_shortest(m, min(m[i][i] for i in range(len(m))))[0])


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

    Coarse deterministic grid over the Poincare-disk patch of radius
    PATCH_RADIUS, then coordinate-wise golden-section refinement around
    the best grid point, for at most MAX_REFINE_ROUNDS rounds and inside
    the same patch.  The result is the best value found at the stated
    resolution; no global optimality is claimed beyond it.
    """
    cfg = search or CsSearchConfig()
    obj = _DiskObjective(form)
    best_pt = (0.0,) * obj.n
    best_val = obj(best_pt)
    for pt in _grid_points(obj.n, PATCH_RADIUS, cfg.grid):
        val = obj(pt)
        if val > best_val + 1e-15:
            best_val, best_pt = val, pt

    span = cfg.grid
    pt = list(best_pt)
    for _ in range(MAX_REFINE_ROUNDS):
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
    rows = as_matrix(u_matrix, "the congruence matrix")
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
    dd = as_vector(disk)
    r2 = sum(x * x for x in dd)
    if r2 >= 1:
        raise DomainError("disk point must have norm < 1")
    gen = [1 + r2] + [2 * x for x in dd]
    if form != minkowski_form(len(dd)):
        raise PreconditionError("rational disk path needs the standard diagonal form")
    return period_point(Subspace(form, [gen]))

