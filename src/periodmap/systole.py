"""Conformal systole of a unimodular lattice at a period point.

The period point is a maximal positive-definite subspace H of the
ambient form.  Splitting an integer class w = w+ + w- along H and its
orthogonal complement gives the squared norm Q(w+, w+) - Q(w-, w-),
a positive definite quadratic form on the lattice.  The conformal
systole is its minimum over nonzero integer vectors.

Every period point is a rational subspace: a hyperboloid point's float
coordinates are dyadic rationals, so the line through them is one, and
both constructors build that line as one integer row over one common
denominator.  From the orthogonal integer frame w_j of H that checked
it, the norm form is sum_j 2 (L / Q(w_j)) (G w_j)(G w_j)^t - L G,
L = lcm Q(w_j), reduced by integral LLL; one Fincke-Pohst enumerator
searches the whole seed ellipsoid of the reduced form (the lattice
vectors no longer than the shortest basis vector), shrinking each
coordinate range as the best norm found falls.  That exact enumeration
is the certificate.  The search for the supremum over the period domain
is in ``supremum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bilinear import (
    GramForm,
    Subspace,
    _clear,
    _dot,
    _exact,
    _gram_of,
    _positive_frame,
    as_vector,
    minkowski_form,
    signature,
    subspace_signature,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    NumericalDomainError,
    PreconditionError,
    ResourceError,
)
from .grassmannian import HPoint

# relative to the norm, absolute below 1: a float norm this near the least
# one found ties with it, so a float search keeps every vector within
# rounding of its minimum (exact norms tie only when equal)
SHORTEST_SLACK = 1e-9


@dataclass(frozen=True)
class PeriodPoint:
    """Maximal positive-definite subspace of the ambient form, rational."""

    subspace: Subspace

    def __post_init__(self):
        bp = signature(self.ambient).b_plus
        sig = subspace_signature(self.subspace)
        if tuple(sig) != (self.subspace.dim, 0, 0) or self.subspace.dim != bp:
            raise PreconditionError(
                f"period subspace must be maximal positive definite,"
                f" got signature {tuple(sig)} with b+ = {bp}"
            )

    @property
    def ambient(self) -> GramForm:
        return self.subspace.ambient


def period_point(subspace: Subspace) -> PeriodPoint:
    return PeriodPoint(subspace)


def period_point_from_hpoint(point: HPoint) -> PeriodPoint:
    """The line through a hyperboloid point, on the standard form.

    Every float is a dyadic rational p_i / 2^e_i (``as_integer_ratio``),
    so the line is rational: its generator is the integer row
    (p_i 2^(k - e_i)) over 2^k, the largest 2^e_i.  Any other real is
    read exactly (``bilinear._exact``), and the row is then taken over
    the least common denominator.
    """
    ratios = [(x if type(x) is float else _exact(x)).as_integer_ratio() for x in point.coords]
    den = math.lcm(*[q for _, q in ratios])
    row = [p * (den // q) for p, q in ratios]
    return PeriodPoint(Subspace._framed(minkowski_form(point.n), [row], d=den))


def rational_disk_period_point(
    form: GramForm, disk: Sequence[Fraction]
) -> PeriodPoint:
    """Exact period point on the standard form from rational disk coordinates.

    The positive line through the hyperboloid point over a rational disk
    point d has the generator (1 + |d|^2, 2 d_1, ..., 2 d_n).  With D the
    common denominator of d and a = D d, that is the integer row
    (D^2 + |a|^2, 2 D a_1, ..., 2 D a_n) over D^2, reduced by the gcd of
    D^2 and its entries; the disk point is read once, and no Fraction is
    formed after it.
    """
    dd = as_vector(disk)
    if len(dd) != form.dim - 1:
        raise DimensionMismatchError(
            f"disk point must have {form.dim - 1} coordinates, got {len(dd)}"
        )
    a, den = _clear(dd)
    den2 = den * den
    r2 = sum(v * v for v in a)  # den^2 |d|^2
    if r2 >= den2:
        raise DomainError("disk point must have norm < 1")
    if not dd or form != minkowski_form(len(dd)):
        raise PreconditionError("rational disk path needs the standard diagonal form")
    gen = [den2 + r2] + [2 * den * v for v in a]
    g = math.gcd(den2, *gen)
    return PeriodPoint(Subspace._framed(form, [[v // g for v in gen]], d=den2 // g))


# ---------------------------------------------------------------------------
# the norm
# ---------------------------------------------------------------------------


def _norm_matrix_int(pp: PeriodPoint) -> tuple[list[list[int]], int]:
    """(N, scale): the integer matrix N = scale M, with w^t M w = Q(w+, w+) - Q(w-, w-),
    from the split's frame w_j: sum_j 2 (L / Q(w_j)) (G w_j)(G w_j)^t - L G."""
    form = pp.ambient
    return _norm_matrix(form._igram, form._den, _positive_frame(pp.subspace))


def _norm_matrix(igram, den: int, ws: list[list[int]]) -> tuple[list[list[int]], int]:
    """Primitive (N, scale) for the span H of orthogonal integer rows ws, on igram / den.

    With P the orthogonal projection onto H the matrix M is G(2P - I):
    symmetric because GP is, positive definite because the form is
    positive on H and negative on the complement.  With G = igram the
    form's integer gram (``den`` times its gram), P = sum_j w_j (G w_j)^t
    / Q(w_j), so with L the lcm of the Q(w_j), L den M is N = sum_j
    2 (L / Q(w_j)) (G w_j)(G w_j)^t - L G: 2 (Gh)(Gh)^t - Q(h, h) G for a
    line h (b+ = 1), -G for H = 0 (b+ = 0).  N and the scale L den are
    then divided by their gcd.
    """
    q, y = _gram_of(ws, igram)
    big = math.lcm(*[q[j][j] for j in range(len(ws))])
    n = [[-big * e for e in row] for row in igram]
    for j, yj in enumerate(y):
        t = 2 * big // q[j][j]
        for row, a in zip(n, yj):
            a *= t
            for c, b in enumerate(yj):
                row[c] += a * b
    g = math.gcd(big * den, *[x for row in n for x in row])
    return [[x // g for x in row] for row in n], big * den // g


# ---------------------------------------------------------------------------
# certified shortest vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystoleResult:
    value: float
    value_sq: Fraction
    minimizers: tuple[tuple[int, ...], ...]
    certified: bool  # exact integer arithmetic and a complete enumeration
    needed_radius: int

    def __str__(self):
        mins = ", ".join(str(m) for m in self.minimizers)
        tag = "certified" if self.certified else "not certified"
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


def _shortest(m, seed, slack=SHORTEST_SLACK):
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
    within ``slack`` (relative above 1) of the minimum counting as ties,
    so a wide slack returns every vector up to that bound.  Returns the
    minimum and one vector of each sign pair of minimizers.
    """
    d = len(m)
    exact = isinstance(seed, int)
    root = math.isqrt if exact else math.sqrt

    # row k of b ends as row k of the k-th scaled Schur complement;
    # p[k + 1] = b[k][k] is the k-th leading principal minor, p[0] = 1
    b = [list(row) for row in m]
    p = [1]
    for k in range(d):
        bk, pk, pivot = b[k], p[k], b[k][k]
        if pivot <= 0:  # only rounding makes a pivot of a norm matrix non-positive
            raise NumericalDomainError(f"norm matrix has non-positive pivot {pivot}")
        for i in range(k + 1, d):
            bi = b[i]
            bik = bi[k]
            for j in range(k + 1, d):
                t = pivot * bi[j] - bik * bk[j]
                bi[j] = t // pk if exact else t / pk
        p.append(pivot)
    x = [0] * d
    found = []
    # exact values tie only when equal
    bound = seed if exact else seed + slack * max(1.0, seed)
    nodes = 0

    def visit(k, tail, free):
        # tail = V_{k+1}; free once a later coordinate is nonzero, else
        # w_k >= 0 keeps one vector of each sign pair
        nonlocal bound, nodes
        bk, pk, pk1 = b[k], p[k], p[k + 1]
        s = 0
        for j in range(k + 1, d):
            s += bk[j] * x[j]
        room = (bound * pk1 - tail) * pk
        if room < 0:
            return
        r = root(room)
        lo = int(-((r + s) // pk1))
        if lo < 0 and not free:
            lo = 0
        hi = int((r - s) // pk1)
        if hi >= lo:
            nodes += hi - lo + 1
        if nodes > MAX_ENUMERATION:
            raise ResourceError(f"enumeration passed {MAX_ENUMERATION} nodes")
        at = bound
        tp = tail * pk
        xk = lo
        while xk <= hi:
            x[k] = xk
            t = pk1 * xk + s
            v = (tp + t * t) // pk1 if exact else (tp + t * t) / pk1
            if k:
                visit(k - 1, v, free or xk != 0)
            elif (free or xk) and v <= bound:
                found.append((v, tuple(x)))
                bound = min(bound, v if exact else v + slack * max(1.0, v))
            xk += 1
            if bound < at:  # the bound fell: cut the range's upper end to it
                at = bound
                room = (bound * pk1 - tail) * pk
                new = int((root(room) - s) // pk1) if room >= 0 else xk - 1
                if new < xk - 1:
                    new = xk - 1
                nodes -= hi - new  # only nodes it will no longer visit
                hi = new

    visit(d - 1, 0, False)
    if not found:
        raise NumericalDomainError("rounding lost every vector of the seed ellipsoid")
    best = min(v for v, _ in found)
    top = best if exact else best + slack * max(1.0, best)
    return best, [w for v, w in found if v <= top]


def conf_systole(pp: PeriodPoint) -> SystoleResult:
    """Minimum of the period norm over nonzero lattice vectors.

    The result reports ``needed_radius``, the radius of the coordinate
    box that provably holds every shortest vector (any vector outside it
    is longer than the best standard basis vector); no search enumerates
    that box.

    The period point's split is an orthogonal frame of integer rows w_j,
    from either constructor its one integer row h, and the norm matrix is
    the primitive N = sum_j 2 (L / Q(w_j)) (G w_j)(G w_j)^t - L G,
    L = lcm Q(w_j) (``_norm_matrix_int``): 2 (Gh)(Gh)^t - Q(h, h) G for
    a line.  The search is exact integer arithmetic from start to finish:
    it enumerates the whole seed ellipsoid of N reduced by integral LLL
    (``_lll``) and maps the minimizers back through the unimodular
    transform.  That complete exact enumeration is the certificate, and
    it does not depend on how well LLL reduced, so every result is
    certified.
    """
    m, scale = _norm_matrix_int(pp)
    needed = max(_exact_radii(pp.ambient, m, scale))
    best, minimizers = _minimum(m, scale)
    return SystoleResult(
        value=math.sqrt(best),
        value_sq=best,
        minimizers=minimizers,
        certified=True,
        needed_radius=needed,
    )


def _minimum(m: list[list[int]], scale: int) -> tuple[Fraction, tuple]:
    """Exact minimum of w^t m w / scale over nonzero integer w, and its minimizers.

    The integer matrix is reduced by integral LLL and its whole seed
    ellipsoid enumerated; the minimizers, both signs, come back sorted
    in the coordinates of ``m``.
    """
    u, g = _lll(m)
    best, coords = _shortest(g, min(g[i][i] for i in range(len(g))))
    ut = list(zip(*u))
    reps = [tuple([_dot(col, c) for col in ut]) for c in coords]
    reps += [tuple([-x for x in w]) for w in reps]
    reps.sort()
    return Fraction(best, scale), tuple(reps)


# ---------------------------------------------------------------------------
# search names that perfbench reads from this module
# ---------------------------------------------------------------------------


def __getattr__(name: str):
    # perfbench reads these two as systole attributes; they live in
    # supremum, which is imported on first access only.  This goes at the
    # next benchmark change, when perfbench imports them from supremum.
    if name in ("cs_supremum", "CsSearchConfig"):
        from . import supremum

        return getattr(supremum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
