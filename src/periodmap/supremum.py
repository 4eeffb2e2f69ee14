"""Search for the supremum of the conformal systole over the period domain.

The supremum of the conformal systole over all period points is a
lattice invariant, CS.  For a form of signature (1, n) the period
points are the points of hyperbolic n-space, searched here over a patch
of the Poincare disk.  Floats appear only in this search, and the local
maximum it reports is proved, or not, by exact evaluations alone: the
exact systole at a rational line comes from ``systole``.

Nothing imports this module until a search runs: ``periodmap`` serves
``cs_supremum`` and ``cs_invariance_check`` on first access, and the
command line loads it for ``systole --sup`` only.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .bilinear import (
    GramForm,
    _dot,
    _gram_of,
    _int_adjugate,
    _rank_int,
    as_matrix,
    lorentzian_rank,
    standard_embedding,
)
from .errors import InputError, PreconditionError, ResourceError, check_real
from .grassmannian import HPoint, disk_to_hpoint, to_poincare_disk
from .systole import (
    _lll,
    _minimum,
    _norm_matrix,
    _shortest,
)


PATCH_RADIUS = 0.9  # the searched disk patch; _grid_points keeps no point outside it
MAX_CS_GRID = 10**5  # grid tuples one search may walk
ACTIVE_SLACK = 1e-9  # relative: a vector this near the minimum is active
CANDIDATE_SLACK = 0.5  # relative: the vectors an ascent step watches
EUTAXY_TOL = 1e-9  # relative: a least-norm gradient this short is zero
MAX_ASCENT_STEPS = 60
CERT_RADIUS = 1e-3  # the certified neighbourhood reaches no farther
CERT_SPLIT = 2  # each face of the certified cube starts as CERT_SPLIT^(n-1) cells
CERT_SCALE = CERT_SPLIT * 2**20  # chart steps per cube half-side: 20 halvings of a cell
MAX_CERT_CELLS = 1024  # exact evaluations one certificate may spend
# absolute, in conf: a grid point replaces the best only by beating it by
# more, so of two tied grid points the walk keeps the first
GRID_TIE = 1e-15
# relative to the largest entry: a pivot no larger makes the ascent's
# Gaussian elimination call its system singular (Wolfe's corral dependent)
PIVOT_TOL = 1e-13
# relative to the largest squared norm: Wolfe's least-norm point is optimal
# once no point lowers the inner product with it by more
WOLFE_TOL = 1e-12
# absolute, of weights summing to 1: a corral point whose weight is no
# larger leaves the corral
CORRAL_FLOOR = 1e-14
# relative, in y = e^(2t): a root this near 1 is the tie at t = 0 of two
# norms that both rise, not a crossing
CROSSING_TOL = 1e-12


@dataclass(frozen=True)
class CsSearchConfig:
    grid: float = 0.05
    refine_tol: float = 1e-6

    def __post_init__(self):
        check_real(self.grid, "grid")
        check_real(self.refine_tol, "refine_tol")


@dataclass(frozen=True)
class CsResult:
    """A CS search's answer: conf at a rational line q and what was proved.

    ``value`` is conf(q), exact up to the float rounding of its square
    root, and ``disk_point`` is q on the disk, up to float rounding.
    ``certified`` means conf has a local maximum within hyperbolic
    distance ``refine_tol`` of q, worth between ``value`` and
    ``value * exp(refine_tol)``; otherwise the value is the best found.
    ``minimizers`` are the exact minimal vectors at q, both signs, in the
    form's coordinates.
    """

    value: float
    disk_point: tuple[float, ...]
    grid: float
    refine_tol: float
    certified: bool
    minimizers: tuple[tuple[int, ...], ...]
    evaluations: int = field(compare=False, default=0)  # grid and ascent points
    exact_evaluations: int = field(compare=False, default=0)
    ascent_steps: int = field(compare=False, default=0)  # geodesic and Newton steps

    @property
    def status(self) -> str:
        return "local maximum, certified" if self.certified else "best found"

    def __str__(self):
        pt = ", ".join(f"{x:.6f}" for x in self.disk_point)
        return (
            f"CS = {self.value:.9f} at disk point ({pt})"
            f" [{self.status}; grid {self.grid}, refined to {self.refine_tol}]"
        )


class _DiskObjective:
    """conf as a function of Poincare-disk coordinates, via the embedding.

    Inside the patch of radius PATCH_RADIUS the value is the minimum over
    the whole seed ellipsoid, with no box.  Every norm form of the patch
    is within a factor ((1 + r) / (1 - r))^2 of the one at its centre,
    r = PATCH_RADIUS, so enumerating in a lattice basis LLL-reduced for
    that one bounds the work by the rank alone.

    The form is checked and reduced once, here; the methods then work in
    plain floats, on hyperboloid points h that the search lifts from the
    disk by ``disk_to_hpoint``.  ``near_minimal`` takes u = back h and
    the norm matrix 2 (Gu)(Gu)^t - G, and enumerates.  ``pairing`` maps a
    lattice vector w to the covector of h -> <w, back h>, and ``igram``
    is the reduced basis's exact gram times ``den``, for the certificate.
    ``evaluations`` counts the points asked about, enumerated or not.
    """

    def __init__(self, form: GramForm):
        self.n = lorentzian_rank(form, "cs_supremum")
        emb = standard_embedding(form)
        # the embedding's columns are primitive integer vectors; the rows of
        # u span the lattice, reduced for the norm form at the patch centre
        # (the first column); back maps R^{1,n} coordinates to coordinates
        # in that basis, U^-1 emb.matrix
        cols = list(zip(*emb.matrix))
        u = _lll(_norm_matrix(form._igram, form._den, cols[:1])[0])[0]
        adj, det = _int_adjugate(u)
        back = [[det * _dot(row, col) for col in cols] for row in zip(*adj)]
        scales = [math.sqrt(float(s)) for s in emb.scales]
        self.back = [[a / c for a, c in zip(row, scales)] for row in back]
        self.basis = u
        self.igram = _gram_of(u, form._igram)[0]
        self.den = form._den
        self.gram = [[x / self.den for x in row] for row in self.igram]
        # kept by columns: pairing[j] takes w to the coefficient of h_j
        pairing = [
            [sum(map(operator.mul, row, col)) for col in zip(*self.back)] for row in self.gram
        ]
        self.pairing = list(zip(*pairing))
        self.evaluations = 0
        self._lines = {}

    def near_minimal(self, h: Sequence[float], slack: float):
        """conf^2 at the hyperboloid point h, and the vectors within slack of it."""
        self.evaluations += 1
        u = [sum(map(operator.mul, row, h)) for row in self.back]
        gu = [sum(map(operator.mul, row, u)) for row in self.gram]
        m = [
            [2.0 * gi * gj - g for gj, g in zip(gu, row)]
            for gi, row in zip(gu, self.gram)
        ]
        return _shortest(m, min(m[i][i] for i in range(len(m))), slack)

    def line(self, w: tuple[int, ...]) -> tuple[list[float], float]:
        """(a, Q(w)) with a the covector of h -> <w, back h>, cached per w."""
        line = self._lines.get(w)
        if line is None:
            mul = operator.mul
            gw = [sum(map(mul, row, w)) for row in self.gram]
            a = [sum(map(mul, w, col)) for col in self.pairing]
            line = self._lines[w] = (a, sum(map(mul, w, gw)))
        return line

    def norm(self, w: tuple[int, ...], h: Sequence[float]) -> float:
        """N_w(h) = 2 <w, h>^2 - Q(w), w's norm at the hyperboloid point h."""
        a, q = self.line(w)
        return 2.0 * _dot(a, h) ** 2 - q


def _tick_count(radius: float, step: float) -> float:
    # the length of np.arange(-radius, radius + step / 2, step), unrounded
    return (radius + step / 2 + radius) / step


def _grid_ticks(radius: float, step: float) -> list[float]:
    # the ticks of np.arange(-radius, radius + step / 2, step), bit for
    # bit: numpy fills a float range as lo + i * ((lo + step) - lo)
    lo = -radius
    delta = (lo + step) - lo
    return [lo + i * delta for i in range(math.ceil(_tick_count(radius, step)))]


def check_cs_grid(n: int, step: float, name: str = "grid") -> None:
    """Refuse a grid whose walk passes MAX_CS_GRID points, before any work."""
    ticks = _tick_count(PATCH_RADIUS, step)
    # an axis longer than the limit decides it without the power
    count = math.ceil(ticks) ** n if ticks <= MAX_CS_GRID else math.inf
    if count > MAX_CS_GRID:
        walked = count if count < math.inf else f"{ticks:.3g}^{n}"
        raise ResourceError(
            f"{name} {step} walks {walked} grid points in dimension {n},"
            f" above the limit {MAX_CS_GRID}"
        )


def _grid_points(n: int, radius: float, step: float):
    ticks = _grid_ticks(radius, step)
    for pt in itertools.product(ticks, repeat=n):
        if sum(x * x for x in pt) <= radius * radius:
            yield pt


@functools.lru_cache(maxsize=8)
def _grid_table(n: int, step: float) -> tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]:
    """(disk point, hyperboloid point) of every grid point of the patch,
    in walk order, built once per (n, step) and kept among the last 8
    built.  Neither depends on the form; the hyperboloid point is
    ``disk_to_hpoint``'s.  Call check_cs_grid first: the table holds
    every point the walk visits."""
    return tuple(
        (pt, disk_to_hpoint(pt).coords) for pt in _grid_points(n, PATCH_RADIUS, step)
    )


def _grid_start(obj: _DiskObjective, step: float) -> tuple[tuple[float, ...], float]:
    """The grid point of largest conf, first found, and conf there.

    The grid and its hyperboloid points do not depend on the form: they
    are made once per (n, step) by ``_grid_table``, and check_cs_grid
    must have passed the step.  The patch centre starts as the best
    point, and a grid point replaces it only by beating it by more than
    GRID_TIE.  The walk keeps the line (a, Q(w)) of every vector an
    enumeration returns; a point where one of them has N_w(h) <= best^2
    (1 - ACTIVE_SLACK) has conf below best there, so it is counted as an
    evaluation but not enumerated.  N_w(h) is off by about 1e-13
    relative, far inside the margin, so the walk ends where one that
    enumerates every point ends, bit for bit.  The line that rules a
    point out, and the lines an enumeration finds, are tried first at
    the next point, its neighbour.
    """
    best_pt = (0.0,) * obj.n
    best_sq, first = obj.near_minimal(disk_to_hpoint(best_pt).coords, ACTIVE_SLACK)
    seen, known = set(first), [obj.line(w) for w in first]
    best_val = math.sqrt(best_sq)
    floor = best_val * best_val * (1.0 - ACTIVE_SLACK)
    mul = operator.mul
    ruled = 0
    for pt, h in _grid_table(obj.n, step):
        for i, (a, q) in enumerate(known):
            p = sum(map(mul, a, h))
            if 2.0 * p * p - q <= floor:
                if i:
                    known.insert(0, known.pop(i))
                ruled += 1
                break
        else:
            val_sq, mins = obj.near_minimal(h, ACTIVE_SLACK)
            new = [w for w in mins if w not in seen]
            seen.update(new)
            known[:0] = [obj.line(w) for w in new]
            val = math.sqrt(val_sq)
            if val > best_val + GRID_TIE:
                best_val, best_pt = val, pt
                floor = best_val * best_val * (1.0 - ACTIVE_SLACK)
    obj.evaluations += ruled
    return best_pt, best_val


# -- the float ascent ------------------------------------------------------


def _frame(h: list[float]) -> list[list[float]]:
    """Orthonormal tangent frame at h on the hyperboloid: a boost's columns."""
    c = 1.0 / (1.0 + h[0])
    hs = h[1:]
    return [[x] + [(i == j) + x * y * c for j, y in enumerate(hs)] for i, x in enumerate(hs)]


def _exp(h: list[float], frame, xi: Sequence[float]) -> list[float]:
    """End of the geodesic from h with initial velocity sum xi_i frame_i."""
    r = math.sqrt(_dot(xi, xi))
    if r == 0.0:
        return list(h)
    c, s = math.cosh(r), math.sinh(r) / r
    x = [c * a + s * _dot(xi, col) for a, col in zip(h, zip(*frame))]
    x[0] = math.sqrt(1.0 + _dot(x[1:], x[1:]))  # back onto the hyperboloid
    return x


def _solve(a: list[list[float]], b: list[float]) -> list[float] | None:
    """Gaussian elimination with partial pivoting; None when near singular."""
    k = len(a)
    rows = [list(r) + [v] for r, v in zip(a, b)]
    tiny = PIVOT_TOL * max(abs(x) for r in a for x in r)
    for c in range(k):
        p = max(range(c, k), key=lambda i: abs(rows[i][c]))
        if not abs(rows[p][c]) > tiny:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        for i in range(c + 1, k):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    out = [0.0] * k
    for c in range(k - 1, -1, -1):
        out[c] = (rows[c][k] - _dot(rows[c][c + 1:k], out[c + 1:])) / rows[c][c]
    return out


def _min_norm(points: list[list[float]]) -> tuple[list[float], list[float]]:
    """Least-norm point of the convex hull of points, and its weights.

    Wolfe's algorithm (Math. Programming 11, 1976): keep a corral of
    affinely independent points whose affine hull's least-norm point
    lies inside their hull; add the point that most lowers the least
    inner product with it, and drop points while the affine minimizer
    leaves the hull.
    """
    k, dim = len(points), len(points[0])
    eps = WOLFE_TOL * max(_dot(p, p) for p in points)
    first = min(range(k), key=lambda i: _dot(points[i], points[i]))
    sup, lam = [first], [1.0]
    x = list(points[first])
    for _ in range(4 * k):
        j = min(range(k), key=lambda i: _dot(x, points[i]))
        if j in sup or _dot(x, points[j]) >= _dot(x, x) - eps:
            break
        saved = sup, lam
        sup, lam = sup + [j], lam + [0.0]
        while True:
            ps = [points[i] for i in sup]
            m = len(ps)
            kkt = [[_dot(p, q) for q in ps] + [1.0] for p in ps] + [[1.0] * m + [0.0]]
            mu = _solve(kkt, [0.0] * m + [1.0])
            if mu is None:
                break
            mu = mu[:m]
            if min(mu) > 0.0:
                lam = mu
                break
            theta = min(l / (l - u) for l, u in zip(lam, mu) if u <= 0.0)
            lam = [l + theta * (u - l) for l, u in zip(lam, mu)]
            keep = [i for i, l in enumerate(lam) if l > CORRAL_FLOOR]
            sup, lam = [sup[i] for i in keep], [lam[i] for i in keep]
        if mu is None:  # affinely dependent: keep the corral before j
            sup, lam = saved
            break
        x = [sum(l * points[i][c] for l, i in zip(lam, sup)) for c in range(dim)]
    weights = [0.0] * k
    for i, l in zip(sup, lam):
        weights[i] = l
    return x, weights


def _first_crossing(p: float, r: float, c: float, tmax: float) -> float:
    """First t in (0, tmax] with p cosh 2t + r sinh 2t + c = 0, else tmax.

    With y = e^{2t} the equation is (p + r) y^2 + 2 c y + (p - r) = 0.
    """
    a, b, e = p + r, 2.0 * c, p - r
    if a == 0.0:
        roots = [-e / b] if b else []
    else:
        disc = b * b - 4.0 * a * e
        if disc < 0.0:
            return tmax
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = [q / a] + ([e / q] if q else [])
    ymax = math.exp(2.0 * tmax)
    # a root at t = 0 is a tie of norms that both rise: no crossing
    ys = [y for y in roots if 1.0 + CROSSING_TOL < y < ymax]
    return 0.5 * math.log(min(ys)) if ys else tmax


def _slope(line, h: list[float], frame) -> tuple[float, list[float]]:
    """N_w(h) = 2 <w, h>^2 - Q(w) and its gradient 4 <w, h> <w, e_i> in the frame."""
    a, q = line
    p = _dot(a, h)
    return 2.0 * p * p - q, [4.0 * p * _dot(a, e) for e in frame]


def _newton(lines, h: list[float], active, tol: float) -> tuple[list[float], int]:
    """Newton on "all active norms are equal", from h.

    Each step solves the linearized equalities by least squares and
    follows the geodesic.  It stops once a step moves less than tol, or
    once rounding stops the residual from falling; it returns the last
    point and the step count.
    """
    steps, resid, best_h = 0, math.inf, h
    while steps < MAX_ASCENT_STEPS:
        frame = _frame(h)
        (n0, g0), *rest = [_slope(lines(w), h, frame) for w in active]
        f = [n - n0 for n, _ in rest]
        jac = [[x - y for x, y in zip(g, g0)] for _, g in rest]
        size = max(abs(x) for x in f)
        if size >= resid:
            return best_h, steps
        resid, best_h = size, h
        if size == 0.0:
            return h, steps
        cols = list(zip(*jac))
        xi = _solve(
            [[_dot(ci, cj) for cj in cols] for ci in cols],
            [-_dot(ci, f) for ci in cols],
        )
        if xi is None:
            return best_h, steps
        h = _exp(h, frame, xi)
        steps += 1
        if _dot(xi, xi) < tol * tol:
            return h, steps
    return h, steps


def _ascend(obj: _DiskObjective, h: list[float], tol: float) -> tuple[list[float], int, list]:
    """Active-set ascent of conf^2 from h.

    Returns the point, its steps and the vectors within CANDIDATE_SLACK
    of the minimum there.

    The active set S holds the vectors whose norms tie for the minimum.
    The least-norm point d of the convex hull of their gradients has
    <g, d> >= |d|^2 for every g in the hull, so along the geodesic in
    direction d every norm of S rises, and a norm rising at t = 0 keeps
    rising along the whole geodesic.  The step ends at the first crossing
    with another norm, found in closed form: along the geodesic,
    N_w(t) = (a^2 + b^2) cosh 2t + 2ab sinh 2t + a^2 - b^2 - Q(w) with
    a = <w, h> and b = <w, v>.  Since conf^2 changes by at most a factor
    e^{2t} over distance t, only vectors within a factor e^{4t} of the
    minimum can cross first, so steps stay below log(1 + CANDIDATE_SLACK) / 4
    and watch only those.  Once S spans the tangent space, Newton on "all
    norms of S are equal" lands on its vertex.  The ascent ends at
    eutaxy (d = 0), or when a step would leave the patch or gains nothing.
    """
    tmax = math.log1p(CANDIDATE_SLACK) / 4.0
    rim = (2.0 * PATCH_RADIUS / (1.0 - PATCH_RADIUS**2)) ** 2  # |h'|^2 at the rim
    best, cands = obj.near_minimal(h, CANDIDATE_SLACK)
    active = sorted(w for w in cands if obj.norm(w, h) <= best * (1.0 + ACTIVE_SLACK))
    steps, tried = 0, None
    while steps < MAX_ASCENT_STEPS:
        if len(active) > obj.n and active != tried:
            tried = active
            h2, k = _newton(obj.line, h, active, tol)
            val, cands2 = obj.near_minimal(h2, CANDIDATE_SLACK)
            steps += k
            # the vertex counts if it is in the patch, no other vector is
            # shorter there and it is no lower than h, up to rounding
            floor = min(best, min(obj.norm(w, h2) for w in active)) * (1.0 - ACTIVE_SLACK)
            if _dot(h2[1:], h2[1:]) <= rim and val >= floor:
                h, best, cands = h2, val, cands2
                top = best * (1.0 + ACTIVE_SLACK)
                active = sorted(set(active) | {w for w in cands if obj.norm(w, h) <= top})
                continue
        frame = _frame(h)
        grads = [_slope(obj.line(w), h, frame)[1] for w in active]
        d, weights = _min_norm(grads)
        size = math.sqrt(_dot(d, d))
        if size <= EUTAXY_TOL * max(math.sqrt(_dot(g, g)) for g in grads):
            break
        support = [w for w, l in zip(active, weights) if l > 0.0]
        unit = [x / size for x in d]
        v = [_dot(unit, col) for col in zip(*frame)]

        def along(w):
            # N_w(t) = P cosh 2t + R sinh 2t + C on the geodesic
            a, q = obj.line(w)
            p, b = _dot(a, h), _dot(a, v)
            return p * p + b * b, 2.0 * p * b, p * p - b * b - q

        ends = [along(w) for w in support]
        t, hit = tmax, None
        for x in cands:
            if x in support:
                continue
            fx = along(x)
            for fw in ends:
                cross = _first_crossing(*(i - j for i, j in zip(fx, fw)), t)
                if cross < t:
                    t, hit = cross, x
        h2 = _exp(h, frame, [t * x for x in unit])
        if _dot(h2[1:], h2[1:]) > rim:
            break  # the step leaves the patch
        val, cands2 = obj.near_minimal(h2, CANDIDATE_SLACK)
        if not val > best:
            break  # rounding stopped progress
        h, best, cands = h2, val, cands2
        steps += 1
        top = best * (1.0 + ACTIVE_SLACK)
        keep = {*support, hit}
        active = sorted(w for w in cands if w in keep or obj.norm(w, h) <= top)
    return h, steps, cands


# -- the certificate ---------------------------------------------------------


def _least_norm(lines, p: list[int], pp: int) -> int:
    """min of 2 <w, p>^2 - Q(w) Q(p) over lines (G w, Q(w)), pp = Q(p).

    Divided by Q(p) den, the least norm N_p(w) of the lines' vectors at
    the line p, on the integer gram G = den times the gram.
    """
    return min(2 * _dot(gw, p) ** 2 - qw * pp for gw, qw in lines)


def _certify(obj: _DiskObjective, h: list[float], tol: float, cands: Sequence[tuple[int, ...]]):
    """Exact proof that conf has a local maximum near the float point h.

    Returns (certified, conf(q)^2, minimizers at q, exact evaluations)
    for the rational line q through the lattice coordinates of h.
    ``cands`` are lattice vectors in the reduced basis: the ascent's
    vectors within CANDIDATE_SLACK of the minimum at h.

    The argument is independent of the search.  log conf is 1-Lipschitz
    in hyperbolic distance: for unit timelike h and h' at distance d,
    N_{h'}(w) <= e^{2d} N_h(w) for every w (in the frame where h = e_0
    the norm is Euclidean and a boost of rapidity d has operator norm
    e^d), so conf(h') <= e^d conf(h).  Take the cube K of half-size rho
    in the affine chart q + sum s_j t_j, t_j rational vectors near an
    orthonormal tangent frame at q; q and the t_j are independent
    (checked), so the chart maps the cube onto a closed neighbourhood of
    q.  A hyperbolic ball is convex in any affine chart, so a ball
    holding a cell's vertices holds the cell.
    Cover the boundary of K by cells, each inside the ball B(p, r) about
    its rational centre p, r the largest distance to a vertex, and check

        conf(p)^2 e^{2r} < conf(q)^2.

    With A = conf(q)^2 / conf(p)^2 and C = cosh r that is A > 1 and
    C < cosh(log(A) / 2) = (A + 1) / (2 sqrt A), so 4 A C^2 < (A + 1)^2;
    and C^2 = <p, v>^2 / (Q(p) Q(v)) for the farthest vertex v, all
    rational.  Then conf < conf(q) on the boundary of K, so conf's
    maximum over the compact K lies inside it: a local maximum.  Every
    corner c of K has cosh d(q, c) <= 1 + tol^2 / 2 <= cosh tol, so the
    ball B(q, tol) holds K and the maximum is at most conf(q) e^{tol}.
    A failing cell is split in 2^(n-1) up to MAX_CERT_CELLS cells.

    conf(q)^2 is exact, from the one full enumeration (``_minimum``) at
    q.  A cell reads the least candidate norm in its place.  That is
    sound: the cell test only gets harder as A falls, so any upper bound
    on conf(p)^2 will do, and every nonzero lattice vector w gives one,
    conf(p)^2 <= N_p(w) = (2 <w, p>^2 - Q(w) Q(p)) / (Q(p) den) on the
    integer gram (``_least_norm``); the candidates are ``cands`` and q's
    minimizers.  It is also conf(p)^2 itself: p lies within d, about
    CERT_RADIUS, of h, so a minimal vector w at p has N_h(w) <= e^{2d}
    N_p(w) <= e^{4d} conf(h)^2, far below (1 + CANDIDATE_SLACK)
    conf(h)^2, and w or -w is a candidate.  So the verdict, the cells
    and the count are a full enumeration's, and each cell counts as one
    exact evaluation.
    Both tests run on integers, every pairing read from the chart's
    integer gram: with A = N / D they read 4 N D <p, v>^2 < (N + D)^2
    Q(v) Q(p), and with tol = a / b the corner test reads <q, c>^2
    (2 b^2)^2 <= (2 b^2 + a^2)^2 Q(c) Q(q).
    """
    n = obj.n
    gram, den = obj.igram, obj.den

    # q and the t_j are dyadic, so their largest denominator clears them
    # all; the chart point at s = rho i / CERT_SCALE, i integer, is then
    # the integer vector CERT_SCALE den(rho) q + sum_j i_j num(rho) t_j,
    # up to a positive factor: coordinates (1, i) in the rows of ``chart``
    frame = _frame(h)
    rows = [[_dot(row, x).as_integer_ratio() for row in obj.back] for x in [h] + frame]
    scale = max(d for r in rows for _, d in r)
    rho = Fraction(min(tol, CERT_RADIUS) / (2.0 * math.sqrt(n)))
    q = [a * (scale // d) for a, d in rows[0]]
    chart = [[CERT_SCALE * rho.denominator * x for x in q]]
    chart += [[rho.numerator * a * (scale // d) for a, d in r] for r in rows[1:]]
    # the chart's integer gram pairs chart coordinates: <x, y> = x M y
    m = _gram_of(chart, gram)[0]
    cols = list(zip(*chart))

    def image(x):
        return [_dot(row, x) for row in m]

    value, mins = _minimum(*_norm_matrix(gram, den, [q]))
    evaluations = 1
    minimizers = tuple(
        sorted(tuple(_dot(w, col) for col in zip(*obj.basis)) for w in mins)
    )
    # (G w, Q(w)) of every candidate; q's minimizers keep the list nonempty
    lines = []
    for w in {*cands, *mins}:
        gw = [_dot(row, w) for row in gram]
        lines.append((gw, _dot(w, gw)))

    def result(ok):
        return ok, value, minimizers, evaluations

    if _rank_int(chart) <= n:
        return result(False)  # the chart is degenerate: K is no neighbourhood
    a, b = Fraction(tol).as_integer_ratio()
    near, far = (2 * b * b) ** 2, (2 * b * b + a * a) ** 2 * m[0][0]
    for i in itertools.product((-CERT_SCALE, CERT_SCALE), repeat=n):
        c = [1, *i]
        qc, cc = _dot(m[0], c), _dot(c, image(c))
        if not (qc > 0 and cc > 0 and qc * qc * near <= far * cc):
            return result(False)
    cuts = range(-CERT_SCALE, CERT_SCALE + 1, 2 * CERT_SCALE // CERT_SPLIT)
    first = list(zip(cuts, cuts[1:]))
    cells = [
        (axis, side, box)
        for axis in range(n)
        for side in (-CERT_SCALE, CERT_SCALE)
        for box in itertools.product(first, repeat=n - 1)
    ]
    budget = MAX_CERT_CELLS
    while cells:
        axis, side, box = cells.pop()
        budget -= 1
        if budget < 0:
            return result(False)

        def at(i):
            i = [1, *i]
            i.insert(axis + 1, side)
            return i

        x = at([(lo + hi) // 2 for lo, hi in box])
        mx = image(x)
        pp = _dot(x, mx)
        if pp <= 0:
            return result(False)
        evaluations += 1
        # A = N / D with D > 0: every candidate norm is positive at a
        # positive line
        least = _least_norm(lines, [_dot(x, col) for col in cols], pp)
        an, ad = value.numerator * pp * den, value.denominator * least
        if an <= ad:
            return result(False)
        lhs, rhs = 4 * an * ad, (an + ad) ** 2 * pp
        for corner in itertools.product(*box):
            v = at(corner)
            pv, vv = _dot(mx, v), _dot(v, image(v))
            if not (pv > 0 and vv > 0 and lhs * pv * pv < rhs * vv):
                if not box or box[0][1] - box[0][0] < 2:
                    return result(False)
                halves = [((lo, (lo + hi) // 2), ((lo + hi) // 2, hi)) for lo, hi in box]
                cells += [(axis, side, b) for b in itertools.product(*halves)]
                break
    return result(True)


def cs_supremum(form: GramForm, search: CsSearchConfig | None = None) -> CsResult:
    """Supremum search for the conformal systole, with a certificate.

    A coarse deterministic grid over the Poincare-disk patch of radius
    PATCH_RADIUS gives the start (grids above MAX_CS_GRID points are
    refused before any evaluation).  A float active-set ascent
    (``_ascend``) climbs to a kink where several norms tie, and Newton
    lands on it to about ``refine_tol``.  An exact check (``_certify``)
    then proves, or fails to prove, a local maximum of conf within
    hyperbolic distance ``refine_tol`` of the rational line q it reports;
    the result says which.  No global optimality is claimed.
    """
    cfg = search or CsSearchConfig()
    check_cs_grid(lorentzian_rank(form, "cs_supremum"), cfg.grid)
    obj = _DiskObjective(form)
    best_pt = _grid_start(obj, cfg.grid)[0]
    h, steps, cands = _ascend(obj, list(disk_to_hpoint(best_pt).coords), cfg.refine_tol)
    certified, value_sq, minimizers, exact = _certify(obj, h, cfg.refine_tol, cands)
    return CsResult(
        value=math.sqrt(value_sq),
        disk_point=to_poincare_disk(HPoint(tuple(h))),
        grid=cfg.grid,
        refine_tol=cfg.refine_tol,
        evaluations=obj.evaluations,
        certified=certified,
        minimizers=minimizers,
        exact_evaluations=exact,
        ascent_steps=steps,
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
    # the columns of U, so that the congruence product is U^t G U
    cols = [[int(x) for x in c] for c in zip(*rows)]
    det = _int_adjugate(cols)[1]
    if det not in (1, -1):
        raise PreconditionError(f"matrix must be unimodular, determinant {det}")
    conj = _gram_of(cols, form_a._igram)[0]
    scaled = [[x * form_b._den for x in r] for r in conj]
    if scaled != [[y * form_a._den for y in r] for r in form_b._igram]:
        raise PreconditionError("congruence does not carry the first form to the second")
    res_a = cs_supremum(form_a, cfg)
    res_b = cs_supremum(form_b, cfg)
    return abs(res_a.value - res_b.value) < 2.0 * cfg.refine_tol
