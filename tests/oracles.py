"""Independent oracles used by the test suite.

Everything here recomputes results through a different algorithm than
the library (characteristic polynomial signs instead of congruence
diagonalization, direct pairing tables instead of subspace machinery),
so agreement is meaningful evidence.  Two systole references are plain
Fraction computations: the certifying box radius from the norm matrix
and its inverse (the library's former route), and Gram-Schmidt for the
LLL conditions; the library's integer radii and integral LLL are
checked against them.  The other exceptions are the references
at the end: the library's elimination steps carried out in plain Fraction
arithmetic, against which the library's integer kernel must give
identical outputs, and the permutahedron's subset inequalities,
face-by-face projection and all-subsets collapse, against which the
library's sorted-prefix membership test, projection and collapse must
give identical outputs; and the hyperbolic complement's sequential
correction loop, whose closed form the library computes.  The coverage
references at the end use no library code: the shrink of an onto map
covers the shrunk simplex, the degree of a piecewise-linear map is
counted over every simplex in homogeneous coordinates, and a
determinant is taken exactly by Fraction elimination.
"""

import itertools
import math
from fractions import Fraction


def charpoly_coeffs(mat):
    """Exact characteristic polynomial coefficients, high degree first.

    Faddeev-LeVerrier recursion over Fractions; returns
    [1, c_1, ..., c_k] for det(xI - M) = x^k + c_1 x^{k-1} + ... + c_k.
    """
    k = len(mat)
    m = [[Fraction(x) for x in row] for row in mat]
    coeffs = [Fraction(1)]
    mj = [[Fraction(0)] * k for _ in range(k)]
    for j in range(1, k + 1):
        tmp = [row[:] for row in mj]
        for i in range(k):
            tmp[i][i] += coeffs[j - 1]
        mj = [
            [sum(m[i][t] * tmp[t][c] for t in range(k)) for c in range(k)]
            for i in range(k)
        ]
        coeffs.append(-sum(mj[i][i] for i in range(k)) / j)
    return coeffs


def signature_oracle(gram):
    """(b_plus, b_minus, b_null) of a symmetric rational matrix.

    A real symmetric matrix has only real eigenvalues, so Descartes'
    rule of signs on the characteristic polynomial counts them exactly:
    the number of positive eigenvalues is the number of sign changes,
    and the multiplicity of zero is the number of trailing zero
    coefficients.
    """
    k = len(gram)
    if k == 0:
        return (0, 0, 0)
    coeffs = charpoly_coeffs(gram)
    null = 0
    while null < k and coeffs[k - null] == 0:
        null += 1
    reduced = coeffs[: k - null + 1]
    signs = [x for x in reduced if x != 0]
    pos = sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))
    return (pos, k - null - pos, null)


def pairing_table(form_gram, vectors, indices):
    """Gram matrix of the 1-based selection of vectors, by direct pairing."""
    sel = [vectors[i - 1] for i in indices]
    k = len(form_gram)

    def pair(u, v):
        return sum(
            Fraction(u[i]) * Fraction(form_gram[i][j]) * Fraction(v[j])
            for i in range(k)
            for j in range(k)
        )

    return [[pair(u, v) for v in sel] for u in sel]


def brute_force_systole(form_gram, h, radius=25):
    """Shortest nonzero lattice vector by literal plus/minus splitting.

    ``h`` is a rational generator of the positive line H, or a list of
    rational basis vectors of a positive definite subspace H.  Every
    integer vector w in the box is split as w = w+ + w-, with w+ in H
    and w- orthogonal to H: the coordinates c of w+ in the basis solve
    the normal equations R c = (Q(b_i, w))_i, R the gram matrix of the
    basis.  Q(w+, w+) - Q(w-, w-) is then minimized.  A float prescan
    narrows the box, then every candidate within a generous margin is
    split again in Fractions.  Returns (value_sq, frozenset of
    minimizers).
    """
    import numpy as np

    g = [[Fraction(x) for x in row] for row in form_gram]
    d = len(g)
    basis = [h] if not isinstance(h[0], (list, tuple)) else h
    basis = [[Fraction(x) for x in b] for b in basis]

    def pair(u, v):
        return sum(g[i][j] * u[i] * v[j] for i in range(d) for j in range(d))

    rgram = [[pair(a, b) for b in basis] for a in basis]
    assert signature_oracle(rgram) == (len(basis), 0, 0)

    gf = np.array([[float(x) for x in row] for row in g])
    bf = np.array([[float(x) for x in b] for b in basis])
    rf = np.array([[float(x) for x in row] for row in rgram])

    axes = [np.arange(-radius, radius + 1)] * d
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([a.ravel() for a in grids], axis=1).astype(float)
    coeff = np.linalg.solve(rf, (pts @ gf @ bf.T).T).T
    wplus = coeff @ bf
    wminus = pts - wplus
    val = np.einsum("ij,jk,ik->i", wplus, gf, wplus) - np.einsum(
        "ij,jk,ik->i", wminus, gf, wminus
    )
    val[~np.any(pts != 0, axis=1)] = np.inf
    fmin = float(np.min(val))
    shortlist = pts[val <= fmin * (1 + 1e-6) + 1e-9]

    best = None
    mins = set()
    for row in shortlist:
        w = [Fraction(int(x)) for x in row]
        c = solve_reference(rgram, [pair(b, w) for b in basis])
        wp = [sum(ci * b[i] for ci, b in zip(c, basis)) for i in range(d)]
        wm = [a - b for a, b in zip(w, wp)]
        exact = pair(wp, wp) - pair(wm, wm)
        if best is None or exact < best:
            best = exact
            mins = {tuple(int(x) for x in w)}
        elif exact == best:
            mins.add(tuple(int(x) for x in w))
    return best, frozenset(mins)


def box_radius_reference(form_gram, basis):
    """Radius of the coordinate box that holds every shortest vector.

    The norm matrix M = G (2P - I), P the projection onto the span of
    ``basis``, is built in Fractions and inverted by the reference
    elimination; every w with w^t M w at most the smallest diagonal
    entry s of M has |w_i| <= sqrt(s (M^-1)_ii), and the radius is the
    largest of these, rounded down.
    """
    g = [[Fraction(x) for x in row] for row in form_gram]
    d = len(g)
    b = [[Fraction(x) for x in v] for v in basis]
    gb = [[sum(g[i][j] * v[j] for j in range(d)) for i in range(d)] for v in b]
    rinv = inverse_reference([[sum(x * y for x, y in zip(u, v)) for v in b] for u in gb])
    m = [
        [
            2 * sum(gb[s][i] * rinv[s][t] * gb[t][j] for s in range(len(b)) for t in range(len(b)))
            - g[i][j]
            for j in range(d)
        ]
        for i in range(d)
    ]
    minv = inverse_reference(m)
    seed = min(m[i][i] for i in range(d))
    return max(math.isqrt(math.floor(seed * minv[i][i])) for i in range(d))


def float_brute_force_systole(disk, radius, tie=1e-9):
    """Float systole at a hyperboloid point by literal plus/minus splitting.

    The point over the disk coordinates ``disk`` is
    u = (1 + r^2, 2 d) / (1 - r^2) in the standard form diag(1, -1, ...).
    Every integer vector of the cube of ``radius`` is split against u and
    Q(w+, w+) - Q(w-, w-) = 2 Q(w, u)^2 - Q(w, w) is minimized.  Returns
    (minimum, frozenset of vectors within ``tie`` (relative above 1) of
    it).
    """
    import numpy as np

    d = np.array([float(x) for x in disk])
    r2 = float(d @ d)
    u = np.concatenate(([1.0 + r2], 2.0 * d)) / (1.0 - r2)
    sign = np.array([1.0] + [-1.0] * len(d))
    axes = [np.arange(-radius, radius + 1)] * (len(d) + 1)
    pts = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    w = pts.astype(float)
    val = 2.0 * (w @ (sign * u)) ** 2 - (w * w) @ sign
    val[~np.any(pts != 0, axis=1)] = np.inf
    best = float(val.min())
    hits = pts[val <= best + tie * max(1.0, best)]
    return best, frozenset(tuple(int(x) for x in h) for h in hits)


def shortest_box_reference(m, tie=0):
    """Minimum of w^t m w over nonzero integer w and every minimizer, by a box search.

    ``m`` is a symmetric positive definite matrix of ints or floats, each
    entry read exactly as a Fraction.  Every w with w^t m w <= seed, the
    smallest diagonal entry, satisfies |w_i| <= sqrt(seed (m^-1)_ii)
    (Cauchy-Schwarz), so the box one wider than that holds every vector
    that can tie the minimum.  Values within ``tie`` (relative above 1)
    of the exact minimum count as ties.  Returns (minimum as a Fraction,
    frozenset of minimizers with both signs).
    """
    q = [[Fraction(x) for x in row] for row in m]
    d = len(q)
    den = 1
    for row in q:
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [[int(x * den) for x in row] for row in q]
    inv = inverse_reference(q)
    seed = min(q[i][i] for i in range(d))
    radii = [math.isqrt(math.floor(seed * inv[i][i])) + 1 for i in range(d)]
    values = {}
    for w in itertools.product(*[range(-r, r + 1) for r in radii]):
        if any(w):
            values[w] = Fraction(
                sum(w[i] * ints[i][j] * w[j] for i in range(d) for j in range(d)), den
            )
    best = min(values.values())
    top = best + Fraction(tie) * max(1, best)
    return best, frozenset(w for w, v in values.items() if v <= top)


def lagrange_gauss_minimum(m):
    """Minimum and minimal vectors of a positive definite rank-2 form.

    ``m`` is a symmetric 2x2 rational matrix.  Lagrange-Gauss reduction
    swaps and size-reduces a basis until |2 b(b1, b2)| <= q(b1) <= q(b2);
    then every vector a b1 + c b2 with |a| or |c| at least 2 is longer
    than b1, so the minimal vectors are among +-b1, +-b2, +-(b1 +- b2).
    Returns (minimum as a Fraction, frozenset of minimal vectors).
    """
    m = [[Fraction(x) for x in row] for row in m]

    def b(u, v):
        return sum(u[i] * m[i][j] * v[j] for i in range(2) for j in range(2))

    def comb(u, v, c):
        return (u[0] + c * v[0], u[1] + c * v[1])

    b1, b2 = (1, 0), (0, 1)
    while True:
        if b(b2, b2) < b(b1, b1):
            b1, b2 = b2, b1
        c = b(b1, b2) / b(b1, b1)
        k = c.numerator // c.denominator  # floor, then the nearer integer
        if c - k > Fraction(1, 2):
            k += 1
        if k == 0:
            break
        b2 = comb(b2, b1, -k)
    cands = [b1, b2, comb(b1, b2, 1), comb(b1, b2, -1)]
    best = min(b(v, v) for v in cands)
    mins = set()
    for v in cands:
        if b(v, v) == best:
            mins |= {v, (-v[0], -v[1])}
    return best, frozenset(mins)


def gram_schmidt_reference(gram):
    """Gram-Schmidt coefficients of the basis with Gram matrix ``gram``.

    Plain Fraction recursion on the pairings: returns (mu, b) with
    b_i = |b_i*|^2 and mu[i][j] = (b_i . b_j*) / b_j for j < i, from which
    the LLL size-reduction (|mu[i][j]| <= 1/2) and Lovasz
    (b_i >= (3/4 - mu[i][i-1]^2) b_{i-1}) conditions can be read.
    """
    k = len(gram)
    g = [[Fraction(x) for x in row] for row in gram]
    mu = [[Fraction(0)] * k for _ in range(k)]
    b = []
    for i in range(k):
        for j in range(i):
            mu[i][j] = (g[i][j] - sum(mu[j][t] * mu[i][t] * b[t] for t in range(j))) / b[j]
        b.append(g[i][i] - sum(mu[i][t] ** 2 * b[t] for t in range(i)))
    return mu, b


def cs_scan_1d(norm_sq_of, t_lo=-2.0, t_hi=2.0, steps=4001, refine_iters=80):
    """Maximize min_{(a,b) != 0} norm_sq(a, b, t) over a 1-parameter family.

    ``norm_sq_of(a, b, t)`` is the squared norm of the lattice vector
    (a, b) at parameter t.  Scans a uniform grid, then refines by
    ternary search.  Returns (t_best, sqrt of best min).
    """
    cands = [
        (a, b)
        for a in range(-6, 7)
        for b in range(-6, 7)
        if (a, b) != (0, 0)
    ]

    def conf2(t):
        return min(norm_sq_of(a, b, t) for a, b in cands)

    ts = [t_lo + (t_hi - t_lo) * i / (steps - 1) for i in range(steps)]
    best_t = max(ts, key=conf2)
    span = (t_hi - t_lo) / (steps - 1)
    lo, hi = best_t - span, best_t + span
    for _ in range(refine_iters):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if conf2(m1) < conf2(m2):
            lo = m1
        else:
            hi = m2
    t = (lo + hi) / 2
    return t, math.sqrt(conf2(t))


def chain_kind_oracle(form_gram, vectors, chain):
    """Constraint type over a chain, recomputed from raw pairings.

    Walks the chain for the first subset whose pairing table is not
    negative definite; reports Geodesic if none, IdealPoint if that
    table is singular, Point otherwise.  Valid for ambient signature
    (1, n) only.
    """
    for subset in chain:
        sig = signature_oracle(pairing_table(form_gram, vectors, subset))
        if sig[0] == 0 and sig[2] == 0:
            continue
        return "IdealPoint" if sig[2] > 0 else "Point"
    return "Geodesic"


# ---------------------------------------------------------------------------
# rational reference kernel: plain Fraction elimination, kept independent
# of the library's integer kernel so their outputs can be compared
# ---------------------------------------------------------------------------


def rref_reference(rows):
    """Reduced row echelon form over Fractions: (nonzero rows, pivots).

    Pivots left to right, the first row with a nonzero entry wins, rows
    normalized to pivot 1 and cleared above and below.
    """
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def kernel_reference(rows, ncols):
    """Free-column basis of {x : rows @ x = 0} from the reference RREF."""
    red, pivots = rref_reference(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def solve_reference(rows, rhs):
    """Solution of rows @ x = rhs with free variables zero, or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    red, pivots = rref_reference([tuple(r) + (b,) for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        x[p] = row[ncols]
    return tuple(x)


def inverse_reference(rows):
    """Inverse by reducing [rows | I], or None when singular."""
    n = len(rows)
    aug = [tuple(rows[i]) + tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    red, pivots = rref_reference(aug)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red)


def hyperbolic_complement_reference(form_gram, d_basis, side):
    """(W basis, pairing table of d1, w1, d2, w2, ...) by the sequential
    correction: w_j solves Q(d_i, w) = delta_ij and Q(h, w) = 0 for h in
    side, each Q(w_j, w_i) for i < j is removed in index order by a d_i
    shift, and then half of Q(w_j, w_j) along d_j."""
    # the row G v of each constraint Q(v, w) = rhs
    rows = [
        tuple(sum(Fraction(g) * Fraction(x) for g, x in zip(grow, v)) for grow in form_gram)
        for v in list(d_basis) + list(side)
    ]

    def pair(u, v):
        return pairing_table(form_gram, [u, v], [1, 2])[0][1]

    ws = []
    for j in range(len(d_basis)):
        w = solve_reference(rows, [Fraction(int(i == j)) for i in range(len(rows))])
        for i, prev in enumerate(ws):
            c = pair(w, prev)
            w = tuple(x - c * d for x, d in zip(w, d_basis[i]))
        half = pair(w, w) / 2
        ws.append(tuple(x - half * d for x, d in zip(w, d_basis[j])))
    inter = [v for pair_ in zip(d_basis, ws) for v in pair_]
    table = pairing_table(form_gram, inter, range(1, len(inter) + 1))
    return tuple(ws), tuple(map(tuple, table))


def sym_diagonalize_reference(gram):
    """Symmetric Gauss congruence diagonalization over Fractions: (T, diag).

    A nonzero diagonal pivot is used when there is one (swapping it into
    place), an off-diagonal entry is turned into one by the surgery
    b_i <- b_i + b_j, and the pivot row and column are cleared.
    """
    k = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    cols = [[Fraction(int(i == j)) for i in range(k)] for j in range(k)]

    def col_swap(a, b):
        cols[a], cols[b] = cols[b], cols[a]
        m[a], m[b] = m[b], m[a]
        for row in m:
            row[a], row[b] = row[b], row[a]

    def col_add(dst, src, factor):
        cols[dst] = [x + factor * y for x, y in zip(cols[dst], cols[src])]
        for row in m:
            row[dst] += factor * row[src]
        m[dst] = [x + factor * y for x, y in zip(m[dst], m[src])]

    for p in range(k):
        if m[p][p] == 0:
            swap_with = next((i for i in range(p + 1, k) if m[i][i] != 0), None)
            if swap_with is not None:
                col_swap(p, swap_with)
            else:
                pair = next(
                    ((i, j) for i in range(p, k) for j in range(i + 1, k) if m[i][j] != 0),
                    None,
                )
                if pair is None:
                    break
                i, j = pair
                col_add(i, j, Fraction(1))
                if i != p:
                    col_swap(p, i)
        pivot = m[p][p]
        if pivot == 0:
            continue
        for j in range(p + 1, k):
            if m[p][j] != 0:
                col_add(j, p, -m[p][j] / pivot)
    t = tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))
    return t, [m[i][i] for i in range(k)]


# ---------------------------------------------------------------------------
# permutahedron references: the subset inequalities one by one, the
# nearest point by solving the projection onto every face, and the
# collapse from every subset slack, kept against the library's
# sorted-prefix membership test, isotonic projection and collapse
# ---------------------------------------------------------------------------


def _proper_subsets(n1):
    return [
        frozenset(s) for k in range(1, n1) for s in itertools.combinations(range(n1), k)
    ]


def permutahedron_contains_reference(point, tol=Fraction(0)):
    """Whether ``point`` lies in the permutahedron of (1, ..., len(point)):
    its sum is 1 + ... + len(point), and the coordinates of every proper
    subset of size k sum to at least 1 + ... + k, each up to ``tol``."""
    n1 = len(point)
    pt = [Fraction(x) for x in point]
    if abs(sum(pt) - n1 * (n1 + 1) // 2) > tol:
        return False
    return all(
        sum(pt[i] for i in s) - len(s) * (len(s) + 1) // 2 >= -tol
        for s in _proper_subsets(n1)
    )


def collapse_reference(point, damping):
    """The slack-damped collapse of a point of the permutahedron onto the
    enclosing simplex, from every proper subset's slack.

    Coordinate i gets the weight min(1, max(0, g_i / damping)), with g_i
    the least slack (coordinate sum minus 1 + ... + k) of a proper
    k-subset holding i; it is pulled to 1 + (y_i - 1) w_i, and the mass
    this loses goes back in proportion to the weights.
    """
    n1 = len(point)
    y = [Fraction(x) for x in point]
    slacks = {
        s: sum(y[i] for i in s) - len(s) * (len(s) + 1) // 2
        for s in _proper_subsets(n1)
    }
    weights = []
    for i in range(n1):
        g = min(v for s, v in slacks.items() if i in s)
        weights.append(min(Fraction(1), max(Fraction(0), g / damping)))
    pulled = [1 + (yi - 1) * w for yi, w in zip(y, weights)]
    spare = n1 * (n1 + 1) // 2 - sum(pulled)
    return tuple(p + spare * w / sum(weights) for p, w in zip(pulled, weights))


def projection_reference(point):
    """Euclidean nearest point of the permutahedron by a face sweep.

    A point already inside is returned as is.  Otherwise, for the whole
    polytope and for every face (every strictly increasing chain of
    proper subsets, each subset's coordinates summing to its least
    value), the projection onto the face's affine hull is solved from
    the normal equations; the closest candidate that satisfies every
    subset inequality is the nearest point.
    """
    n1 = len(point)
    x = [Fraction(p) for p in point]
    if permutahedron_contains_reference(x):
        return tuple(x)
    subsets = _proper_subsets(n1)
    chains = [()]
    frontier = [()]
    while frontier:
        frontier = [c + (s,) for c in frontier for s in subsets if not c or c[-1] < s]
        chains.extend(frontier)
    best, best_d = None, None
    for chain in chains:
        tight = [frozenset(range(n1))] + list(chain)
        # z = x + A^T mu with (A A^T) mu = b - A x, A the subset indicators
        gram = [[len(s & t) for t in tight] for s in tight]
        resid = [len(s) * (len(s) + 1) // 2 - sum(x[i] for i in s) for s in tight]
        mu = solve_reference(gram, resid)
        z = [x[k] + sum(m for m, s in zip(mu, tight) if k in s) for k in range(n1)]
        d = sum((a - b) ** 2 for a, b in zip(z, x))
        if (best_d is None or d < best_d) and permutahedron_contains_reference(z):
            best, best_d = z, d
    return tuple(best)


# ---------------------------------------------------------------------------
# shrunk-simplex coverage: which grid nodes the shrink of an onto map covers
# ---------------------------------------------------------------------------


def shrink_coverage_reference(n, grid_step, factor):
    """The grid nodes of the simplex {x_i >= 1, sum x = (n+1)(n+2)/2} at
    spacing ``grid_step`` that the shrink by ``factor`` toward the centre
    c of any onto map covers: node v is covered exactly when
    c + (v - c) / factor lies in the simplex.

    The shrink is affine, so the piecewise-linear image of
    shrink o collapse is the shrunk image of collapse, the shrunk
    simplex.  Computed in Fractions, with the nodes in meshgrid order of
    their first n lattice coordinates.  Returns the counts of nodes
    inside, outside and near (within 1e-9, in the least coordinate of
    the pulled-back point, of the boundary), the first outside node as
    floats computed like the grid's, 1.0 + grid_step * k, and the place
    in meshgrid order of every outside node.
    """
    step = Fraction(grid_step).limit_denominator(10**6)
    total = (n + 1) * (n + 2) // 2
    k_total = (total - (n + 1)) / step
    assert k_total.denominator == 1
    k_total = int(k_total)
    centre = Fraction(total, n + 1)
    shrink = Fraction(factor).limit_denominator(10**6)
    counts = {"inside": 0, "outside": 0, "near": 0}
    first_outside = None
    places = []
    for ks in itertools.product(range(k_total + 1), repeat=n):
        if sum(ks) > k_total:
            continue
        place = sum(counts.values())
        ks = ks + (k_total - sum(ks),)
        pulled = [centre + (1 + step * k - centre) / shrink for k in ks]
        least = min(pulled) - 1
        if abs(least) <= Fraction(1, 10**9):
            counts["near"] += 1
        elif least > 0:
            counts["inside"] += 1
        else:
            counts["outside"] += 1
            places.append(place)
            if first_outside is None:
                first_outside = tuple(1.0 + grid_step * float(k) for k in ks)
    return {
        **counts,
        "grid_points": sum(counts.values()),
        "first_outside": first_outside,
        "outside_places": places,
    }


# ---------------------------------------------------------------------------
# grid nodes in the image simplices of a chart, by brute force
# ---------------------------------------------------------------------------


def located_reference(chart, simplices, nodes, degenerate, tol):
    """Which of the points ``nodes`` (N, n) lie in an image simplex that
    is not flat: every simplex against every node, no bounding boxes.

    chart is the image of each vertex (vertices, n) and simplices the
    vertex indices of each simplex (simplices, n+1).  A simplex is flat
    when |det| of its edges is at most ``degenerate`` times the product
    of their lengths; a node lies in one when its least barycentric
    coordinate there is at least -``tol``.  Each simplex is inverted in
    homogeneous coordinates, [1 ... 1; corners] lam = [1; node], whose
    determinant is that of the edges.  numpy only, imported on the first
    call so that the exact oracles load no numpy.
    """
    import numpy as np

    corners = np.asarray(chart, dtype=float)[np.asarray(simplices)]  # (simplices, n+1, n)
    ones = np.ones((len(corners), 1, corners.shape[2] + 1))
    homogeneous = np.concatenate([ones, np.swapaxes(corners, 1, 2)], axis=1)
    lengths = np.linalg.norm(corners[:, 1:] - corners[:, :1], axis=2).prod(axis=1)
    solid = np.abs(np.linalg.det(homogeneous)) > degenerate * lengths
    inverses = np.linalg.inv(homogeneous[solid])  # (solid, n+1, n+1)
    points = np.column_stack([np.ones(len(nodes)), np.asarray(nodes, dtype=float)])
    covered = np.zeros(len(points), dtype=bool)
    for start in range(0, len(inverses), 256):
        lam = inverses[start : start + 256] @ points.T  # (block, n+1, N)
        covered |= (lam.min(axis=1) >= -tol).any(axis=0)
    return covered


# ---------------------------------------------------------------------------
# degree of a piecewise-linear map over a point
# ---------------------------------------------------------------------------


def det_reference(rows):
    """The exact determinant of a square matrix of rationals (ints,
    floats read exactly, or Fractions), 1 when empty: Gaussian
    elimination in Fraction arithmetic, with a row swap for each zero
    pivot."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot], det = m[pivot], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def degree_reference(chart, simplices, orientation, point, clear=1e-6, degenerate=1e-6):
    """The oriented count of the image simplices that hold ``point``, or
    None when the point is not clear of them.

    chart is the image of each vertex (vertices, n), simplices the
    vertex indices of each simplex (simplices, n+1) and orientation the
    sign of each simplex in the domain.  The point is clear when every
    image simplex whose bounding box holds it is not flat (|det| of its
    edges at most ``degenerate`` times the product of their lengths) and
    its least barycentric coordinate there is farther than ``clear``
    from 0.  Each box is widened by ``clear`` times the largest
    |coordinate| of its simplex's corners, so that a point within
    rounding of an image simplex, such as a vertex just outside the
    exact box, is not clear either.  Every simplex is gathered whole and
    solved in homogeneous coordinates, [1 ... 1; corners] lam = [1;
    point], whose determinant is that of the edges.  numpy only, imported on the first call so
    that the exact oracles load no numpy.
    """
    import numpy as np

    corners = np.asarray(chart, dtype=float)[np.asarray(simplices)]  # (simplices, n+1, n)
    point = np.asarray(point, dtype=float)
    reach = clear * np.abs(corners).max(axis=(1, 2))[:, None]
    low, high = corners.min(axis=1) - reach, corners.max(axis=1) + reach
    boxed = ((low <= point) & (high >= point)).all(axis=1)
    corners = corners[boxed]
    ones = np.ones((len(corners), 1, corners.shape[1]))
    homogeneous = np.concatenate([ones, np.swapaxes(corners, 1, 2)], axis=1)
    det = np.linalg.det(homogeneous)
    lengths = np.linalg.norm(corners[:, 1:] - corners[:, :1], axis=2).prod(axis=1)
    if (np.abs(det) <= degenerate * lengths).any():
        return None
    rhs = np.broadcast_to(np.concatenate([[1.0], point]), (len(corners), len(point) + 1))
    least = np.linalg.solve(homogeneous, rhs[:, :, None])[:, :, 0].min(axis=1)
    if (np.abs(least) <= clear).any():
        return None
    signs = np.asarray(orientation)[boxed] * np.sign(det)
    return int(signs[least > 0].sum())


def min_norm_reference(points):
    """Least-norm point of the convex hull of points, exactly.

    Over every subset of at most dim + 1 points, the least-norm point of
    its affine hull solves G w + t 1 = 0, sum w = 1, with G the subset's
    Gram matrix; it is kept when its weights w are all >= 0, and the
    least of those kept is returned as Fractions.  The hull's least-norm
    point lies in a face, and is the affine least-norm point of an
    affinely independent subset of that face's points (Caratheodory), so
    it is among them.  The points are scaled to integers first, which
    moves no weight.
    """
    scale = math.lcm(*(Fraction(c).denominator for p in points for c in p))
    pts = [[int(Fraction(c) * scale) for c in p] for p in points]
    best = None
    for size in range(1, min(len(pts), len(pts[0]) + 1) + 1):
        for sub in itertools.combinations(pts, size):
            kkt = [[sum(a * b for a, b in zip(p, q)) for q in sub] + [1] for p in sub]
            sol = solve_reference(kkt + [[1] * size + [0]], [0] * size + [1])
            if sol is None or min(sol[:size]) < 0:
                continue
            x = [sum(w * p[c] for w, p in zip(sol, sub)) for c in range(len(pts[0]))]
            norm = sum(c * c for c in x)
            if best is None or norm < best[0]:
                best = (norm, x)
    return [c / scale for c in best[1]]
