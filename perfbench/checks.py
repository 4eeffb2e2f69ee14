"""Answer checks, independent of the library's code paths.

The checks use the test suite's oracles (characteristic-polynomial
signatures, raw pairing tables, box brute force, the 1-parameter scan)
and small exact routines written here: raw pairings, Gaussian rank and
Lagrange-Gauss reduction.  A check returns None when the answer holds,
otherwise a Failure naming what broke.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from harness import Failure
from oracles import (
    brute_force_systole,
    chain_kind_oracle,
    cs_scan_1d,
    signature_oracle,
)


def wrong(detail: str) -> Failure:
    return Failure("wrong", detail)


def pair(gram, u, v) -> Fraction:
    k = len(gram)
    return sum(
        Fraction(u[i]) * Fraction(gram[i][j]) * Fraction(v[j])
        for i in range(k)
        for j in range(k)
        if u[i] and v[j]
    )


def gram_of(gram, basis) -> list[list[Fraction]]:
    return [[pair(gram, u, v) for v in basis] for u in basis]


def rank(rows) -> int:
    """Rank of a list of rational rows by plain Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def entry_bits(vectors) -> int:
    """Largest numerator or denominator bit length among the entries."""
    best = 0
    for v in vectors:
        for x in v:
            x = Fraction(x)
            best = max(best, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return best


# ---------------------------------------------------------------------------
# face constraints and classification
# ---------------------------------------------------------------------------


def check_face(cfg, ns, fc, identity) -> Failure | None:
    gram, vecs = cfg.form.gram, cfg.vectors
    if not identity:
        return wrong(f"dimension identity fails on {ns}")
    want = chain_kind_oracle(gram, vecs, ns.chain)
    got = fc.summary.kind.value if fc.summary is not None else None
    if got != want:
        return wrong(f"face {ns}: kind {got}, oracle {want}")
    for piece, sig in zip(fc.pieces, fc.piece_signatures):
        if tuple(sig) != signature_oracle(gram_of(gram, piece.basis)):
            return wrong(f"face {ns}: piece signature {tuple(sig)} disagrees")
    return None


def check_classify(cfg, subset, cs) -> Failure | None:
    want = chain_kind_oracle(cfg.form.gram, cfg.vectors, (subset,))
    if cs.kind.value != want:
        return wrong(f"subset {subset}: kind {cs.kind.value}, oracle {want}")
    return None


def check_simplex_lines(cfg, lines) -> Failure | None:
    """Vertex i: positive, orthogonal to every v_j with j != i, pairing
    positively with v_i, primitive integral."""
    gram, vecs = cfg.form.gram, cfg.vectors
    if len(lines) != len(vecs):
        return wrong("wrong number of vertex lines")
    for i, gen in enumerate(lines):
        if any(Fraction(x).denominator != 1 for x in gen):
            return wrong(f"vertex line {i + 1} is not integral")
        if math.gcd(*(int(x) for x in gen)) != 1:
            return wrong(f"vertex line {i + 1} is not primitive")
        if pair(gram, gen, gen) <= 0:
            return wrong(f"vertex line {i + 1} is not positive")
        for j, v in enumerate(vecs):
            p = pair(gram, gen, v)
            if (j == i and p <= 0) or (j != i and p != 0):
                return wrong(f"vertex line {i + 1} pairs {p} with v{j + 1}")
    return None


# ---------------------------------------------------------------------------
# subspace algebra and splits
# ---------------------------------------------------------------------------


def check_algebra(gram, a_rows, b_rows, answer) -> Failure | None:
    sig, perp, inter, total = answer
    d = len(gram)
    if tuple(sig) != signature_oracle(gram):
        return wrong(f"signature {tuple(sig)} disagrees with the oracle")
    # A-perp: pairs to zero with A, dimension d - rank(A^t G)
    if any(pair(gram, u, w) != 0 for u in perp.basis for w in a_rows):
        return wrong("orthogonal complement does not pair to zero with A")
    ag = [[pair(gram, a, [int(i == j) for j in range(d)]) for i in range(d)] for a in a_rows]
    if perp.dim != d - rank(ag):
        return wrong(f"orthogonal complement has dimension {perp.dim}")
    r_sum = rank(list(a_rows) + list(b_rows))
    if total.dim != r_sum or rank(list(total.basis) + list(a_rows) + list(b_rows)) != r_sum:
        return wrong("subspace sum is not the span of A and B")
    if inter.dim != len(a_rows) + len(b_rows) - r_sum:
        return wrong(f"intersection has dimension {inter.dim}")
    for w in inter.basis:
        if rank(list(a_rows) + [w]) != len(a_rows) or rank(list(b_rows) + [w]) != len(b_rows):
            return wrong("intersection vector is not in both subspaces")
    return None


def check_split(data, answer) -> Failure | None:
    betti, bpm, comp = answer
    if not (betti and bpm):
        return wrong(f"split identities fail (betti {betti}, b+- {bpm})")
    gram = data.ambient.gram
    ds, ws = data.D.basis, comp.W.basis
    if len(ws) != len(ds):
        return wrong("complement dimension differs from dim D")
    side = list(data.H1.basis) + list(data.H2.basis)
    if any(pair(gram, w, s) != 0 for w in ws for s in side):
        return wrong("complement does not clear H1 + H2")
    inter = [v for d, w in zip(ds, ws) for v in (d, w)]
    block = [[int(i // 2 == j // 2 and i != j) for j in range(len(inter))] for i in range(len(inter))]
    if gram_of(gram, inter) != block:
        return wrong("D + W is not a sum of hyperbolic planes")
    if rank(side + inter) != data.ambient.dim:
        return wrong("H1 + H2 + D + W does not span the ambient space")
    return None


# ---------------------------------------------------------------------------
# permutahedron projection and collapse
# ---------------------------------------------------------------------------


def check_projection(x, vertices, z, image) -> Failure | None:
    """z is the nearest point of P = conv(vertices) to x, and the
    collapse of z lies in the simplex with the tight coordinates of z
    pinned at 1."""
    n1 = len(x)
    total = Fraction(n1 * (n1 + 1), 2)
    subsets = [s for s in _subsets(n1) if 0 < len(s) < n1]
    if sum(z) != total:
        return wrong("projection leaves the hyperplane")
    slack = {s: sum(z[i] for i in s) - len(s) * (len(s) + 1) // 2 for s in subsets}
    if any(v < 0 for v in slack.values()):
        return wrong("projection lies outside the permutahedron")
    # variational inequality (x - z).(v - z) <= 0 at every vertex
    diff = [a - b for a, b in zip(x, z)]
    for v in vertices:
        if sum(d * (vi - zi) for d, vi, zi in zip(diff, v, z)) > 0:
            return wrong(f"vertex {v} is closer than the projection")
    if tuple(image) != collapse_reference(z, slack, total):
        return wrong(f"collapse of {z} is {image}")
    if any(y < 1 for y in image) or any(
        image[i] != 1 for s, v in slack.items() if v == 0 for i in s
    ):
        return wrong("collapse leaves the simplex or frees a tight coordinate")
    return None


def collapse_reference(z, slack, total, damping=Fraction(1, 4)) -> tuple:
    """The slack-damped collapse as documented: coordinate i keeps the
    weight min(1, g_i / damping), g_i its tightest slack, is pulled that
    far toward 1, and the lost mass goes back in proportion to weight."""
    weights = [
        min(Fraction(1), max(Fraction(0), min(v for s, v in slack.items() if i in s) / damping))
        for i in range(len(z))
    ]
    pulled = [1 + (x - 1) * w for x, w in zip(z, weights)]
    spare = total - sum(pulled)
    return tuple(p + spare * w / sum(weights) for p, w in zip(pulled, weights))


def _subsets(n1):
    for mask in range(1, 2**n1):
        yield tuple(i for i in range(n1) if mask >> i & 1)


# ---------------------------------------------------------------------------
# systoles
# ---------------------------------------------------------------------------


def disk_radius_bound(r: float) -> int:
    """Box radius holding every shortest vector at disk radius r.

    At hyperbolic distance t from the origin the norm form of the
    standard lattice has smallest eigenvalue exp(-2t) and its diagonal is
    at most cosh(2t), so a shortest vector has length at most
    exp(2t) = ((1 + r) / (1 - r))^2.
    """
    return int(((1.0 + r) / (1.0 - r)) ** 2) + 1


def check_exact_systole(gram, gen, res, r: float) -> Failure | None:
    want_sq, want_min = brute_force_systole(gram, gen, radius=disk_radius_bound(r))
    if not res.certified:
        return wrong("exact systole is not certified")
    if res.value_sq != want_sq or frozenset(res.minimizers) != want_min:
        return wrong(f"systole {res.value_sq} differs from brute force {want_sq}")
    return None


def float_brute_min(disk) -> float:
    d = len(disk) + 1
    r2 = sum(x * x for x in disk)
    u = np.array([1.0 + r2] + [2.0 * x for x in disk]) / (1.0 - r2)
    g = np.diag([1.0] + [-1.0] * (d - 1))
    radius = disk_radius_bound(math.sqrt(r2))
    axes = np.meshgrid(*[np.arange(-radius, radius + 1)] * d, indexing="ij")
    w = np.stack([a.ravel() for a in axes], axis=1).astype(float)
    w = w[np.any(w != 0, axis=1)]
    vals = 2.0 * (w @ (g @ u)) ** 2 - np.einsum("ij,jk,ik->i", w, g, w)
    return float(vals.min())


def check_float_systole(disk, res) -> Failure | None:
    want = float_brute_min(disk)
    if abs(res.value_sq - want) > 1e-9 * max(1.0, want):
        return wrong(f"float systole {res.value_sq} differs from brute force {want}")
    return None


def lagrange_gauss(m) -> tuple[Fraction, frozenset]:
    """Minimum and all minimal vectors of a rank-2 positive definite
    rational quadratic form, by Lagrange-Gauss reduction."""

    def q(v):
        return m[0][0] * v[0] * v[0] + 2 * m[0][1] * v[0] * v[1] + m[1][1] * v[1] * v[1]

    def b(u, v):
        return m[0][0] * u[0] * v[0] + m[0][1] * (u[0] * v[1] + u[1] * v[0]) + m[1][1] * u[1] * v[1]

    b1, b2 = (1, 0), (0, 1)
    if q(b2) < q(b1):
        b1, b2 = b2, b1
    while True:
        mu = round(b(b1, b2) / q(b1))
        b2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1])
        if q(b2) >= q(b1):
            break
        b1, b2 = b2, b1
    best = q(b1)
    # in a reduced basis the minimal vectors are among b1, b2, b1 +- b2
    cands = [b1, b2, (b1[0] + b2[0], b1[1] + b2[1]), (b1[0] - b2[0], b1[1] - b2[1])]
    mins = set()
    for v in cands:
        if q(v) == best:
            mins.update({v, (-v[0], -v[1])})
    return best, frozenset(mins)


def check_stretched(r: Fraction, res) -> Failure | None:
    """Exact systole of minkowski_form(1) at disk point r by reduction."""
    h = (1 + r * r, 2 * r)
    g = ((1, 0), (0, -1))
    gh = (h[0], -h[1])
    qh = h[0] * h[0] - h[1] * h[1]
    m = [[2 * gh[i] * gh[j] / qh - g[i][j] for j in range(2)] for i in range(2)]
    want, mins = lagrange_gauss(m)
    if res.value_sq != want or frozenset(res.minimizers) != mins:
        return wrong(f"systole {res.value_sq} differs from reduction {want}")
    if not res.certified:
        return wrong("exact systole is not certified")
    return None


def _diag_norm_sq(a, b, t):
    return 2.0 * (a * math.cosh(t) - b * math.sinh(t)) ** 2 - a * a + b * b


def _hyp_norm_sq(a, b, t):
    return a * a * math.exp(-2 * t) + b * b * math.exp(2 * t)


def cs_reference() -> dict[str, float]:
    """Scan-oracle suprema of the two unimodular rank-2 base lattices."""
    return {
        "diag": cs_scan_1d(_diag_norm_sq)[1],
        "hyperbolic": cs_scan_1d(_hyp_norm_sq)[1],
    }


def check_cs(value: float, want: float) -> Failure | None:
    if abs(value - want) >= 1e-4:
        return wrong(f"CS {value} differs from the scan oracle {want}")
    return None


def conf_at_disk(disk) -> float:
    return math.sqrt(float_brute_min(disk))


def check_cs_local(res, step: float = 1e-3) -> Failure | None:
    """Best-found CS on the standard form: the value is the systole at
    the reported point, and no axis step of ``step`` improves it."""
    here = conf_at_disk(res.disk_point)
    if abs(here - res.value) > 1e-9:
        return wrong(f"CS {res.value} is not the systole {here} at its point")
    for axis in range(len(res.disk_point)):
        for sign in (-1.0, 1.0):
            q = list(res.disk_point)
            q[axis] += sign * step
            if conf_at_disk(q) > res.value + 1e-6:
                return wrong("CS point is not a local maximum")
    return None
