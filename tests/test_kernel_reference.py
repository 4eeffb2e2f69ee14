"""The integer kernel against the rational reference in oracles.py.

Random rational matrices of dimension 1-8 with denominators up to 7,
some rank-deficient and some with zero rows; every routine must return
exactly what plain Fraction elimination returns.  The radical of a
restricted form is checked the same way, on singular and nonsingular
grams and on spans with and without a radical, and so is the radical
of a whole integer form.  The one elimination that gives determinants,
adjugates and inverses is checked on integer matrices, unimodular and
singular ones among them, and the congruence product X G X^t against a
plain Fraction triple sum.  The fraction-free pass under all of them
(``_eliminate``) is checked directly: its rows are p times the reduced
rows, its pivot count is the rank and sign * p the determinant.  Last,
one hash pins the repr of every exact output over seeded inputs.
"""

import dataclasses
import hashlib
import random
from fractions import Fraction

from periodmap.bilinear import (
    GramForm,
    Subspace,
    _clear_all,
    _congruence,
    _echelon_rows,
    _eliminate,
    _gram_of,
    _int_adjugate,
    _int_kernel,
    _int_rows,
    _int_rref,
    _rank_int,
    _unit_kernel,
    nullspace,
    orth_complement,
    positive_part,
    signature,
    subspace_intersect,
    subspace_signature,
    subspace_sum,
)
from periodmap.decomposition import canonical_limit, hyperbolic_complement, random_decomposition
from periodmap.face_constraints import constraint_for_face, random_config
from periodmap.permutahedron import all_faces

from oracles import (
    charpoly_coeffs,
    det_reference,
    inverse_reference,
    kernel_reference,
    pairing_table,
    rref_reference,
    signature_oracle,
    sym_diagonalize_reference,
)

CASES = 300


def _entry(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def _matrix(rng, nrows, ncols):
    rows = [[_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    kind = rng.random()
    if kind < 0.25 and nrows > 1:
        # rank-deficient: one row a combination of two others
        a, b = rng.randrange(nrows), rng.randrange(nrows)
        c, d = _entry(rng), _entry(rng)
        target = rng.randrange(nrows)
        rows[target] = [c * x + d * y for x, y in zip(rows[a], rows[b])]
    elif kind < 0.4:
        rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
    return [tuple(r) for r in rows]


def _symmetric(rng, k):
    m = [[Fraction(0)] * k for _ in range(k)]
    diag_zero = rng.random() < 0.3  # forces the off-diagonal surgery
    for i in range(k):
        for j in range(i, k):
            if i == j and diag_zero:
                continue
            m[i][j] = m[j][i] = _entry(rng)
    if rng.random() < 0.25 and k > 1:
        # singular: repeat a row and column
        a, b = rng.sample(range(k), 2)
        m[b] = list(m[a])
        for row in m:
            row[b] = row[a]
    return [tuple(r) for r in m]


def test_row_reduction_matches_reference():
    rng = random.Random(20231)
    for _ in range(CASES):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = _matrix(rng, nrows, ncols)
        x, want = _int_rows(rows), rref_reference(rows)
        red, pivots = _int_rref(x)
        assert (_echelon_rows(red), pivots) == want
        # one pass: every row is p times its reduced row, so every pivot entry is p
        scaled, pivots, p, _ = _eliminate(x)
        assert ([tuple(Fraction(e, p) for e in row) for row in scaled], pivots) == want
        assert all(row[c] == p for row, c in zip(scaled, pivots))
        assert _rank_int(x) == len(pivots)
        kernel = _int_kernel(scaled, pivots, p, ncols)
        assert list(_unit_kernel(kernel)) == kernel_reference(rows, ncols)


def test_inverse_matches_reference():
    rng = random.Random(20232)
    for _ in range(CASES):
        n = rng.randint(1, 8)
        rows = _matrix(rng, n, n)
        want = inverse_reference(rows)
        # rows == x / c, so the inverse is c adj(x) / det(x)
        x, c = _clear_all(rows)
        adj, det = _int_adjugate(x)
        if want is None:
            assert (adj, det) == (None, 0), rows
            continue
        assert [tuple(Fraction(c * a, det) for a in row) for row in adj] == list(want)


def test_integer_determinant_matches_charpoly():
    rng = random.Random(20234)
    for _ in range(CASES):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.25 and n > 1:
            rows[0] = list(rows[-1])
        # det(xI - M) has constant term (-1)^n det M
        adj, det = _int_adjugate(rows)
        assert det == (-1) ** n * charpoly_coeffs(rows)[-1]
        assert (adj is None) == (det == 0)
        _, pivots, p, sign = _eliminate(rows)
        assert (sign * p if len(pivots) == n else 0) == det_reference(rows)


def _unimodular(rng, n):
    """A random integer matrix of determinant +-1: elementary row steps
    and a sign change applied to the identity."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice([-2, -1, 1, 2])
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    if rng.random() < 0.5:
        r = rng.randrange(n)
        u[r] = [-a for a in u[r]]
    return u


def test_integer_adjugate_matches_reference():
    assert _int_adjugate([]) == ([], 1)
    rng = random.Random(20236)
    unimodular = 0
    for case in range(CASES):
        n = rng.randint(1, 8)
        if case % 4 == 0:
            rows = _unimodular(rng, n)
        else:
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.2 and n > 1:
                rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
        adj, det = _int_adjugate(rows)
        inverse = inverse_reference(rows)
        if inverse is None:
            assert (adj, det) == (None, 0), rows
            continue
        assert det == (-1) ** n * charpoly_coeffs(rows)[-1]
        assert adj == [[det * x for x in row] for row in inverse], rows
        unimodular += det in (1, -1)
    assert unimodular >= CASES // 4


def test_congruence_product_matches_triple_sum():
    rng = random.Random(20237)
    for _ in range(CASES):
        n, k = rng.randint(1, 8), rng.randint(0, 8)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-9, 9)
        x = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
        gram, images = _gram_of(x, g)
        f = [[Fraction(e) for e in row] for row in g]
        assert gram == [
            [
                sum(x[a][i] * f[i][j] * x[b][j] for i in range(n) for j in range(n))
                for b in range(k)
            ]
            for a in range(k)
        ]
        assert images == [
            [sum(v[i] * f[i][j] for i in range(n)) for j in range(n)] for v in x
        ]


def _congruence_fractions(gram):
    """(T, diag) of the rational algorithm, read off the integer
    ``_congruence`` run on a multiple of ``gram`` (see its docstring)."""
    k = len(gram)
    m, scale = _clear_all(gram)
    cols, num, den = _congruence(m)
    t = tuple(
        tuple(Fraction(cols[j][i] * den[j], num[j]) for j in range(k))
        for i in range(k)
    )
    diag = [Fraction(m[j][j] * den[j] ** 2, scale * num[j] ** 2) for j in range(k)]
    return t, diag


def test_congruence_and_signature_match_reference():
    rng = random.Random(20233)
    for _ in range(CASES):
        k = rng.randint(1, 8)
        gram = _symmetric(rng, k)
        assert _congruence_fractions(gram) == sym_diagonalize_reference(gram)
        assert tuple(signature(GramForm(gram))) == signature_oracle(gram)


def _radical_subspace_basis(rng, gram):
    """Independent vectors in the coordinate space of ``gram``, or None
    when the draw came out dependent.

    Half the time the span is forced to have a radical: a vector of the
    ambient radical (a repeated row and column a, b give e_a - e_b), or
    an isotropic coordinate vector e_i (every diagonal entry is zero)
    with vectors orthogonal to it.  The rest are random spans, the full
    space among them.
    """
    k = len(gram)
    m = rng.randint(1, k)
    vectors = []
    iso = None
    if rng.random() < 0.5:
        repeats = [
            (a, b) for a in range(k) for b in range(a + 1, k) if gram[a] == gram[b]
        ]
        zero_diag = [i for i in range(k) if gram[i][i] == 0]
        if repeats and rng.random() < 0.5:
            a, b = rng.choice(repeats)
            vectors.append(tuple(Fraction(int(j == a) - int(j == b)) for j in range(k)))
        elif zero_diag:
            iso = rng.choice(zero_diag)
            vectors.append(tuple(Fraction(int(j == iso)) for j in range(k)))
    # a coordinate c that can be solved for so that w pairs to zero with e_iso
    c = None if iso is None else next((c for c in range(k) if gram[iso][c]), None)
    while len(vectors) < m:
        w = [_entry(rng) for _ in range(k)]
        if c is not None:
            rest = sum(gram[iso][j] * w[j] for j in range(k) if j != c)
            w[c] = -rest / gram[iso][c]
        vectors.append(tuple(w))
    if len(rref_reference(vectors)[0]) != len(vectors):
        return None
    return vectors


def test_nullspace_matches_reference():
    rng = random.Random(20235)
    seen_radical = 0
    done = 0
    while done < CASES:
        k = rng.randint(1, 6)
        gram = _symmetric(rng, k)
        basis = _radical_subspace_basis(rng, gram)
        if basis is None:
            continue
        done += 1
        form = GramForm(gram)
        sub = Subspace(form, basis)
        coeffs = kernel_reference(
            pairing_table(gram, basis, range(1, len(basis) + 1)), len(basis)
        )
        mapped = [
            tuple(sum(c * b[j] for c, b in zip(cv, basis)) for j in range(k))
            for cv in coeffs
        ]
        rad = nullspace(sub)
        assert list(rad.canonical) == rref_reference(mapped)[0], (gram, basis)
        assert rad.basis == rad.canonical
        seen_radical += bool(mapped)
    assert seen_radical > CASES // 4


def _int_symmetric(rng, k):
    """A symmetric integer matrix; half of them are X^t D X for an
    integer X with fewer than k rows, so rank-deficient."""
    if rng.random() < 0.5:
        r = rng.randrange(k)
        x = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
        d = [rng.choice((-2, -1, 1, 2)) for _ in range(r)]
        return [
            [sum(dt * xt[i] * xt[j] for dt, xt in zip(d, x)) for j in range(k)]
            for i in range(k)
        ]
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            m[i][j] = m[j][i] = rng.randint(-4, 4)
    return m


def test_radical_matches_reference():
    rng = random.Random(20236)
    degenerate = 0
    for _ in range(CASES):
        k = rng.randint(1, 7)
        gram = _int_symmetric(rng, k)
        form = GramForm(gram)
        rad = form.radical()
        assert rad == form.subspace(kernel_reference(gram, k)), gram
        assert rad == nullspace(form.full_subspace()), gram
        degenerate += not rad.is_zero()
    assert degenerate > CASES // 3


# sha256 of ``_exact_dump``, recorded with the kernel that ran two
# eliminations (gcd-normalized rows, and Bareiss for adjugates) before
# ``_eliminate``; a change to any exact output changes it
EXACT_DUMP_SHA256 = "86d88ed28c4b554a6d4ce03cdee851257539945d135eeb1f869f3c020548dc43"


def _random_span(rng, form):
    """A subspace of the form's space with an independent random basis
    when the draw is independent, else the span of the draw."""
    vectors = _matrix(rng, rng.randint(1, form.dim), form.dim)
    if len(rref_reference(vectors)[0]) == len(vectors):
        return Subspace(form, vectors)
    return Subspace.spanned_by(form, vectors)


def _exact_dump():
    """The repr of every exact output over named inputs from Random(49):
    subspace algebra on 400 random forms, the hyperbolic complement and
    limit of 200 random splits, and the face constraints of every face
    of 12 random configurations at n = 2 and at n = 3."""
    rng = random.Random(49)
    out = []
    for case in range(400):
        form = GramForm(_symmetric(rng, rng.randint(2, 8)))
        a, b = _random_span(rng, form), _random_span(rng, form)
        perp = orth_complement(a)
        out.append((
            f"form {case}", form.gram, signature(form), form._adjugate,
            a.basis, b.basis, perp.basis, perp.canonical,
            subspace_intersect(a, b).canonical, subspace_sum(a, b).canonical,
            positive_part(a).canonical, positive_part(b).canonical,
            nullspace(a).canonical, nullspace(b).canonical,
            subspace_signature(a), subspace_signature(b),
        ))
    for case in range(200):
        data = random_decomposition(rng, 8)
        hc = hyperbolic_complement(data)
        out.append((f"split {case}", data.ambient.gram, hc.W.basis, hc.pairing_matrix,
                    canonical_limit(data).canonical))
    for n in (2, 3):
        for case in range(12):
            cfg = random_config(rng, n)
            for face in all_faces(n):
                fc = constraint_for_face(cfg, face)
                out.append((f"config {n}.{case}", cfg.vectors, *(
                    getattr(fc, f.name) for f in dataclasses.fields(fc)
                ), [p.basis for p in fc.pieces]))
    return "\n".join(map(repr, out))


def test_exact_outputs_match_the_pinned_dump():
    digest = hashlib.sha256(_exact_dump().encode()).hexdigest()
    assert digest == EXACT_DUMP_SHA256
