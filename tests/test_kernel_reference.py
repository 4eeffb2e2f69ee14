"""The integer kernel against the rational reference in oracles.py.

Random rational matrices of dimension 1-8 with denominators up to 7,
some rank-deficient and some with zero rows; every routine must return
exactly what plain Fraction elimination returns.  The radical of a
restricted form is checked the same way, on singular and nonsingular
grams and on spans with and without a radical.
"""

import random
from fractions import Fraction

from periodmap.bilinear import (
    GramForm,
    Subspace,
    _echelon_rows,
    _int_det,
    _int_rows,
    _int_rref,
    _kernel,
    _mat_inverse,
    _solve,
    nullspace,
    signature,
    sym_diagonalize,
)
from periodmap.errors import PreconditionError

from oracles import (
    charpoly_coeffs,
    inverse_reference,
    kernel_reference,
    pairing_table,
    rref_reference,
    signature_oracle,
    solve_reference,
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
        red, pivots = _int_rref(_int_rows(rows))
        assert (_echelon_rows(red), pivots) == rref_reference(rows)
        assert _kernel(rows, ncols) == kernel_reference(rows, ncols)
        rhs = [_entry(rng) for _ in range(nrows)]
        assert _solve(rows, rhs) == solve_reference(rows, rhs)


def test_inverse_matches_reference():
    rng = random.Random(20232)
    for _ in range(CASES):
        n = rng.randint(1, 8)
        rows = _matrix(rng, n, n)
        want = inverse_reference(rows)
        if want is None:
            try:
                _mat_inverse(rows)
            except PreconditionError:
                continue
            raise AssertionError(f"singular matrix inverted: {rows}")
        assert _mat_inverse(rows) == want


def test_integer_determinant_matches_charpoly():
    rng = random.Random(20234)
    for _ in range(CASES):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.25 and n > 1:
            rows[0] = list(rows[-1])
        # det(xI - M) has constant term (-1)^n det M
        assert _int_det(rows) == (-1) ** n * charpoly_coeffs(rows)[-1]


def test_congruence_and_signature_match_reference():
    rng = random.Random(20233)
    for _ in range(CASES):
        k = rng.randint(1, 8)
        gram = _symmetric(rng, k)
        assert sym_diagonalize(gram) == sym_diagonalize_reference(gram)
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
