import json
import math
import random
from fractions import Fraction

import pytest

from periodmap.bilinear import (
    GramForm,
    Signature,
    Subspace,
    hyperbolic_plane_form,
    is_negative_definite,
    minkowski_form,
    nullspace,
    orth_complement,
    signature,
    standard_embedding,
    subspace_intersect,
    subspace_signature,
    subspace_sum,
    _congruence,
    _int_adjugate,
    _int_rows,
    _rank_int,
)
from periodmap.errors import (
    DimensionMismatchError,
    InputError,
    PreconditionError,
)

from oracles import inverse_reference


def frac_mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_evaluate_minkowski_examples():
    q = minkowski_form(2)
    assert q.evaluate([1, 1, 1], [1, 1, 1]) == -1
    assert q.evaluate([1, 1, 1], [0, 0, 0]) == 0
    assert q.evaluate([0, 1, 1], [0, 1, -1]) == 0


def test_evaluate_bilinearity_randomized():
    rng = random.Random(7)
    q = GramForm([[2, 1, 0], [1, -3, 4], [0, 4, 0]])
    for _ in range(50):
        u = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
        v = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
        w = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        left = q.evaluate([a * x + y for x, y in zip(u, v)], w)
        right = a * q.evaluate(u, w) + q.evaluate(v, w)
        assert left == right
        assert q.evaluate(u, w) == q.evaluate(w, u)


def test_gram_validation():
    with pytest.raises(InputError):
        GramForm([[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(InputError):
        GramForm([])
    with pytest.raises(InputError):
        GramForm([[1, 2]])
    with pytest.raises(DimensionMismatchError):
        minkowski_form(2).evaluate([1, 0], [1, 0, 0])


def test_floats_must_be_integral():
    # a float such as 0.1 has no exact rational meaning: reject, never round
    with pytest.raises(InputError, match="p/q"):
        GramForm([[0.1, 0], [0, -1]])
    with pytest.raises(InputError):
        minkowski_form(1).evaluate([0.5, 0], [1, 0])
    with pytest.raises(InputError):
        GramForm([[float("nan")]])
    q = GramForm([[2.0, 0], [0, -1.0]])
    assert q == GramForm([[2, 0], [0, -1]])
    assert q.gram[0][0] == Fraction(2)
    assert GramForm([["1/10", 0], [0, -1]]).gram[0][0] == Fraction(1, 10)


@pytest.mark.parametrize("gram", [5, "12", [1, 2], [[1, 0], 3], [[1, 0], "01"]])
def test_gram_rows_must_be_lists(gram):
    with pytest.raises(InputError, match="gram matrix"):
        GramForm(gram)


@pytest.mark.parametrize("basis", [3, [1, 0], ["10"]])
def test_subspace_json_basis_must_be_lists(basis):
    with pytest.raises(InputError, match="subspace basis"):
        Subspace.from_json({"basis": basis}, minkowski_form(1))


def test_booleans_are_not_numbers():
    with pytest.raises(InputError, match="boolean"):
        GramForm([[True, 0], [0, -1]])
    with pytest.raises(InputError, match="boolean"):
        Subspace.from_json({"basis": [[False, True]]}, minkowski_form(1))
    # a vector read a boolean as 0 or 1
    with pytest.raises(InputError, match="boolean"):
        minkowski_form(2).evaluate([True, 0, 0], [1, 0, 0])


@pytest.mark.parametrize(
    "use",
    [
        lambda form: form.evaluate("100", "100"),
        lambda form: Subspace(form, ["100"]),
    ],
    ids=["evaluate", "subspace"],
)
def test_strings_are_not_vectors(use):
    # a string used to be read as one rational per character
    with pytest.raises(InputError, match="list of numbers"):
        use(minkowski_form(2))


def test_signature_examples():
    assert signature(hyperbolic_plane_form()) == Signature(1, 1, 0)
    q = minkowski_form(2)
    sub = q.subspace([[0, 1, 1]])
    assert subspace_signature(sub) == Signature(0, 1, 0)
    zero3 = GramForm([[0] * 3 for _ in range(3)])
    assert signature(zero3) == Signature(0, 0, 3)


def _random_invertible(rng, n):
    while True:
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if _rank_int(_int_rows(rows)) == n:
            return rows


def test_signature_congruence_invariant():
    # Sylvester stability under 100 random rational congruences.
    rng = random.Random(2024)
    base_forms = [
        minkowski_form(2),
        hyperbolic_plane_form(),
        GramForm([[2, 0, 0], [0, -3, 0], [0, 0, 0]]),
        GramForm([[0, 1, 2], [1, 0, 3], [2, 3, 0]]),
    ]
    checked = 0
    while checked < 100:
        q = base_forms[checked % len(base_forms)]
        n = q.dim
        a = _random_invertible(rng, n)
        conj = [
            [
                sum(a[k][i] * q.gram[k][m] * a[m][j] for k in range(n) for m in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert signature(GramForm(conj)) == signature(q)
        checked += 1


def test_form_caches_leave_equality_alone():
    q = minkowski_form(2)
    fresh = GramForm(q.gram)  # minkowski_form(2) would return q itself
    assert signature(q) is signature(q)
    assert standard_embedding(q) is standard_embedding(q)
    assert q == fresh and hash(q) == hash(fresh)
    assert repr(q) == repr(fresh)


def test_sym_diagonalize_is_congruence():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = Fraction(rng.randint(-4, 4))
        d = [list(map(int, r)) for r in m]
        cols, _, _ = _congruence(d)
        for i in range(n):
            for j in range(n):
                val = sum(
                    cols[i][a] * m[a][b] * cols[j][b]
                    for a in range(n)
                    for b in range(n)
                )
                assert val == (d[i][i] if i == j else 0)
        assert _int_adjugate([[c[i] for c in cols] for i in range(n)])[1] != 0


def test_subspace_canonical_equality():
    q = minkowski_form(2)
    a = q.subspace([[1, 1, 0], [0, 0, 1]])
    b = q.subspace([[1, 1, 1], [0, 0, 2]])
    assert a == b
    assert hash(a) == hash(b)
    assert a.dim == 2
    with pytest.raises(InputError):
        q.subspace([[1, 1, 0], [2, 2, 0]])  # dependent


def test_orth_complement_involution_and_dims():
    rng = random.Random(11)
    q = minkowski_form(3)
    for _ in range(30):
        k = rng.randint(0, 4)
        vecs = []
        while len(vecs) < k:
            cand = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
            try:
                q.subspace(vecs + [cand])
            except InputError:
                continue
            vecs.append(cand)
        w = q.subspace(vecs)
        perp = orth_complement(w)
        # nondegenerate ambient: dim W + dim W-perp = ambient dim
        assert w.dim + perp.dim == q.dim
        assert orth_complement(perp) == w
        # the restricted-form radical is W cap W-perp
        assert nullspace(w) == subspace_intersect(w, perp)
        assert nullspace(w).dim == subspace_signature(w).b_null


def test_orth_complement_degenerate_ambient():
    # with a radical present, dim W + dim W-perp exceeds ambient dim
    q = GramForm([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    w = q.subspace([[0, 0, 1]])
    assert orth_complement(w) == q.full_subspace()
    assert q.radical() == w


def test_null_vector_in_own_complement():
    q = minkowski_form(2)
    v = [1, 1, 0]
    assert q.evaluate(v, v) == 0
    assert orth_complement(q.subspace([v])).contains(v)


def test_sum_intersect_dimension_formula():
    rng = random.Random(13)
    q = minkowski_form(3)
    for _ in range(40):
        def rand_sub():
            vecs = []
            target = rng.randint(0, 3)
            while len(vecs) < target:
                cand = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
                try:
                    q.subspace(vecs + [cand])
                except InputError:
                    continue
                vecs.append(cand)
            return q.subspace(vecs)

        a, b = rand_sub(), rand_sub()
        s = subspace_sum(a, b)
        i = subspace_intersect(a, b)
        assert a.dim + b.dim == s.dim + i.dim
        assert s.contains_subspace(a) and s.contains_subspace(b)
        assert a.contains_subspace(i) and b.contains_subspace(i)


def test_subspace_ops_ambient_mismatch():
    a = minkowski_form(2).subspace([[1, 0, 0]])
    b = GramForm([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).subspace([[1, 0, 0]])
    with pytest.raises(DimensionMismatchError):
        subspace_sum(a, b)


def test_subspace_sum_of_several_is_the_nested_sum():
    q = minkowski_form(3)
    rng = random.Random(9)
    for _ in range(50):
        subs = [
            Subspace.spanned_by(q, [[rng.randint(-2, 2) for _ in range(4)]])
            for _ in range(rng.randint(1, 4))
        ]
        nested = subs[0]
        for sub in subs[1:]:
            nested = subspace_sum(nested, sub)
        total = subspace_sum(*subs)
        assert total == nested and total.basis == nested.basis
    other = GramForm([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(DimensionMismatchError):
        subspace_sum(subs[0], subs[0], other.subspace([[1, 0, 0, 0]]))


def test_standard_embedding_identity_case():
    q = minkowski_form(2)
    emb = standard_embedding(q)
    assert emb.matrix == tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(3)) for i in range(3)
    )
    assert emb.scales == (Fraction(1), Fraction(1), Fraction(1))


def test_standard_embedding_hyperbolic_plane():
    emb = standard_embedding(hyperbolic_plane_form())
    # columns (1,1) and (1,-1), diagonal entries +2 and -2
    assert emb.matrix == ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1)))
    assert emb.scales == (Fraction(2), Fraction(2))


def test_standard_embedding_scaled_diag():
    emb = standard_embedding(GramForm([[2, 0], [0, -3]]))
    assert emb.matrix == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert emb.scales == (Fraction(2), Fraction(3))


def test_standard_embedding_contract_randomized():
    rng = random.Random(3)
    built = 0
    while built < 25:
        n = rng.randint(1, 3)
        a = _random_invertible(rng, n + 1)
        base = minkowski_form(n)
        conj = [
            [
                sum(
                    a[k][i] * base.gram[k][m] * a[m][j]
                    for k in range(n + 1)
                    for m in range(n + 1)
                )
                for j in range(n + 1)
            ]
            for i in range(n + 1)
        ]
        q = GramForm(conj)
        emb = standard_embedding(q)
        cols = list(zip(*emb.matrix))
        for c in cols:  # primitive integer columns, first nonzero entry positive
            assert all(type(x) is int for x in c)
            assert math.gcd(*c) == 1 and next(x for x in c if x) > 0
        for i in range(n + 1):
            for j in range(n + 1):
                val = sum(
                    cols[i][s] * q.gram[s][t] * cols[j][t]
                    for s in range(n + 1)
                    for t in range(n + 1)
                )
                if i != j:
                    assert val == 0
                elif i == 0:
                    assert val == emb.scales[0] > 0
                else:
                    assert val == -emb.scales[i] < 0
        built += 1


def test_to_minkowski_matches_the_reference_inverse():
    # the exact coordinates in the embedding's columns, from a plain
    # Fraction inverse, then the same float steps: the same floats
    rng = random.Random(29)
    for case in range(60):
        n = 1 + case % 5
        diag = [Fraction(rng.randint(1, 9), rng.randint(1, 4))]
        diag += [-Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
        a = _random_invertible(rng, n + 1)
        q = GramForm(
            [
                [sum(a[k][i] * diag[k] * a[k][j] for k in range(n + 1)) for j in range(n + 1)]
                for i in range(n + 1)
            ]
        )
        emb = standard_embedding(q)
        inverse = inverse_reference(emb.matrix)
        for _ in range(4):
            v = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n + 1)]
            want = tuple(
                float(sum(r * x for r, x in zip(row, v))) * math.sqrt(float(s))
                for row, s in zip(inverse, emb.scales)
            )
            assert emb.to_minkowski(v) == want


def test_to_minkowski_refuses_a_vector_of_another_length():
    # both were once zipped and truncated, to (1.0, 0.0, 0.0) and (1.0, 0.0)
    with pytest.raises(DimensionMismatchError, match="^vector must have 3 entries, got 2$"):
        standard_embedding(minkowski_form(2)).to_minkowski((1, 0))
    with pytest.raises(DimensionMismatchError, match="^vector must have 2 entries, got 3$"):
        standard_embedding(minkowski_form(1)).to_minkowski((1, 0, 5))


def test_standard_embedding_wrong_signature():
    with pytest.raises(PreconditionError):
        standard_embedding(GramForm([[1, 0], [0, 1]]))
    with pytest.raises(PreconditionError):
        standard_embedding(GramForm([[1, 1], [1, 1]]))


def test_negative_definite_helper():
    q = minkowski_form(2)
    assert is_negative_definite(q.subspace([[0, 1, 0], [0, 0, 1]]))
    assert not is_negative_definite(q.subspace([[1, 0, 0]]))
    assert not is_negative_definite(q.subspace([[1, 1, 0]]))


def test_json_round_trip_exact():
    q = GramForm([[Fraction(1, 3), Fraction(-2, 7)], [Fraction(-2, 7), 0]])
    blob = json.dumps(q.to_json())
    q2 = GramForm.from_json(json.loads(blob))
    assert q2 == q

    sub = q.subspace([[Fraction(22, 7), 1]])
    blob2 = json.dumps(sub.to_json())
    sub2 = Subspace.from_json(json.loads(blob2))
    assert sub2 == sub
    # huge denominators survive exactly
    big = GramForm([[Fraction(10**30 + 1, 10**30)]])
    assert GramForm.from_json(json.loads(json.dumps(big.to_json()))) == big


def test_json_malformed():
    with pytest.raises(InputError):
        GramForm.from_json({"dim": 2})
    with pytest.raises(InputError):
        GramForm.from_json({"dim": 3, "gram": [["1", "0"], ["0", "1"]]})
    with pytest.raises(InputError):
        GramForm.from_json({"gram": [["1", "x"], ["x", "1"]]})
