import dataclasses
import json
import random
from fractions import Fraction

import pytest

from periodmap.bilinear import (
    GramForm,
    Signature,
    positive_part,
    signature,
    subspace_signature,
)
from periodmap.decomposition import (
    DecompositionData,
    canonical_limit,
    check_betti_identity,
    check_bpm_identity,
    connected_sum_split,
    hyperbolic_complement,
    limit_period_subspace,
    product_split,
    random_decomposition,
    validate,
)
from periodmap.errors import InconsistentDataError, InputError, PreconditionError

from oracles import hyperbolic_complement_reference


def test_connected_sum_split_is_valid():
    data = connected_sum_split()
    assert validate(data).ok
    assert check_betti_identity(data)
    assert check_bpm_identity(data)


def test_product_split_is_valid():
    data = product_split()
    assert validate(data).ok
    assert check_betti_identity(data)
    assert check_bpm_identity(data)


def test_validate_rejects_non_isotropic_d():
    q = GramForm([[1, 0], [0, -1]])
    data = DecompositionData(
        ambient=q,
        H1=q.zero_subspace(),
        H2=q.zero_subspace(),
        D=q.subspace([(1, 0)]),
        bhat1=0,
        bhat2=0,
    )
    report = validate(data)
    assert not report.ok
    conditions = [i.condition for i in report.issues]
    assert "pairing not trivial on D" in conditions
    bad = next(i for i in report.issues if i.condition == "pairing not trivial on D")
    a, b = bad.witness
    assert q.evaluate(a, b) != 0


def test_validate_rejects_overlapping_pieces():
    q = GramForm([[1, 0], [0, -1]])
    same = q.subspace([(1, 0)])
    data = DecompositionData(
        ambient=q, H1=same, H2=same, D=q.zero_subspace(), bhat1=1, bhat2=1
    )
    report = validate(data)
    assert not report.ok
    conditions = [i.condition for i in report.issues]
    assert "H1 + H2 + D is not a direct sum" in conditions
    # the same line also fails orthogonality since Q(e1, e1) = 1
    assert "H1 not orthogonal to H2" in conditions


def test_validate_rejects_degenerate_piece():
    q = GramForm([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    data = DecompositionData(
        ambient=q,
        H1=q.subspace([(1, 0, 0)]),  # null line: degenerate restriction
        H2=q.zero_subspace(),
        D=q.zero_subspace(),
        bhat1=1,
        bhat2=0,
    )
    report = validate(data)
    assert any(i.condition == "pairing degenerate on H1" for i in report.issues)


def test_betti_identity_failure_case():
    q = GramForm([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    data = DecompositionData(
        ambient=q,
        H1=q.subspace([(1, 0, 0)]),
        H2=q.subspace([(0, 1, 0)]),
        D=q.zero_subspace(),
        bhat1=1,
        bhat2=1,
    )
    # 3 != 1 + 1 + 0
    assert not check_betti_identity(data)


def test_identity_checks_need_valid_data():
    q = GramForm([[1, 0], [0, -1]])
    data = DecompositionData(
        ambient=q,
        H1=q.zero_subspace(),
        H2=q.zero_subspace(),
        D=q.subspace([(1, 0)]),
        bhat1=0,
        bhat2=0,
    )
    with pytest.raises(PreconditionError):
        check_betti_identity(data)


def test_validation_runs_once_per_data(monkeypatch):
    from periodmap import decomposition

    calls = []
    real = decomposition.validate

    def counting(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(decomposition, "validate", counting)
    data = random_decomposition(random.Random(5), max_dim=8)
    assert check_betti_identity(data)
    assert check_bpm_identity(data)
    hyperbolic_complement(data)
    assert len(calls) == 1
    # a fresh but equal instance validates on its own
    copy = DecompositionData.from_json(data.to_json())
    assert copy == data
    check_betti_identity(copy)
    assert len(calls) == 2


def test_hyperbolic_complement_product_split():
    data = product_split()
    hc = hyperbolic_complement(data)
    assert hc.W == data.ambient.subspace([(0, 1)])
    assert hc.pairing_matrix == (
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
    )


def test_hyperbolic_complement_empty_d():
    data = connected_sum_split()
    hc = hyperbolic_complement(data)
    assert hc.W.is_zero()
    assert hc.pairing_matrix == ()


def test_hyperbolic_complement_four_dim():
    # two definite directions for H1 plus one hyperbolic block for D
    q = GramForm(
        [
            [1, 0, 0, 0],
            [0, -1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ]
    )
    data = DecompositionData(
        ambient=q,
        H1=q.subspace([(1, 0, 0, 0), (0, 1, 0, 0)]),
        H2=q.zero_subspace(),
        D=q.subspace([(0, 0, 1, 0)]),
        bhat1=2,
        bhat2=0,
    )
    hc = hyperbolic_complement(data)
    assert hc.W.dim == 1
    w = hc.W.basis[0]
    d = data.D.basis[0]
    assert q.evaluate(d, w) == 1
    assert q.evaluate(w, w) == 0
    for h in data.H1.basis:
        assert q.evaluate(w, h) == 0


def test_hyperbolic_complement_inconsistent_data():
    # D pairs trivially with everything: the ambient form is degenerate,
    # so no dual vector can exist
    q = GramForm([[1, 0], [0, 0]])
    data = DecompositionData(
        ambient=q,
        H1=q.subspace([(1, 0)]),
        H2=q.zero_subspace(),
        D=q.subspace([(0, 1)]),
        bhat1=0,
        bhat2=0,
    )
    assert validate(data).ok
    assert check_betti_identity(data)
    if check_bpm_identity(data):
        with pytest.raises(InconsistentDataError):
            hyperbolic_complement(data)
    else:
        with pytest.raises(PreconditionError):
            hyperbolic_complement(data)


def test_no_dual_names_the_first_d_vector_without_one():
    # hyperbolic planes on (e1, e2) and (e3, e4) and a radical line e5:
    # e1 has the dual e2, and e5 pairs to zero with everything
    g = [[0] * 5 for _ in range(5)]
    g[0][1] = g[1][0] = g[2][3] = g[3][2] = 1
    q = GramForm(g)
    e1, e5 = (1, 0, 0, 0, 0), (0, 0, 0, 0, 1)
    for d_basis, index in (((e1, e5), 1), ((e5, e1), 0)):
        data = DecompositionData(
            ambient=q,
            H1=q.zero_subspace(),
            H2=q.zero_subspace(),
            D=q.subspace(d_basis),
            bhat1=1,
            bhat2=0,
        )
        assert validate(data).ok and check_betti_identity(data) and check_bpm_identity(data)
        with pytest.raises(
            InconsistentDataError,
            match=rf"^no dual vector for D basis vector {index}; data violates the split$",
        ):
            hyperbolic_complement(data)


def test_complement_refuses_a_split_whose_pieces_miss_a_radical_line():
    # D = 0 and the identities hold, but H1 + H2 misses the radical e3
    q = GramForm([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    data = DecompositionData(
        ambient=q,
        H1=q.subspace([(1, 0, 0)]),
        H2=q.subspace([(0, 1, 0)]),
        D=q.zero_subspace(),
        bhat1=2,
        bhat2=1,
    )
    assert validate(data).ok and check_betti_identity(data) and check_bpm_identity(data)
    with pytest.raises(
        InconsistentDataError, match=r"^H1 \+ H2 \+ D \+ W spans only 2 of 3 dimensions$"
    ):
        hyperbolic_complement(data)


def test_limit_connected_sum():
    data = connected_sum_split()
    h1p = data.ambient.subspace([(1, 0)])
    h2p = data.ambient.zero_subspace()
    out = limit_period_subspace(data, h1p, h2p)
    assert out == data.ambient.subspace([(1, 0)])
    assert subspace_signature(out) == Signature(1, 0, 0)


def test_limit_product_split():
    data = product_split()
    zero = data.ambient.zero_subspace()
    out = limit_period_subspace(data, zero, zero)
    assert out == data.D
    assert subspace_signature(out) == Signature(0, 0, 1)


def test_limit_negative_definite_ambient():
    q = GramForm([[-1, 0], [0, -2]])
    data = DecompositionData(
        ambient=q,
        H1=q.subspace([(1, 0)]),
        H2=q.subspace([(0, 1)]),
        D=q.zero_subspace(),
        bhat1=1,
        bhat2=1,
    )
    zero = q.zero_subspace()
    out = limit_period_subspace(data, zero, zero)
    assert out.is_zero()


def test_limit_rejects_non_maximal_positive():
    data = connected_sum_split()
    zero = data.ambient.zero_subspace()
    with pytest.raises(PreconditionError):
        limit_period_subspace(data, zero, zero)  # H1plus not maximal in H1


def test_limit_rejects_vectors_outside_piece():
    data = connected_sum_split()
    h1p = data.ambient.subspace([(1, 0)])
    with pytest.raises(PreconditionError):
        limit_period_subspace(data, h1p, h1p)  # not inside H2


def test_limit_independent_of_representative_mod_d():
    # shifting the positive part by D vectors must not change the span
    q = GramForm(
        [
            [2, 0, 0, 0],
            [0, -1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ]
    )
    data = DecompositionData(
        ambient=q,
        H1=q.subspace([(1, 0, 0, 0), (0, 1, 0, 0)]),
        H2=q.zero_subspace(),
        D=q.subspace([(0, 0, 1, 0)]),
        bhat1=2,
        bhat2=0,
    )
    zero = q.zero_subspace()
    a = limit_period_subspace(data, q.subspace([(1, 0, 0, 0)]), zero)
    b = limit_period_subspace(data, q.subspace([(1, 0, 5, 0)]), zero)
    assert a == b


def test_fuzzer_properties():
    rng = random.Random(20240817)
    for _ in range(200):
        data = random_decomposition(rng, max_dim=8)
        assert validate(data).ok
        assert check_betti_identity(data)
        assert check_bpm_identity(data)
        hc = hyperbolic_complement(data)
        k = data.D.dim
        assert hc.W.dim == k
        # interleaved pairing matrix is exactly hyperbolic blocks
        for i in range(2 * k):
            for j in range(2 * k):
                expected = Fraction(
                    1 if (i // 2 == j // 2 and i != j) else 0
                )
                assert hc.pairing_matrix[i][j] == expected
        out = canonical_limit(data)
        assert out.contains_subspace(positive_part(data.H1))
        assert out.contains_subspace(positive_part(data.H2))
        bp = signature(data.ambient).b_plus
        assert out.dim == bp
        assert subspace_signature(out) == Signature(bp - k, 0, k)


def test_json_round_trip():
    data = connected_sum_split()
    blob = json.dumps(data.to_json())
    back = DecompositionData.from_json(json.loads(blob))
    assert back.ambient == data.ambient
    assert back.H1 == data.H1
    assert back.H2 == data.H2
    assert back.D == data.D
    assert (back.bhat1, back.bhat2) == (1, 1)


def test_json_rejects_missing_keys():
    with pytest.raises(InputError):
        DecompositionData.from_json({"ambient": {"gram": [["1"]]}})


@pytest.mark.parametrize("bad", [Fraction(3, 2), 1.5, 1.0, True, "x", "1", None, -1])
def test_betti_numbers_must_be_non_negative_ints(bad):
    # from_json used int(): 3/2 and 1.5 became 1, true became 1, and "x"
    # or null escaped as a bare ValueError or TypeError
    blob = connected_sum_split().to_json()
    for key in ("bhat1", "bhat2"):
        with pytest.raises(InputError, match=key):
            DecompositionData.from_json({**blob, key: bad})
    with pytest.raises(InputError, match="bhat2"):
        dataclasses.replace(connected_sum_split(), bhat2=bad)


def test_data_rejects_foreign_subspace():
    q = GramForm([[1, 0], [0, -1]])
    other = GramForm([[1]])
    with pytest.raises(InputError):
        DecompositionData(
            ambient=q,
            H1=other.subspace([(1,)]),
            H2=q.zero_subspace(),
            D=q.zero_subspace(),
            bhat1=0,
            bhat2=0,
        )


def _four_dim_split():
    q = GramForm([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    return DecompositionData(
        ambient=q,
        H1=q.subspace([(1, 0, 0, 0), (0, 1, 0, 0)]),
        H2=q.zero_subspace(),
        D=q.subspace([(0, 0, 1, 0)]),
        bhat1=2,
        bhat2=0,
    )


def test_hyperbolic_complement_matches_the_sequential_reference():
    # the closed form against the loop it replaced, run in Fractions only:
    # each w_j corrected by d_i shifts in index order, then by half its
    # self-pairing along d_j
    rng = random.Random(28)
    draws = [random_decomposition(rng, max_dim=8) for _ in range(200)]
    assert sum(data.D.dim == 2 for data in draws) >= 40  # cross terms occur
    for data in draws + [product_split(), _four_dim_split()]:
        hc = hyperbolic_complement(data)
        ws, table = hyperbolic_complement_reference(
            data.ambient.gram, data.D.basis, data.H1.basis + data.H2.basis
        )
        assert hc.W.basis == ws
        assert hc.pairing_matrix == table


# one invalid split per orthogonality condition, the failing pair not the
# first one walked; the witness is the pair of basis vectors as given
WITNESSES = {
    "H1-H2": (
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [(1, 0, 0), (0, 1, 0)], [(0, 1, 1)], [],
        [("H1 not orthogonal to H2", ((0, 1, 0), (0, 1, 1)))],
    ),
    "D-D-diagonal": (
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [], [], [(1, 0, 0), (0, 0, 1)],
        [("pairing not trivial on D", ((0, 0, 1), (0, 0, 1)))],
    ),
    "D-D-cross": (
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [], [], [(1, 0, 0), (0, 1, 0)],
        [("pairing not trivial on D", ((1, 0, 0), (0, 1, 0)))],
    ),
    "D-H": (
        [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, -1, 0], [0, 0, 0, 0, -1]],
        [(0, 0, 1, 0, 0)], [(0, 0, 0, 1, 0), (0, 1, 0, 0, 1)], [(1, 0, 0, 0, 0)],
        [("D not orthogonal to H1 + H2", ((1, 0, 0, 0, 0), (0, 1, 0, 0, 1)))],
    ),
    "fractional": (
        [[2, 1, 0], [1, -1, 0], [0, 0, 3]],
        [("1/2", 1, 0)], [(1, "2/3", 0)], [(0, 0, "1/5")],
        [
            ("H1 not orthogonal to H2", ((Fraction(1, 2), 1, 0), (1, Fraction(2, 3), 0))),
            ("pairing not trivial on D", ((0, 0, Fraction(1, 5)), (0, 0, Fraction(1, 5)))),
        ],
    ),
}


@pytest.mark.parametrize("name", WITNESSES)
def test_validate_names_the_first_failing_pair(name):
    gram, h1, h2, d, want = WITNESSES[name]
    q = GramForm(gram)
    data = DecompositionData(q, q.subspace(h1), q.subspace(h2), q.subspace(d), 0, 0)
    assert [(i.condition, i.witness) for i in validate(data).issues] == want


@pytest.mark.parametrize("field", ["H1", "H2", "D"])
def test_data_rejects_a_list_for_a_subspace(field):
    q = GramForm([[1, 0], [0, -1]])
    parts = {"H1": q.zero_subspace(), "H2": q.zero_subspace(), "D": q.zero_subspace()}
    with pytest.raises(InputError, match=f"^{field} must be a Subspace, got list$"):
        DecompositionData(q, **{**parts, field: [[1, 0]]}, bhat1=0, bhat2=0)
