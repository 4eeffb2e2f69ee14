import math
import random
from fractions import Fraction

import pytest

from periodmap import bilinear, cli, face_constraints
from periodmap.bilinear import (
    GramForm,
    minkowski_form,
    orth_complement,
    signature,
    standard_embedding,
    subspace_intersect,
)
from periodmap.errors import InputError, PreconditionError
from periodmap.face_constraints import (
    SurfaceConfig,
    bplus1_summary,
    check_dimension_identity,
    constraint_for_face,
    iplus,
    is_bounded_config,
    preset,
    preset_degenerate,
    preset_fig6,
    product_codim,
    random_config,
    simplex_from_walls,
    simplex_vertex_lines,
    symmetric_config,
)
from periodmap.grassmannian import ConstraintKind, classify_span, hyperbolic_distance
from periodmap.permutahedron import NestedSequence, all_faces
from periodmap.supremum import cs_supremum

from oracles import (
    chain_kind_oracle,
    kernel_reference,
    pairing_table,
    rref_reference,
    signature_oracle,
)
from samples import random_chain
from test_face_golden import DEGENERATE_AMBIENT, SIGNATURE_23, face_record

F = Fraction


def chains_p2():
    return [f.chain for f in all_faces(2)]


def ns2(*chain):
    return NestedSequence(2, tuple(tuple(s) for s in chain))


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def test_config_rejects_non_integral_vectors():
    with pytest.raises(InputError):
        SurfaceConfig(minkowski_form(2), ((0, 1, 0), (0, 0, 1), (F(1, 2), 0, 0)))


def test_config_rejects_dependent_vectors():
    with pytest.raises(InputError):
        SurfaceConfig(minkowski_form(2), ((0, 1, 0), (0, 2, 0), (1, 0, 0)))


def test_config_rejects_wrong_length():
    with pytest.raises(InputError):
        SurfaceConfig(minkowski_form(2), ((0, 1), (0, 0, 1), (1, 0, 0)))


def test_span_of_bounds():
    cfg = preset_fig6("i")
    assert cfg.span_of([1, 2]).dim == 2
    with pytest.raises(InputError):
        cfg.span_of([0])
    with pytest.raises(InputError):
        cfg.span_of([4])


def test_config_json_round_trip_with_fractional_gram():
    cfg = symmetric_config(F(3))
    data = cfg.to_json()
    assert data["gram"][0][1] == "11/2"
    back = SurfaceConfig.from_json(data)
    assert back.form.gram == cfg.form.gram
    assert back.vectors == cfg.vectors
    with pytest.raises(InputError):
        SurfaceConfig.from_json({"gram": [[1]]})


@pytest.mark.parametrize(
    "vectors", [3, [1, 2, 3], [[0, 1, 0], "001"], [["a", 0, 0]], [[True, 0, 0]]]
)
def test_config_json_rejects_malformed_vectors(vectors):
    gram = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    with pytest.raises(InputError):
        SurfaceConfig.from_json({"gram": gram, "vectors": vectors})


def test_preset_dispatcher():
    assert preset("fig6-iii").vectors == preset_fig6("iii").vectors
    assert preset("degenerate").vectors == preset_degenerate().vectors
    assert preset("symmetric", F(3)).form.gram == symmetric_config(F(3)).form.gram
    with pytest.raises(InputError):
        preset("symmetric")
    with pytest.raises(InputError):
        preset("fig6-v")


# ---------------------------------------------------------------------------
# symmetric family
# ---------------------------------------------------------------------------


def test_symmetric_family_signature():
    for a in (F(1, 2), F(3, 2), F(2), F(3), F(-3)):
        sig = signature(symmetric_config(a).form)
        assert tuple(sig) == (1, 2, 0)
    with pytest.raises(PreconditionError):
        symmetric_config(0)


@pytest.mark.parametrize("a", [0.1, "x", [3]], ids=["float", "str", "list"])
def test_symmetric_family_rejects_inexact_parameter(a):
    # read like a gram entry: a float that is not an integer is not
    # rounded to its binary expansion, and a bad literal is an input error
    with pytest.raises(InputError):
        symmetric_config(a)


def test_symmetric_boundedness_threshold_exact():
    # compact wall triangle exactly when the parameter exceeds 2
    expected = {F(3, 2): False, F(2): False, F(5, 2): True, F(3): True}
    for a, want in expected.items():
        assert is_bounded_config(symmetric_config(a)) is want


def test_symmetric_pair_span_negative_definite_only_above_two():
    cfg = symmetric_config(F(3))
    gram = ((F(-8), F(11, 2)), (F(11, 2), F(-8)))
    assert cfg.span_of([1, 2]).restricted_gram() == gram
    assert signature_oracle(gram) == (0, 2, 0)
    gram_2 = symmetric_config(F(2)).span_of([1, 2]).restricted_gram()
    assert signature_oracle(gram_2) == (0, 1, 1)


# ---------------------------------------------------------------------------
# dimension identity
# ---------------------------------------------------------------------------


def test_identity_with_null_span():
    # a single null line: the radical term carries the whole identity
    cfg = SurfaceConfig(minkowski_form(2), ((1, 1, 0), (0, 0, 1), (1, 0, 0)))
    assert check_dimension_identity(cfg, ns2((1,)))
    assert check_dimension_identity(cfg, ns2((1,), (1, 2)))


def test_identity_all_faces_all_presets():
    configs = [preset_fig6(w) for w in ("i", "ii", "iii", "iv")]
    configs += [preset_degenerate(), symmetric_config(F(3)), symmetric_config(F(2))]
    for cfg in configs:
        for chain in chains_p2():
            assert check_dimension_identity(cfg, NestedSequence(2, chain))


def test_identity_mismatched_chain():
    with pytest.raises(InputError):
        check_dimension_identity(preset_fig6("i"), NestedSequence(3, ((1,),)))


def test_identity_fuzz_with_constraint_maximality():
    rng = random.Random(20260819)
    for trial in range(200):
        n = rng.choice([2, 3, 4])
        cfg = random_config(rng, n)
        ns = NestedSequence(n, random_chain(rng, n))
        assert check_dimension_identity(cfg, ns), (cfg.vectors, ns.chain)
        fc = constraint_for_face(cfg, ns)  # raises if maximality fails
        assert fc.semi_positive_sum.dim == 1
        kind = bplus1_summary(cfg, ns).kind.value
        want = chain_kind_oracle(cfg.form.gram, cfg.vectors, ns.chain)
        assert kind == want, (cfg.vectors, ns.chain, kind, want)


# ---------------------------------------------------------------------------
# constraint pieces and classification
# ---------------------------------------------------------------------------


def test_constraint_pieces_shape():
    cfg = preset_fig6("i")
    # both spans negative definite: the period point is pinned to the
    # single point orthogonal to the pair span
    fc = constraint_for_face(cfg, ns2((1,), (1, 2)))
    assert len(fc.pieces) == 3
    assert [tuple(s) for s in fc.piece_signatures] == [
        (0, 1, 0),
        (0, 1, 0),
        (1, 0, 0),
    ]
    assert fc.summary is not None and fc.summary.kind is ConstraintKind.GEODESIC

    # indefinite pair span: the first failing piece carries the positive line
    fc2 = constraint_for_face(cfg, ns2((2,), (2, 3)))
    assert [tuple(s) for s in fc2.piece_signatures] == [
        (0, 1, 0),
        (1, 0, 0),
        (0, 1, 0),
    ]
    assert fc2.summary is not None and fc2.summary.kind is ConstraintKind.POINT


def test_iplus_values():
    sym = symmetric_config(F(3))
    assert iplus(sym, ns2((1,), (1, 2))) is None
    assert iplus(preset_fig6("iv"), ns2((2,), (2, 3))) == 2
    assert iplus(preset_degenerate(), ns2((1, 2))) == 1
    with pytest.raises(PreconditionError):
        # needs a (1, n) ambient form
        iplus(
            SurfaceConfig(
                GramForm([[1, 0], [0, 1]]), ((1, 0), (0, 1))
            ),
            NestedSequence(1, ((1,),)),
        )


# rank-3 forms that are not (1, 2): two positive directions, and a radical
NOT_LORENTZIAN = {
    "(2, 1, 0)": GramForm([[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
    "(1, 1, 1)": GramForm([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
}
# every entry point whose precondition is an ambient form of signature (1, n)
LORENTZIAN_CALLS = {
    "iplus": lambda cfg: iplus(cfg, ns2((1,))),
    "bplus1_summary": lambda cfg: bplus1_summary(cfg, ns2((1,))),
    "is_bounded_config": is_bounded_config,
    "simplex_vertex_lines": simplex_vertex_lines,
    "simplex_from_walls": simplex_from_walls,
    "classify_span": lambda cfg: classify_span(cfg.span_of([1])),
    "standard_embedding": lambda cfg: standard_embedding(cfg.form),
    "cs_supremum": lambda cfg: cs_supremum(cfg.form),
}


@pytest.mark.parametrize("sig", sorted(NOT_LORENTZIAN))
@pytest.mark.parametrize("call", sorted(LORENTZIAN_CALLS))
def test_lorentzian_refusals_name_the_call(call, sig):
    cfg = SurfaceConfig(NOT_LORENTZIAN[sig], ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(PreconditionError) as err:
        LORENTZIAN_CALLS[call](cfg)
    assert str(err.value) == f"{call} needs signature (1, 2), got {sig}"


def test_summary_geodesic_when_all_spans_negative_definite():
    out = bplus1_summary(symmetric_config(F(3)), ns2((1,), (1, 2)))
    assert out.kind is ConstraintKind.GEODESIC


def test_summary_ideal_point_at_threshold():
    out = bplus1_summary(symmetric_config(F(2)), ns2((1,), (1, 2)))
    assert out.kind is ConstraintKind.IDEAL_POINT
    (null_gen,) = out.vectors
    gram = symmetric_config(F(2)).form
    assert gram.evaluate(null_gen, null_gen) == 0


def test_iplus_one_for_leading_null_vector():
    cfg = SurfaceConfig(minkowski_form(2), ((1, 1, 0), (0, 0, 1), (1, 0, 0)))
    assert iplus(cfg, ns2((1,))) == 1
    out = bplus1_summary(cfg, ns2((1,), (1, 2)))
    assert out.kind is ConstraintKind.IDEAL_POINT


def _fresh(cfg):
    """An equal config on a new form, with nothing computed yet."""
    return SurfaceConfig(GramForm(cfg.form.gram), cfg.vectors)


def test_face_constraint_diagonalizes_each_span_and_piece_once(monkeypatch):
    # l spans and l + 1 pieces share one subspace (piece 1 is span 1);
    # with the semi-positive sum and the fresh ambient form that is at
    # most 2l + 2 congruence diagonalizations per face, for all four
    # readers together: the spans and pieces stay in the config's table,
    # so the three after constraint_for_face diagonalize nothing new
    calls = []
    congruence = bilinear._congruence

    def counting(m):
        calls.append(1)
        return congruence(m)

    def fresh_faces():
        # a new form for every face, so its own diagonalization counts
        # (the presets build theirs from the shared minkowski_form)
        for name in ("fig6-i", "fig6-ii", "fig6-iii", "fig6-iv", "degenerate"):
            for ns in all_faces(2):
                yield _fresh(preset(name)), ns
        rng = random.Random(7)
        for n in (3, 4):
            for _ in range(10):
                cfg = _fresh(random_config(rng, n))
                yield cfg, NestedSequence(n, random_chain(rng, n))

    monkeypatch.setattr(bilinear, "_congruence", counting)
    for cfg, ns in fresh_faces():
        calls.clear()
        constraint_for_face(cfg, ns)
        check_dimension_identity(cfg, ns)
        iplus(cfg, ns)
        bplus1_summary(cfg, ns)
        assert len(calls) <= 2 * len(ns.chain) + 2, (cfg.vectors, ns.chain, len(calls))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sweep_diagonalizes_each_span_and_piece_once(monkeypatch, n):
    # a full sweep with both readers on one fresh config splits, once
    # each, every face's semi-positive sum, the form, the 2^(n+1) - 2
    # subset spans and as many final pieces, and one piece per pair of
    # nested proper subsets: the table shares them between faces
    calls = []
    congruence = bilinear._congruence

    def counting(m):
        calls.append(1)
        return congruence(m)

    monkeypatch.setattr(bilinear, "_congruence", counting)
    cfg = _fresh(random_config(random.Random(n), n))
    faces = all_faces(n)
    for ns in faces:
        constraint_for_face(cfg, ns)
        check_dimension_identity(cfg, ns)
    k = n + 1
    pairs = 3**k - 3 * 2**k + 3
    assert len(calls) == len(faces) + 1 + 2 * (2**k - 2) + pairs


def test_span_of_reads_the_table():
    # one instance per subset, whatever order the indices come in and
    # whatever the faces read in between; the table changes no equality,
    # hash or repr, and an equal config keeps its own
    cfg = random_config(random.Random(3), 3)
    twin = SurfaceConfig(cfg.form, cfg.vectors)
    key = (hash(cfg), repr(cfg))
    span = cfg.span_of([1, 3])
    assert cfg.span_of([3, 1]) is span and cfg.span_of((1, 3, 3)) is span
    for ns in all_faces(3):
        constraint_for_face(cfg, ns)
    assert cfg.span_of([1, 3]) is span
    assert twin.span_of([1, 3]) is not span and twin.span_of([1, 3]) == span
    assert cfg == twin and (hash(cfg), repr(cfg)) == key == (hash(twin), repr(twin))


def _answer(reader, cfg, ns):
    try:
        return reader(cfg, ns)
    except ValueError as exc:
        return type(exc)


def test_kept_cut_is_never_stale():
    # one config asked about two chains in turn, a twin config equal to
    # it but a distinct object, and an unequal config asked about the same
    # chains answer every reader as a config built fresh for each call
    # does; so does one config that walks every face forward and back.
    # The config's table changes no equality or hash
    readers = (
        constraint_for_face,
        check_dimension_identity,
        iplus,
        bplus1_summary,
        product_codim,
        lambda cfg, ns: face_record("", cfg, ns),  # every basis too
    )
    rng = random.Random(11)
    for n in (2, 3, 4):
        cfg = random_config(rng, n)
        twin = SurfaceConfig(cfg.form, cfg.vectors)
        other = random_config(rng, n)
        key = (hash(cfg), repr(cfg))
        faces = all_faces(n)
        for _ in range(4):
            a, b = rng.sample(faces, 2)
            for ns in (a, b, a, b):
                for reader in readers:
                    got = [_answer(reader, c, ns) for c in (cfg, twin, other)]
                    want = [_answer(reader, _fresh(c), ns) for c in (cfg, cfg, other)]
                    assert got == want, (reader, ns.chain)
                for c in (cfg, twin, other):
                    # read apart from the table: the last piece is V_{I_l}-perp
                    perp = orth_complement(c.span_of(ns.chain[-1]))
                    assert constraint_for_face(c, ns).pieces[-1] == perp
            # a chain for another n is refused on every call, cut or not
            for _ in range(2):
                with pytest.raises(InputError):
                    check_dimension_identity(cfg, NestedSequence(n + 1, ((1,),)))
        assert cfg == twin and (hash(cfg), repr(cfg)) == key
        assert hash(twin) == hash(cfg)
    for n in (2, 3):
        cfg = random_config(rng, n)
        faces = all_faces(n)
        for ns in faces + faces[::-1]:
            for reader in readers:
                got = _answer(reader, cfg, ns)
                assert got == _answer(reader, _fresh(cfg), ns), (reader, ns.chain)


def _pieces_reference(gram, vectors, chain):
    """Canonical rows of every piece after the first, from raw pairings.

    As I_{i-1} lies in I_i, the pairings of V_{I_{i-1}} with V_{I_i} are
    rows of the pairing table of I_i; piece i is the rows c X_{I_i} for c
    in their kernel.  The final piece is the kernel of the rows v G."""
    out = []
    for prev, cur in zip(chain, chain[1:]):
        table = pairing_table(gram, vectors, cur)
        block = [table[cur.index(i)] for i in prev]
        rows = [
            [sum(c * vectors[i - 1][a] for c, i in zip(cs, cur)) for a in range(len(gram))]
            for cs in kernel_reference(block, len(cur))
        ]
        out.append(rref_reference(rows)[0])
    images = [
        [sum(vectors[i - 1][a] * gram[a][b] for a in range(len(gram))) for b in range(len(gram))]
        for i in chain[-1]
    ]
    out.append(rref_reference(kernel_reference(images, len(gram)))[0])
    return out


def test_pieces_match_reference_from_raw_pairings():
    # every piece after the first is a kernel of a block of the pairing
    # matrix; recomputed here with Fraction elimination on pairing tables,
    # and against the cut of a span with a complement in the ambient
    rng = random.Random(20261019)
    faces = [(cfg, ns) for cfg in (SIGNATURE_23, DEGENERATE_AMBIENT) for ns in all_faces(2)]
    for n in (2, 3, 4):
        for _ in range(6):
            cfg = random_config(rng, n)
            faces += [(cfg, NestedSequence(n, random_chain(rng, n))) for _ in range(5)]
    middle = 0
    for cfg, ns in faces:
        pieces = face_constraints._cut(cfg, ns).pieces  # no face over the degenerate one
        want = _pieces_reference(cfg.form.gram, cfg.vectors, ns.chain)
        assert [p.canonical for p in pieces[1:]] == [tuple(w) for w in want], ns.chain
        for (prev, cur), piece in zip(zip(ns.chain, ns.chain[1:]), pieces[1:]):
            cut = subspace_intersect(cfg.span_of(cur), orth_complement(cfg.span_of(prev)))
            assert piece == cut and piece.basis == cut.basis, (prev, cur)
            middle += 1
    assert middle >= 100


def test_summary_point_for_indefinite_pair():
    out = bplus1_summary(preset_fig6("iv"), ns2((2,), (2, 3)))
    assert out.kind is ConstraintKind.POINT
    assert out.determined
    (witness,) = out.vectors
    assert preset_fig6("iv").form.evaluate(witness, witness) > 0


def test_degenerate_preset_kinds_match_frozen_table():
    cfg = preset_degenerate()
    kinds = {}
    for subset in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]:
        kinds[subset] = bplus1_summary(cfg, NestedSequence(2, (subset,))).kind.value
    assert kinds == {
        (1,): "Geodesic",
        (2,): "Geodesic",
        (3,): "Geodesic",
        (1, 2): "Point",
        (1, 3): "Geodesic",
        (2, 3): "Geodesic",
    }


def test_all_preset_faces_match_oracle():
    names = ["fig6-i", "fig6-ii", "fig6-iii", "fig6-iv", "degenerate"]
    for name in names:
        cfg = preset(name)
        for chain in chains_p2():
            got = bplus1_summary(cfg, NestedSequence(2, chain)).kind.value
            want = chain_kind_oracle(cfg.form.gram, cfg.vectors, chain)
            assert got == want, (name, chain, got, want)


# ---------------------------------------------------------------------------
# wall simplex
# ---------------------------------------------------------------------------


def test_simplex_vertex_lines_symmetric():
    lines = simplex_vertex_lines(symmetric_config(F(3)))
    assert lines == [
        (F(5), F(11), F(11)),
        (F(11), F(5), F(11)),
        (F(11), F(11), F(5)),
    ]
    form = symmetric_config(F(3)).form
    for i, gen in enumerate(lines):
        assert form.evaluate(gen, gen) > 0
        for j in range(3):
            if j != i:
                basis_vec = [0, 0, 0]
                basis_vec[j] = 1
                assert form.evaluate(gen, basis_vec) == 0


def test_simplex_vertex_lines_are_the_primitive_dual_lines():
    # line i pairs to zero with every other vector, is positive, pairs
    # positively with v_i and is primitive: that fixes it, and every
    # bounded member of the family and random bounded configs are checked
    rng = random.Random(3)
    configs = [symmetric_config(F(a, 10)) for a in range(21, 61, 3)]
    while len(configs) < 40:
        cfg = random_config(rng, rng.choice([2, 3]), entry_bound=3)
        if is_bounded_config(cfg):
            configs.append(cfg)
    for cfg in configs:
        lines = simplex_vertex_lines(cfg)
        gram = cfg.form.gram
        table = pairing_table(gram, [*cfg.vectors, *lines], range(1, 2 * len(lines) + 1))
        k = len(lines)
        for i, gen in enumerate(lines):
            pairs = table[k + i][:k]
            assert [x for j, x in enumerate(pairs) if j != i] == [0] * (k - 1)
            assert pairs[i] > 0 and table[k + i][k + i] > 0
            assert all(x.denominator == 1 for x in gen)
            assert math.gcd(*(int(x) for x in gen)) == 1


def test_simplex_diagonalizes_no_span_and_takes_no_complement(monkeypatch):
    # every vertex line, and the test that its hyperplane is negative
    # definite, read from one adjugate of the pairing matrix: no span is
    # diagonalized, no kernel is reduced and no orthogonal complement is
    # taken
    calls = {"congruence": 0, "orth_complement": 0, "adjugate": 0, "kernel": 0}

    def counting(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)

        return wrapped

    monkeypatch.setattr(bilinear, "_congruence", counting("congruence", bilinear._congruence))
    for name, f in (
        ("orth_complement", orth_complement),
        ("adjugate", bilinear._int_adjugate),
        ("kernel", bilinear._kernel_rows),
    ):
        wrapped = counting(name, f)
        for mod in (bilinear, face_constraints):
            monkeypatch.setattr(mod, f.__name__, wrapped, raising=False)
    rng = random.Random(5)
    configs = [symmetric_config(F(a, 10)) for a in (21, 30, 45, 60)]
    while len(configs) < 12:
        cfg = random_config(rng, rng.choice([2, 3]), entry_bound=3)
        if is_bounded_config(cfg):
            configs.append(_fresh(cfg))
    for cfg in configs:
        signature(cfg.form)  # the form's own split is not the simplex's
        calls.update(congruence=0, orth_complement=0, adjugate=0, kernel=0)
        simplex_vertex_lines(cfg)
        assert calls == {
            "congruence": 0, "orth_complement": 0, "adjugate": 1, "kernel": 0
        }


def test_cli_simplex_computes_the_lines_once(monkeypatch, capsys):
    calls = []
    lines = face_constraints.simplex_vertex_lines

    def counting(cfg):
        calls.append(1)
        return lines(cfg)

    for mod in (face_constraints, cli):
        monkeypatch.setattr(mod, "simplex_vertex_lines", counting)
    for argv in (["--json"], []):
        calls.clear()
        assert cli.main(["simplex", "--preset", "symmetric", "--a", "3", *argv]) == 0
        assert len(calls) == 1
    capsys.readouterr()


def test_simplex_is_equilateral_for_symmetric_family():
    verts = simplex_from_walls(symmetric_config(F(3)))
    d01 = hyperbolic_distance(verts[0], verts[1])
    d02 = hyperbolic_distance(verts[0], verts[2])
    d12 = hyperbolic_distance(verts[1], verts[2])
    assert abs(d01 - d02) < 1e-9
    assert abs(d01 - d12) < 1e-9
    assert d01 > 0.1


def test_simplex_needs_negative_definite_walls():
    with pytest.raises(PreconditionError):
        simplex_from_walls(symmetric_config(F(3, 2)))
    with pytest.raises(PreconditionError):
        simplex_from_walls(preset_fig6("iv"))


def _first_unbounded_oracle(cfg):
    # leave out v_1, then v_2, ...: the first span whose pairing table is
    # not negative definite by Descartes' rule, 1-based
    k = len(cfg.vectors)
    for out in range(1, k + 1):
        idx = [i for i in range(1, k + 1) if i != out]
        sig = signature_oracle(pairing_table(cfg.form.gram, cfg.vectors, idx))
        if sig != (0, k - 1, 0):
            return idx
    return None


def test_simplex_refusal_names_the_first_hyperplane_that_is_not_negative_definite():
    rng = random.Random(30)
    configs = [random_config(rng, n, entry_bound=3) for n in (2, 3) for _ in range(120)]
    # the first hyperplane left, span(v_2, v_3), holds the null line of v_2
    degenerate = SurfaceConfig(minkowski_form(2), ((0, 1, 0), (1, 1, 0), (0, 0, 1)))
    assert _first_unbounded_oracle(degenerate) == [2, 3]
    refused = 0
    for cfg in [degenerate, *configs]:
        bad = _first_unbounded_oracle(cfg)
        if bad is None:
            assert len(simplex_vertex_lines(cfg)) == len(cfg.vectors)
            continue
        refused += 1
        with pytest.raises(
            PreconditionError,
            match=rf"^vectors \[{', '.join(map(str, bad))}\] do not span a negative definite",
        ):
            simplex_vertex_lines(cfg)
    assert 0 < refused < len(configs)


def test_walls_through_common_point_rejected_at_construction():
    # three walls all passing through (1, 0, 0) force dependent vectors,
    # so the configuration itself is rejected
    with pytest.raises(InputError):
        SurfaceConfig(minkowski_form(2), ((0, 1, 0), (0, 0, 1), (0, 1, 1)))


def test_simplex_vertices_on_hyperboloid():
    for a in (F(5, 2), F(3), F(4)):
        for v in simplex_from_walls(symmetric_config(a)):
            # HPoint construction already enforces the sheet equation;
            # spot-check the float norm directly as well
            x = v.coords
            norm = x[0] * x[0] - x[1] * x[1] - x[2] * x[2]
            assert abs(norm - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# boundedness and product codimension
# ---------------------------------------------------------------------------


def test_fig6_presets_unbounded():
    for name in ("i", "ii", "iii", "iv"):
        assert is_bounded_config(preset_fig6(name)) is False
    assert is_bounded_config(preset_degenerate()) is False


def test_product_codim_lorentzian():
    cfg = preset_fig6("i")
    assert product_codim(cfg, ns2((1,))) == 1
    assert product_codim(cfg, ns2((1,), (1, 2))) == 2


def test_product_codim_higher_signature():
    form = GramForm(
        [
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, -1, 0, 0],
            [0, 0, 0, -1, 0],
            [0, 0, 0, 0, -1],
        ]
    )
    cfg = SurfaceConfig(
        form,
        ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (1, 0, 0, 0, 0)),
    )
    assert product_codim(cfg, ns2((1,), (1, 2))) == 4
    fc = constraint_for_face(cfg, ns2((1,), (1, 2)))
    assert fc.summary is None
    assert fc.semi_positive_sum.dim == 2


def test_product_codim_rejects_degenerate_span():
    cfg = SurfaceConfig(minkowski_form(2), ((1, 1, 0), (0, 0, 1), (1, 0, 0)))
    with pytest.raises(PreconditionError):
        product_codim(cfg, ns2((1,)))


def test_random_config_fuzz_is_reproducible():
    a = random_config(random.Random(7), 2)
    b = random_config(random.Random(7), 2)
    assert a.vectors == b.vectors
