"""Constraints a vector configuration puts on the period point, per face.

A configuration is an independent set of integer vectors v_1, ..., v_{n+1}
in a form of signature (1, n) (or general signature for the dimension
identity engine).  Each permutahedron face, a chain of index subsets,
cuts the ambient space into nested pieces; the positive subspace of a
metric adapted to the face is pinned inside a sum of positive parts and
radicals of those pieces.  This module computes the pieces exactly,
checks the dimension identity, classifies the b+ = 1 constraint types,
and builds the hyperbolic simplex bounded by the walls of the vectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bilinear import (
    GramForm,
    Signature,
    Subspace,
    as_matrix,
    is_negative_definite,
    minkowski_form,
    nullspace,
    orth_complement,
    positive_part,
    primitive_vector,
    signature,
    standard_embedding,
    subspace_intersect,
    subspace_signature,
    subspace_sum,
)
from .errors import (
    DomainError,
    InconsistentDataError,
    InputError,
    PreconditionError,
)
from .grassmannian import ConstraintKind, ConstraintSet, HPoint, classify_span
from .permutahedron import NestedSequence


@dataclass(frozen=True)
class SurfaceConfig:
    """Integer vector configuration inside an exact bilinear form."""

    form: GramForm
    vectors: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        vecs = as_matrix(self.vectors, "the configuration vectors")
        if not vecs:
            raise InputError("configuration needs at least one vector")
        for v in vecs:
            if len(v) != self.form.dim:
                raise InputError("vector length does not match the form")
            if any(x.denominator != 1 for x in v):
                raise InputError("configuration vectors must be integral")
        # independence check via Subspace's constructor
        Subspace(self.form, vecs)
        object.__setattr__(self, "vectors", vecs)

    @property
    def n(self) -> int:
        """Permutahedron dimension: one less than the number of vectors."""
        return len(self.vectors) - 1

    def span_of(self, indices) -> Subspace:
        """V_I: span of the vectors with the given 1-based indices."""
        idx = sorted(set(indices))
        if not idx or idx[0] < 1 or idx[-1] > len(self.vectors):
            raise InputError(f"indices {indices} out of range")
        return Subspace(self.form, [self.vectors[i - 1] for i in idx])

    def to_json(self) -> dict:
        return {
            "gram": [[_num_str(x) for x in row] for row in self.form.gram],
            "vectors": [[int(x) for x in v] for v in self.vectors],
        }

    @staticmethod
    def from_json(data: dict) -> "SurfaceConfig":
        if not isinstance(data, dict) or "gram" not in data or "vectors" not in data:
            raise InputError("config JSON needs 'gram' and 'vectors'")
        return SurfaceConfig(GramForm(data["gram"]), data["vectors"])


def _num_str(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)


# ---------------------------------------------------------------------------
# face constraints (general signature)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceConstraint:
    """Exact pieces of the period constraint over one face.

    pieces[i] is V_{I_{i+1}} cut with the orthogonal complement of
    V_{I_i} (the final piece is the complement of the largest span);
    nulls[i] is the radical of V_{I_{i+1}}.  positive_parts are canonical
    maximal positive subspaces of the pieces, from exact diagonalization.
    """

    sequence: NestedSequence
    pieces: tuple[Subspace, ...]
    piece_signatures: tuple[Signature, ...]
    nulls: tuple[Subspace, ...]
    positive_parts: tuple[Subspace, ...]
    semi_positive_sum: Subspace
    summary: ConstraintSet | None

    def table_row(self) -> str:
        sigs = ", ".join(str(tuple(s)) for s in self.piece_signatures)
        kind = self.summary.kind.value if self.summary else "-"
        return f"{self.sequence}  pieces {sigs}  type {kind}"


def _chain_pieces(
    cfg: SurfaceConfig, ns: NestedSequence
) -> tuple[list[Subspace], list[Subspace]]:
    """Chain spans V_{I_i} and the pieces they cut out.

    The one place a chain is checked against its configuration.  Piece
    i is V_{I_i} cut with the orthogonal complement of V_{I_{i-1}}
    (piece 1 is V_{I_1}); the final piece is the complement of V_{I_l},
    its cut with the full space, kept with its canonical basis.
    """
    if ns.n != cfg.n:
        raise InputError(
            f"chain is for a {ns.n}-permutahedron, config has {cfg.n + 1} vectors"
        )
    spans = [cfg.span_of(sub) for sub in ns.chain]
    pieces = [spans[0]]
    for prev, cur in zip(spans, spans[1:]):
        pieces.append(subspace_intersect(cur, orth_complement(prev)))
    pieces.append(Subspace._echelon(cfg.form, orth_complement(spans[-1])._rows))
    return spans, pieces


def _first_indefinite(spans: list[Subspace]) -> int | None:
    """Index of the first span that is not negative definite, or None."""
    return next((i for i, s in enumerate(spans) if not is_negative_definite(s)), None)


def _summary(spans: list[Subspace], pieces: list[Subspace]) -> ConstraintSet:
    """The b+ = 1 constraint type of a cut chain (see ``bplus1_summary``)."""
    i = _first_indefinite(spans)
    return classify_span(spans[-1] if i is None else pieces[i])


def constraint_for_face(cfg: SurfaceConfig, ns: NestedSequence) -> FaceConstraint:
    """Pieces, radicals, and canonical positive parts over one face.

    The sum of the positive parts and the radicals must be maximal
    semi-positive of dimension b_plus(ambient); this is verified and a
    violation raises InconsistentDataError (it would falsify the
    dimension identity the construction rests on).
    """
    spans, pieces = _chain_pieces(cfg, ns)
    amb = signature(cfg.form)
    if amb.b_null != 0:
        raise PreconditionError("face constraints need a nondegenerate ambient form")
    nulls = tuple(nullspace(s) for s in spans)
    pos_parts = tuple(positive_part(p) for p in pieces)

    total = cfg.form.zero_subspace()
    for part in pos_parts + nulls:
        total = subspace_sum(total, part)
    sig = subspace_signature(total)
    if sig.b_minus != 0 or total.dim != amb.b_plus:
        raise InconsistentDataError(
            f"constraint sum has signature {tuple(sig)} in dimension {total.dim},"
            f" expected semi-positive of dimension {amb.b_plus}"
        )
    return FaceConstraint(
        sequence=ns,
        pieces=tuple(pieces),
        piece_signatures=tuple(subspace_signature(p) for p in pieces),
        nulls=nulls,
        positive_parts=pos_parts,
        semi_positive_sum=total,
        summary=_summary(spans, pieces) if amb.b_plus == 1 else None,
    )


def check_dimension_identity(cfg: SurfaceConfig, ns: NestedSequence) -> bool:
    """Exact telescoping identity for b_plus along the chain.

    b+(ambient) equals the sum over i = 1..l+1 of b+(piece_i) plus
    |N_{i-1}| - |N_{i-1} cap N_i|, with N_0 = 0 and N_{l+1} the radical
    of the ambient form.  Also verifies the nesting property
    N_1 cap N_2 = N_1 cap (N_2 + ... + N_l).
    """
    spans, pieces = _chain_pieces(cfg, ns)
    nulls = [cfg.form.zero_subspace()]
    nulls += [nullspace(s) for s in spans] + [cfg.form.radical()]

    rhs = 0
    for i, piece in enumerate(pieces, start=1):
        rhs += subspace_signature(piece).b_plus
        overlap = subspace_intersect(nulls[i - 1], nulls[i])
        rhs += nulls[i - 1].dim - overlap.dim
    identity = rhs == signature(cfg.form).b_plus

    nesting = True
    chain_nulls = nulls[1 : len(spans) + 1]  # N_1 .. N_l
    if len(chain_nulls) >= 2:
        tail = cfg.form.zero_subspace()
        for nu in chain_nulls[1:]:
            tail = subspace_sum(tail, nu)
        nesting = subspace_intersect(chain_nulls[0], chain_nulls[1]) == (
            subspace_intersect(chain_nulls[0], tail)
        )
    return identity and nesting


# ---------------------------------------------------------------------------
# b+ = 1 specialization
# ---------------------------------------------------------------------------


def _require_lorentzian(cfg: SurfaceConfig) -> None:
    sig = signature(cfg.form)
    if sig.b_plus != 1 or sig.b_null != 0:
        raise PreconditionError(
            f"operation needs ambient signature (1, n), got {tuple(sig)}"
        )


def iplus(cfg: SurfaceConfig, ns: NestedSequence) -> int | None:
    """First chain index whose span is not negative definite, or None."""
    _require_lorentzian(cfg)
    i = _first_indefinite(_chain_pieces(cfg, ns)[0])
    return None if i is None else i + 1


def bplus1_summary(cfg: SurfaceConfig, ns: NestedSequence) -> ConstraintSet:
    """Type of the period constraint over a face when b+ = 1.

    All chain spans negative definite: the period point is pinned to the
    wall of the largest span (a geodesic subspace).  Otherwise piece i+
    of the chain pins it: inside the piece, which contains the positive
    direction, or, when V_{I_i+} is degenerate, to the ideal point of
    their common 1-dimensional radical (the span before is negative
    definite).  ``constraint_for_face`` reads the same cut.
    """
    _require_lorentzian(cfg)
    return _summary(*_chain_pieces(cfg, ns))


# ---------------------------------------------------------------------------
# hyperbolic simplex from walls
# ---------------------------------------------------------------------------


def is_bounded_config(cfg: SurfaceConfig) -> bool:
    """All size-n subsets span negative definite subspaces."""
    _require_lorentzian(cfg)
    k = len(cfg.vectors)
    for out in range(1, k + 1):
        indices = [i for i in range(1, k + 1) if i != out]
        if not is_negative_definite(cfg.span_of(indices)):
            return False
    return True


def simplex_vertex_lines(cfg: SurfaceConfig) -> list[tuple[Fraction, ...]]:
    """Exact generators of the vertex lines of the wall simplex.

    Vertex i is the positive line orthogonal to every vector except
    v_i.  Each size-n subset must span a negative definite subspace;
    the generators are scaled to primitive integer vectors with the
    pairing against the omitted vector made positive, a determinate
    normalization.
    """
    _require_lorentzian(cfg)
    k = len(cfg.vectors)
    if k != cfg.form.dim:
        raise PreconditionError(
            "wall simplex needs as many vectors as the ambient dimension"
        )
    lines = []
    for out in range(1, k + 1):
        indices = [i for i in range(1, k + 1) if i != out]
        span = cfg.span_of(indices)
        if not is_negative_definite(span):
            raise PreconditionError(
                f"vectors {indices} do not span a negative definite subspace"
            )
        perp = orth_complement(span)
        if perp.dim != 1:
            raise InconsistentDataError("wall intersection is not a line")
        gen = list(primitive_vector(perp.canonical[0]))
        if cfg.form.evaluate(gen, gen) <= 0:
            raise InconsistentDataError("wall vertex line is not positive")
        # orient toward the omitted wall vector
        pair = cfg.form.evaluate(gen, cfg.vectors[out - 1])
        if pair < 0:
            gen = [-x for x in gen]
        lines.append(tuple(gen))

    if Subspace.spanned_by(cfg.form, lines).dim != k:
        raise DomainError("vertex lines are dependent; the simplex is degenerate")
    return lines


def simplex_from_walls(cfg: SurfaceConfig) -> list[HPoint]:
    """Hyperboloid vertices of the simplex bounded by the walls."""
    from .grassmannian import line_to_hpoint

    lines = simplex_vertex_lines(cfg)
    emb = standard_embedding(cfg.form)
    return [line_to_hpoint(emb.to_minkowski(gen)) for gen in lines]


def product_codim(cfg: SurfaceConfig, ns: NestedSequence) -> int:
    """Codimension of the product constraint inside the full grassmannian.

    Needs every chain span nondegenerate.  The grassmannian of maximal
    positive subspaces of a (p, m) form has dimension p*m; the result is
    the ambient dimension minus the sum over the pieces.
    """
    spans, pieces = _chain_pieces(cfg, ns)
    for idx, s in enumerate(spans, start=1):
        if subspace_signature(s).b_null != 0:
            raise PreconditionError(
                f"span of chain entry {idx} is degenerate; codimension undefined"
            )
    amb = signature(cfg.form)
    if amb.b_null != 0:
        raise PreconditionError("ambient form must be nondegenerate")
    total = 0
    for piece in pieces:
        sig = subspace_signature(piece)
        total += sig.b_plus * sig.b_minus
    codim = amb.b_plus * amb.b_minus - total
    if amb.b_plus > 1 and amb.b_minus > 1 and 0 < codim < 2:
        raise InconsistentDataError(
            f"proper product constraint with codimension {codim};"
            " the codimension bound fails"
        )
    return codim


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _mink_config(rows: Sequence[Sequence[int]]) -> SurfaceConfig:
    return SurfaceConfig(minkowski_form(2), tuple(tuple(r) for r in rows))


def preset_fig6(which: str) -> SurfaceConfig:
    """The four reference configurations in the standard (1, 2) form."""
    table = {
        "i": ((0, 1, 0), (0, 0, 1), (2, 1, 3)),
        "ii": ((0, 1, 1), (1, 1, -1), (2, 1, 2)),
        "iii": ((0, 1, -1), (0, 0, 1), (2, 1, 2)),
        "iv": ((0, 1, 1), (3, 1, 3), (3, -3, 1)),
    }
    if which not in table:
        raise InputError(f"unknown preset {which!r}; choose from {sorted(table)}")
    return _mink_config(table[which])


def preset_degenerate() -> SurfaceConfig:
    """Independent vectors whose walls fail to enclose a region."""
    return _mink_config(((1, 1, 1), (0, 1, 1), (0, 1, -1)))


def symmetric_config(a: Fraction) -> SurfaceConfig:
    """Three-fold symmetric family of surface classes, one parameter.

    The vectors are the standard basis and the form carries their exact
    pairings: self-pairing 1 - a^2 and cross-pairing 1 + a^2/2.  The
    form has signature (1, 2) for every nonzero rational a, and the
    walls bound a compact triangle exactly when a > 2.
    """
    a = Fraction(a)
    if a == 0:
        raise PreconditionError("the symmetric family needs a nonzero parameter")
    diag = 1 - a * a
    off = 1 + a * a / 2
    gram = [
        [diag, off, off],
        [off, diag, off],
        [off, off, diag],
    ]
    return SurfaceConfig(
        GramForm(gram), ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    )


def preset(name: str, a: Fraction | None = None) -> SurfaceConfig:
    if name.startswith("fig6-"):
        return preset_fig6(name[len("fig6-") :])
    if name == "degenerate":
        return preset_degenerate()
    if name == "symmetric":
        if a is None:
            raise InputError("the symmetric preset needs the parameter a")
        return symmetric_config(a)
    raise InputError(f"unknown preset {name!r}")


def random_config(
    rng: random.Random, n: int, entry_bound: int = 4
) -> SurfaceConfig:
    """Independent integer configuration in the standard (1, n) form."""
    form = minkowski_form(n)
    while True:
        vecs = tuple(
            tuple(rng.randint(-entry_bound, entry_bound) for _ in range(n + 1))
            for _ in range(n + 1)
        )
        try:
            return SurfaceConfig(form, vecs)
        except InputError:
            continue
