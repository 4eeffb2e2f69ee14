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
from functools import cached_property
from math import gcd
from typing import NamedTuple, Sequence

from .bilinear import (
    GramForm,
    Signature,
    Subspace,
    _dot,
    _frac,
    _gram_of,
    _int_adjugate,
    _int_rows,
    _kernel_rows,
    as_matrix,
    is_negative_definite,
    lorentzian_rank,
    minkowski_form,
    nullspace,
    positive_part,
    signature,
    standard_embedding,
    subspace_intersect,
    subspace_signature,
    subspace_sum,
)
from .errors import (
    InconsistentDataError,
    InputError,
    PreconditionError,
    check_int,
)
from .grassmannian import ConstraintSet, HPoint, classify_span, line_to_hpoint
from .permutahedron import NestedSequence


@dataclass(frozen=True)
class SurfaceConfig:
    """Integer vector configuration inside an exact bilinear form.

    From first use on it keeps its integer pairing matrix (``_pairing``)
    and one table (``_table``) of the spans and pieces every face reads;
    equality, hashing and repr see neither."""

    form: GramForm
    vectors: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        vecs = as_matrix(self.vectors, "the configuration vectors")
        if not vecs:
            raise InputError("configuration needs at least one vector")
        if any(x.denominator != 1 for v in vecs for x in v):
            raise InputError("configuration vectors must be integral")
        # length and independence checks via Subspace's constructor
        Subspace(self.form, vecs)
        object.__setattr__(self, "vectors", vecs)

    @property
    def n(self) -> int:
        """Permutahedron dimension: one less than the number of vectors."""
        return len(self.vectors) - 1

    @cached_property
    def _pairing(self) -> tuple[list[list[int]], list[list[int]]]:
        """(X, P): the vectors as integer rows X and the pairing matrix
        P = X G X^t, with G the form's integer gram (``form._den`` times
        the gram matrix).  X is a basis of every span V_I, so P[I, I] is
        the gram block of V_I."""
        x = _int_rows(self.vectors)
        return x, _gram_of(x, self.form._igram)[0]

    @cached_property
    def _table(self) -> dict:
        return {}

    def _span(self, idx: tuple[int, ...]) -> Subspace:
        """V_I for sorted, distinct 0-based indices, with the vectors as
        its basis, split from the block P[I, I] of ``_pairing``."""
        if idx not in self._table:
            x, p = self._pairing
            self._table[idx] = Subspace._framed(
                self.form,
                [x[i] for i in idx],
                [[p[i][j] for j in idx] for i in idx],
                tuple(self.vectors[i] for i in idx),
            )
        return self._table[idx]

    def _piece(self, prev: tuple[int, ...], cur: tuple[int, ...] | None) -> Subspace:
        """V_cur cut with the orthogonal complement of V_prev, prev inside
        cur: the rows c X_cur for c in the kernel of P[prev, cur], or for
        cur None the kernel of X_prev G.  Its basis is the canonical one."""
        if (prev, cur) not in self._table:
            x, p = self._pairing
            if cur is None:
                rows = _kernel_rows([self.form._image(x[i]) for i in prev])
            else:
                rows = _kernel_rows([[p[i][j] for j in cur] for i in prev], [x[j] for j in cur])
            self._table[prev, cur] = Subspace._echelon(self.form, rows)
        return self._table[prev, cur]

    def span_of(self, indices) -> Subspace:
        """V_I: span of the vectors with the given 1-based indices, with
        those vectors as its basis.  They are independent, as the whole
        configuration is, so the span is not checked again."""
        try:
            idx = sorted({check_int(i, "index", 1, len(self.vectors)) for i in indices})
        except TypeError:
            raise InputError(f"indices must be a list of ints, got {indices!r}") from None
        if not idx:
            raise InputError("a subset of the vectors cannot be empty")
        return self._span(tuple(i - 1 for i in idx))

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
    iplus is the first chain position whose span is not negative
    definite, None when every span is; summary is the b+ = 1 constraint
    type, None for any other ambient signature.
    """

    sequence: NestedSequence
    pieces: tuple[Subspace, ...]
    piece_signatures: tuple[Signature, ...]
    nulls: tuple[Subspace, ...]
    positive_parts: tuple[Subspace, ...]
    semi_positive_sum: Subspace
    iplus: int | None
    summary: ConstraintSet | None


class _Cut(NamedTuple):
    """One face's chain, cut once (see ``_cut``)."""

    spans: tuple[Subspace, ...]
    pieces: tuple[Subspace, ...]
    nulls: tuple[Subspace, ...]
    first: int | None

    def summary(self) -> ConstraintSet:  # see bplus1_summary
        return classify_span(self.spans[-1] if self.first is None else self.pieces[self.first])


def _cut(cfg: SurfaceConfig, ns: NestedSequence) -> _Cut:
    """Chain spans V_{I_i}, the pieces they cut out, the spans' radicals
    and the index of the first span that is not negative definite.

    The one place a chain is checked against its configuration; its
    subsets were checked when the chain was built.  Piece 1 is V_{I_1},
    piece i is V_{I_i} cut with the orthogonal complement of V_{I_{i-1}}
    and the final piece is the complement of V_{I_l}.  Spans and pieces
    come from the configuration's table, so every face shares their
    diagonalizations; the radicals and the first index are read anew.
    """
    if ns.n != cfg.n:
        raise InputError(
            f"chain is for a {ns.n}-permutahedron, config has {cfg.n + 1} vectors"
        )
    chain = [tuple(i - 1 for i in sub) for sub in ns.chain]
    spans = tuple(map(cfg._span, chain))
    pieces = (spans[0], *map(cfg._piece, chain, chain[1:] + [None]))
    first = next((i for i, s in enumerate(spans) if not is_negative_definite(s)), None)
    return _Cut(spans, pieces, tuple(nullspace(s) for s in spans), first)


def constraint_for_face(cfg: SurfaceConfig, ns: NestedSequence) -> FaceConstraint:
    """Pieces, radicals, and canonical positive parts over one face.

    The sum of the positive parts and the radicals must be maximal
    semi-positive of dimension b_plus(ambient); this is verified and a
    violation raises InconsistentDataError (it would falsify the
    dimension identity the construction rests on).
    """
    cut = _cut(cfg, ns)
    amb = signature(cfg.form)
    if amb.b_null != 0:
        raise PreconditionError("face constraints need a nondegenerate ambient form")
    pos_parts = tuple(positive_part(p) for p in cut.pieces)

    total = subspace_sum(*pos_parts, *cut.nulls)
    sig = subspace_signature(total)
    if sig.b_minus != 0 or total.dim != amb.b_plus:
        raise InconsistentDataError(
            f"constraint sum has signature {tuple(sig)} in dimension {total.dim},"
            f" expected semi-positive of dimension {amb.b_plus}"
        )
    return FaceConstraint(
        sequence=ns,
        pieces=cut.pieces,
        piece_signatures=tuple(subspace_signature(p) for p in cut.pieces),
        nulls=cut.nulls,
        positive_parts=pos_parts,
        semi_positive_sum=total,
        iplus=None if cut.first is None else cut.first + 1,
        summary=cut.summary() if amb.is_lorentzian() else None,
    )


def check_dimension_identity(cfg: SurfaceConfig, ns: NestedSequence) -> bool:
    """Exact telescoping identity for b_plus along the chain.

    b+(ambient) equals the sum over i = 1..l+1 of b+(piece_i) plus
    |N_{i-1}| - |N_{i-1} cap N_i|, with N_0 = 0 and N_{l+1} the radical
    of the ambient form.  Also verifies the nesting property
    N_1 cap N_2 = N_1 cap (N_2 + ... + N_l).
    """
    cut = _cut(cfg, ns)
    nulls = [cfg.form.zero_subspace(), *cut.nulls, cfg.form.radical()]

    rhs = sum(subspace_signature(p).b_plus for p in cut.pieces)
    rhs += sum(a.dim - subspace_intersect(a, b).dim for a, b in zip(nulls, nulls[1:]))
    identity = rhs == signature(cfg.form).b_plus

    first, *rest = cut.nulls  # N_1 .. N_l
    nesting = not rest or (
        subspace_intersect(first, rest[0])
        == subspace_intersect(first, subspace_sum(*rest))
    )
    return identity and nesting


# ---------------------------------------------------------------------------
# b+ = 1 specialization
# ---------------------------------------------------------------------------


def iplus(cfg: SurfaceConfig, ns: NestedSequence) -> int | None:
    """First chain index whose span is not negative definite, or None."""
    lorentzian_rank(cfg.form, "iplus")
    first = _cut(cfg, ns).first
    return None if first is None else first + 1


def bplus1_summary(cfg: SurfaceConfig, ns: NestedSequence) -> ConstraintSet:
    """Type of the period constraint over a face when b+ = 1.

    All chain spans negative definite: the period point is pinned to the
    wall of the largest span (a geodesic subspace).  Otherwise piece i+
    of the chain pins it: inside the piece, which contains the positive
    direction, or, when V_{I_i+} is degenerate, to the ideal point of
    their common 1-dimensional radical (the span before is negative
    definite).  ``constraint_for_face`` reads the same summary from its
    own cut.
    """
    lorentzian_rank(cfg.form, "bplus1_summary")
    return _cut(cfg, ns).summary()


# ---------------------------------------------------------------------------
# hyperbolic simplex from walls
# ---------------------------------------------------------------------------


def _first_unbounded(cfg: SurfaceConfig) -> list[int] | None:
    """The 1-based indices of the first size-n subset, leaving out v_1,
    then v_2, ..., whose span is not negative definite, or None."""
    k = len(cfg.vectors)
    for out in range(k):
        idx = tuple(i for i in range(k) if i != out)
        if not is_negative_definite(cfg._span(idx)):
            return [i + 1 for i in idx]
    return None


def is_bounded_config(cfg: SurfaceConfig) -> bool:
    """All size-n subsets span negative definite subspaces."""
    lorentzian_rank(cfg.form, "is_bounded_config")
    return _first_unbounded(cfg) is None


def simplex_vertex_lines(cfg: SurfaceConfig) -> list[tuple[Fraction, ...]]:
    """Exact generators of the vertex lines of the wall simplex.

    Vertex i is the positive line orthogonal to every vector except
    v_i.  Each size-n subset must span a negative definite subspace;
    the generators are scaled to primitive integer vectors with the
    pairing against the omitted vector made positive, a determinate
    normalization.  The configuration's vectors are independent and as
    many as the ambient dimension, so the pairing matrix P is symmetric
    and invertible and the lines are the dual-basis directions.  Row i
    of adj(P) is a c with P c = det(P) e_i, so line i is c X, turned by
    the sign of det(P).  In a (1, n) form the line orthogonal to a
    negative definite hyperplane is positive, so a line needs no test.
    """
    lorentzian_rank(cfg.form, "simplex_vertex_lines")
    if len(cfg.vectors) != cfg.form.dim:
        raise PreconditionError(
            "wall simplex needs as many vectors as the ambient dimension"
        )
    bad = _first_unbounded(cfg)
    if bad is not None:
        raise PreconditionError(f"vectors {bad} do not span a negative definite subspace")
    x, p = cfg._pairing
    adj, det = _int_adjugate(p)
    lines = []
    for c in adj:
        gen = [_dot(c, col) for col in zip(*x)]
        # primitive, oriented toward the omitted wall vector
        g = gcd(*gen) if det > 0 else -gcd(*gen)
        lines.append(tuple(Fraction(e // g) for e in gen))
    return lines


def simplex_from_walls(cfg: SurfaceConfig) -> list[HPoint]:
    """Hyperboloid vertices of the simplex bounded by the walls."""
    lorentzian_rank(cfg.form, "simplex_from_walls")
    lines = simplex_vertex_lines(cfg)
    emb = standard_embedding(cfg.form)
    return [line_to_hpoint(emb.to_minkowski(gen)) for gen in lines]


def product_codim(cfg: SurfaceConfig, ns: NestedSequence) -> int:
    """Codimension of the product constraint inside the full grassmannian.

    Needs every chain span nondegenerate.  The grassmannian of maximal
    positive subspaces of a (p, m) form has dimension p*m; the result is
    the ambient dimension minus the sum over the pieces.
    """
    spans, pieces, _, _ = _cut(cfg, ns)
    for idx, s in enumerate(spans, start=1):
        if subspace_signature(s).b_null != 0:
            raise PreconditionError(
                f"span of chain entry {idx} is degenerate; codimension undefined"
            )
    amb = signature(cfg.form)
    if amb.b_null != 0:
        raise PreconditionError("ambient form must be nondegenerate")
    total = sum(s.b_plus * s.b_minus for s in map(subspace_signature, pieces))
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
    a = _frac(a)
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
    check_int(entry_bound, "entry_bound")
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
