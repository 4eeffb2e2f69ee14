"""Exact calculus for symmetric bilinear forms over the rationals.

Values enter and leave this module as ``fractions.Fraction``: gram
matrices, subspace bases and canonical echelon forms, diagonalizations,
pairings.  Inside, every routine clears denominators once and works on
Python integers.  Row reduction is fraction-free Gauss-Jordan
elimination with each row kept primitive by its gcd; congruence
(symmetric Gauss) diagonalization runs the same steps on an integer
multiple of the gram matrix and tracks the scale of every basis column,
so its output is exactly that of the rational algorithm.  Every
determinant, adjugate and inverse comes from one fraction-free
Gauss-Jordan pass (``_int_adjugate``) and every congruence product
X G X^t from ``_gram_of``; the other modules call these two.  No
floating point enters signature, complement, or intersection results,
and Sylvester's law makes signatures basis independent.

A form is a symmetric gram matrix on coordinate space and a subspace is
a rational span inside it.  Entries may be ints, Fractions, "p/q"
strings, or floats with an integral value; any other float is rejected
rather than rounded.  A gram matrix, and a subspace basis read from
JSON, must be a list of lists of numbers, booleans excluded.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, sqrt
from operator import mul
from typing import NamedTuple

from .errors import DimensionMismatchError, InputError, PreconditionError, check_int

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        if isinstance(x, bool):
            raise InputError("a boolean is not a number")
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational literal: {x!r}") from exc
    if isinstance(x, float):
        if x != x or x in (float("inf"), float("-inf")):
            raise InputError(f"not a finite number: {x!r}")
        if not x.is_integer():
            raise InputError(
                f"float {x!r} is not exact; give it as a 'p/q' string or a Fraction"
            )
        return Fraction(int(x))
    raise InputError(f"cannot interpret {type(x).__name__} as a rational")


def as_vector(entries: Iterable) -> Vector:
    if isinstance(entries, (str, bytes)):
        raise InputError(f"a vector must be a list of numbers, got {entries!r}")
    return tuple(_frac(e) for e in entries)


def _is_list(x) -> bool:
    # lists and tuples first: they skip the slower abstract-class check
    return isinstance(x, (list, tuple)) or (
        isinstance(x, Iterable) and not isinstance(x, (str, bytes))
    )


def as_matrix(rows: Iterable[Iterable], what: str) -> Matrix:
    """Rows of rationals, checked at the boundary: the rows and each row
    must be lists (not numbers or strings), or InputError names ``what``."""
    if not _is_list(rows):
        raise InputError(f"{what} must be a list of rows, got {type(rows).__name__}")
    out = []
    for row in rows:
        if not _is_list(row):
            raise InputError(
                f"each row of {what} must be a list, got {type(row).__name__}"
            )
        out.append(as_vector(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# integer kernel (rows are lists of Python ints)
# ---------------------------------------------------------------------------


def _clear(v: Sequence) -> tuple[list[int], int]:
    """(x, d) with v == x / d, d the lcm of the denominators of v."""
    den = lcm(*[e.denominator for e in v])
    if den == 1:
        return [e.numerator for e in v], 1
    return [e.numerator * (den // e.denominator) for e in v], den


def _clear_all(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(x, d) with rows == x / d for one common d, the lcm of all denominators."""
    den = lcm(*[e.denominator for r in rows for e in r])
    return [[e.numerator * (den // e.denominator) for e in r] for r in rows], den


def _int_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Integer multiples of rational rows, one multiplier per row."""
    return [_clear(r)[0] for r in rows]


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(mul, x, y))


def _int_rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination; returns (rows, pivot columns).

    Makes the same pivot choices as rational elimination (left to right,
    the first row with a nonzero entry), but replaces "subtract f times
    the normalized pivot row" by the integer combination a * row - b *
    pivot row and divides every new row by its gcd.  Each returned row
    is therefore a positive multiple of the reduced row echelon row: its
    pivot entry is positive and it vanishes in the other pivot columns.
    The input lists are not modified.
    """
    m = []
    for row in rows:
        g = gcd(*row)
        m.append([x // g for x in row] if g > 1 else row)
    if not m:
        return [], []
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0])):
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            row = m[i]
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = m[:r]
    for i, c in enumerate(pivots):
        if out[i][c] < 0:
            out[i] = [-x for x in out[i]]
    return out, pivots


def _lead(row: list[int]) -> int:
    """First nonzero entry of a nonzero row."""
    for x in row:
        if x:
            return x


def _echelon_rows(red: list[list[int]]) -> list[Vector]:
    """Reduced row echelon rows of an integer echelon form, as Fractions."""
    out = []
    for row in red:
        p = _lead(row)
        out.append(tuple(Fraction(x, p) for x in row))
    return out


def _int_kernel(
    red: list[list[int]], pivots: list[int], ncols: int
) -> list[tuple[int, list[int]]]:
    """Free-column kernel basis of an echelon form, scaled to integers.

    One (f, v) per free column f: v is zero at the other free columns,
    and v / v[f] is the basis vector with a 1 at f.
    """
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        scale = lcm(*[row[c] for row, c in zip(red, pivots) if row[f]])
        v = [0] * ncols
        v[f] = scale
        for row, c in zip(red, pivots):
            if row[f]:
                v[c] = -row[f] * (scale // row[c])
        basis.append((f, v))
    return basis


def _kernel_rows(
    m: list[list[int]], x: Sequence[Sequence[int]] | None = None
) -> list[list[int]]:
    """The free-column kernel basis c of a nonempty integer matrix m (see
    ``_int_kernel``), or, given integer rows x, the rows c X.  x may have
    fewer rows than m has columns; c X then reads the leading entries of c."""
    red, pivots = _int_rref(m)
    kernel = [c for _, c in _int_kernel(red, pivots, len(m[0]))]
    if x is None:
        return kernel
    xt = list(zip(*x))
    return [[_dot(c, col) for col in xt] for c in kernel]


def _unit_kernel(kernel: list[tuple[int, list[int]]]) -> tuple[Vector, ...]:
    """The vectors of ``_int_kernel`` scaled to 1 in their free column."""
    return tuple(tuple(Fraction(e, v[f]) for e in v) for f, v in kernel)


def _rank_int(rows: list[list[int]]) -> int:
    return len(_int_rref(rows)[0])


def _congruence(m: list[list[int]]) -> tuple[list[list[int]], list[int], list[int]]:
    """Symmetric Gauss elimination of an integer symmetric matrix, in place.

    Takes exactly the steps of the rational symmetric Gauss algorithm:
    use a nonzero diagonal pivot (swapping it into place), create one by
    the surgery b_i <- b_i + b_j when only an off-diagonal entry is
    nonzero, and clear the pivot row and column.  Every basis update
    b_dst += f * b_src is replaced by an integer combination
    x_dst <- a * x_dst + b * x_src followed by division by the gcd of
    x_dst.  Returns (cols, num, den): the rational algorithm's column j
    is cols[j] * den[j] / num[j], and on return m is diagonal with
    m[j][j] = L * (num[j] / den[j])**2 * diag_j when the input was L
    times the rational gram matrix, so cols^t (input) cols = m.
    """
    k = len(m)
    cols = [[int(i == j) for i in range(k)] for j in range(k)]
    num = [1] * k
    den = [1] * k

    def swap(a: int, b: int) -> None:
        cols[a], cols[b] = cols[b], cols[a]
        num[a], num[b] = num[b], num[a]
        den[a], den[b] = den[b], den[a]
        m[a], m[b] = m[b], m[a]
        for row in m:
            row[a], row[b] = row[b], row[a]

    def combine(dst: int, src: int, a: int, b: int) -> None:
        x = [a * u + b * v for u, v in zip(cols[dst], cols[src])]
        for row in m:
            row[dst] = a * row[dst] + b * row[src]
        m[dst] = [a * u + b * v for u, v in zip(m[dst], m[src])]
        g = gcd(*x)
        if g > 1:
            x = [u // g for u in x]
            for row in m:
                row[dst] //= g
            m[dst] = [u // g for u in m[dst]]
            den[dst] *= g
        cols[dst] = x

    for p in range(k):
        if m[p][p] == 0:
            swap_with = next((i for i in range(p + 1, k) if m[i][i]), None)
            if swap_with is not None:
                swap(p, swap_with)
            else:
                pair = next(
                    ((i, j) for i in range(p, k) for j in range(i + 1, k) if m[i][j]),
                    None,
                )
                if pair is None:
                    break  # remaining block is identically zero
                i, j = pair
                # b_i <- b_i + b_j over the common scale num[i] * num[j]
                a, b = den[i] * num[j], den[j] * num[i]
                num[i], den[i] = num[i] * num[j], 1
                combine(i, j, a, b)
                if i != p:
                    swap(p, i)
        pivot = m[p][p]
        for j in range(p + 1, k):
            f = m[p][j]
            if f:
                # b_j <- b_j - (f / pivot) b_p, scaled by pivot / g
                g = gcd(pivot, f)
                num[j] *= pivot // g
                combine(j, p, pivot // g, -(f // g))
    return cols, num, den


def _int_adjugate(m: Sequence[Sequence[int]]) -> tuple[list[list[int]] | None, int]:
    """(adj(m), det(m)) of a square integer matrix, or (None, 0) if singular.

    One fraction-free (Bareiss) Gauss-Jordan pass turns [m | I] into
    [p I | E] with E m = p I: the step on column c replaces every other
    row by (pivot * row - row[c] * pivot row) / previous pivot, exactly;
    columns up to c are left stale, as nothing reads them again.  Up to
    the sign of the row swaps, p is det(m) and E is adj(m).
    """
    k = len(m)
    if k == 1:  # the norm matrix's R at every b+ = 1 point: no pass needed
        return ([[1]], m[0][0]) if m[0][0] else (None, 0)
    a = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(m)]
    sign, prev = 1, 1
    for c in range(k):
        for r in range(c, k):
            if a[r][c]:
                break
        else:
            return None, 0
        if r != c:
            a[c], a[r] = a[r], a[c]
            sign = -sign
        prow = a[c]
        p = prow[c]
        for i in range(k):
            if i != c:
                row = a[i]
                f = row[c]
                row[c + 1:] = [
                    (p * x - f * y) // prev for x, y in zip(row[c + 1:], prow[c + 1:])
                ]
        prev = p
    return [[sign * x for x in row[k:]] for row in a], sign * prev


def _gram_of(
    x: Sequence[Sequence[int]], g: Sequence[Sequence[int]]
) -> tuple[list[list[int]], list[list[int]]]:
    """(X G X^t, X G) for integer rows x and a symmetric integer matrix g."""
    images = [[_dot(row, v) for row in g] for v in x]
    return [[_dot(y, v) for v in x] for y in images], images


# ---------------------------------------------------------------------------
# forms, signatures, subspaces
# ---------------------------------------------------------------------------


class Signature(NamedTuple):
    """Inertia triple of a symmetric form: positive, negative, null counts."""

    b_plus: int
    b_minus: int
    b_null: int

    def is_lorentzian(self) -> bool:
        """Whether this is (1, n, 0) for some n: the b+ = 1 case."""
        return self.b_plus == 1 and self.b_null == 0


@dataclass(frozen=True)
class GramForm:
    """A symmetric bilinear form given by its gram matrix on coordinates.

    The gram matrix is checked once here and also kept as an integer
    matrix ``_igram`` equal to ``_den`` times it.  The diagonalization of
    the whole space, and the signature, radical and standard embedding
    read from it, are computed on first use and cached on the instance,
    as is the one zero subspace every zero radical or positive part of
    the form returns; equality and hashing see only ``gram``.
    """

    gram: Matrix

    def __init__(self, gram: Sequence[Sequence]) -> None:
        rows = as_matrix(gram, "the gram matrix")
        if not rows:
            raise InputError("gram matrix must have dimension at least 1")
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise InputError("gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise InputError("gram matrix must be symmetric")
        object.__setattr__(self, "gram", rows)
        igram, den = _clear_all(rows)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_igram", tuple(tuple(r) for r in igram))

    @property
    def dim(self) -> int:
        return len(self.gram)

    def _image(self, x: Sequence[int]) -> list[int]:
        """_igram @ x for an integer vector."""
        return [sum(map(mul, row, x)) for row in self._igram]

    def evaluate(self, v: Sequence, w: Sequence) -> Fraction:
        vv, ww = as_vector(v), as_vector(w)
        if len(vv) != self.dim or len(ww) != self.dim:
            raise DimensionMismatchError(
                f"vectors must have {self.dim} entries, got {len(vv)} and {len(ww)}"
            )
        x, dv = _clear(vv)
        y, dw = _clear(ww)
        return Fraction(_dot(x, self._image(y)), self._den * dv * dw)

    def subspace(self, vectors: Sequence[Sequence]) -> "Subspace":
        return Subspace(self, vectors)

    def zero_subspace(self) -> "Subspace":
        return self._zero

    @cached_property
    def _zero(self) -> "Subspace":
        return Subspace._echelon(self, [])

    def full_subspace(self) -> "Subspace":
        n = self.dim
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        return Subspace._echelon(self, identity)

    @cached_property
    def _columns(self) -> list[tuple[int, list[int], int, int]]:
        """The split of the whole space (see ``Subspace._split``), in the
        identity basis: the signature, the standard embedding and the
        radical read it."""
        m = [list(r) for r in self._igram]
        cols, num, den = _congruence(m)
        return [(m[j][j], c, den[j], num[j]) for j, c in enumerate(cols)]

    @cached_property
    def _sig(self) -> Signature:
        return _signature_of(self._columns, self.dim)

    @cached_property
    def _embedding(self) -> "StandardEmbedding":
        return _embed(self)

    @cached_property
    def _adjugate(self) -> tuple[list[list[int]] | None, int]:
        """(adj, det) of ``_igram``: adj _igram = det I, and adj is None
        when det is 0."""
        return _int_adjugate(self._igram)

    def radical(self) -> "Subspace":
        """Vectors pairing to zero with the whole space, with the canonical
        basis: the split's columns with zero diagonal entry span it."""
        return self._radical

    @cached_property
    def _radical(self) -> "Subspace":
        return _span_or_zero(self, [c for e, c, _, _ in self._columns if e == 0])

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "gram": [[str(x) for x in row] for row in self.gram],
        }

    @staticmethod
    def from_json(data: dict) -> "GramForm":
        if not isinstance(data, dict) or "gram" not in data:
            raise InputError("form JSON must be an object with a 'gram' key")
        form = GramForm(data["gram"])
        if "dim" in data and check_int(data["dim"], "dim") != form.dim:
            raise InputError(
                f"declared dim {data['dim']} does not match gram size {form.dim}"
            )
        return form


class Subspace:
    """A rational subspace of the coordinate space of a GramForm.

    The supplied spanning vectors must be linearly independent.  Equality
    and hashing use the reduced row echelon form of the basis, which is a
    canonical representative of the span.

    The span is held as the integer echelon form from ``_int_rref``
    (``_rows``, never modified in place), which the subspace operations
    work on directly.  The Fraction rows of ``canonical``, and of
    ``basis`` for a span whose basis is the canonical one, are made on
    first access.  So is the congruence diagonalization of the
    restricted form (``_split``), and the signature, positive part and
    radical read from it (``_sig``, ``_positive``, ``_radical``), which
    every holder of the instance then shares.  They depend on the
    basis, so they are kept per instance, not shared between equal
    subspaces.  A span made by ``_framed`` holds its integer gram block
    (``_frame``) until that first split reads it.
    """

    __slots__ = (
        "ambient", "_rows", "_basis", "_canonical", "_columns", "_frame",
        "_sig", "_positive", "_radical",
    )

    def __init__(self, ambient: GramForm, vectors: Sequence[Sequence]) -> None:
        rows = _rows_in(ambient, vectors)
        red, _ = _int_rref(_int_rows(rows))
        if len(red) != len(rows):
            raise InputError("spanning vectors must be linearly independent")
        self.ambient, self._rows, self._basis = ambient, red, rows
        self._canonical = self._columns = self._frame = None
        self._sig = self._positive = self._radical = None

    @classmethod
    def _echelon(
        cls, ambient: GramForm, rows: list[list[int]], basis: Matrix | None = None
    ) -> "Subspace":
        """Span of integer rows of the ambient's length.

        ``basis`` must be a basis of that span; without it the basis is
        the canonical one.
        """
        sub = cls.__new__(cls)
        sub.ambient, sub._rows, sub._basis = ambient, _int_rref(rows)[0], basis
        sub._canonical = sub._columns = sub._frame = sub._sig = sub._positive = sub._radical = None
        return sub

    @classmethod
    def _framed(
        cls, ambient: GramForm, x: list[list[int]], m: list[list[int]], basis: Matrix
    ) -> "Subspace":
        """Span of independent integer rows x, equal to the rows of
        ``basis``, whose gram block m (``ambient._den`` times X G X^t) the
        caller already holds: its split diagonalizes m, which it overwrites,
        instead of clearing and pairing the basis again."""
        sub = cls._echelon(ambient, x, basis)
        sub._frame = (m, x, 1)
        return sub

    @staticmethod
    def spanned_by(ambient: GramForm, vectors: Sequence[Sequence]) -> "Subspace":
        """Span of an arbitrary (possibly dependent) list of vectors."""
        return Subspace._echelon(ambient, _int_rows(_rows_in(ambient, vectors)))

    @property
    def canonical(self) -> Matrix:
        if self._canonical is None:
            self._canonical = tuple(_echelon_rows(self._rows))
        return self._canonical

    @property
    def basis(self) -> Matrix:
        if self._basis is None:
            self._basis = self.canonical
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._rows)

    def is_zero(self) -> bool:
        return not self._rows

    def contains(self, vector: Sequence) -> bool:
        v = as_vector(vector)
        if len(v) != self.ambient.dim:
            raise DimensionMismatchError("vector length does not match ambient")
        return _rank_int(self._rows + [_clear(v)[0]]) == self.dim

    def contains_subspace(self, other: "Subspace") -> bool:
        _check_same_ambient(self, other)
        return _rank_int(self._rows + other._rows) == self.dim

    def _int_basis(self) -> tuple[list[list[int]], int]:
        """(x, d) with basis == x / d for one common integer d."""
        if self._basis is None:
            leads = [_lead(r) for r in self._rows]
            d = lcm(*leads)
            return [[e * (d // p) for e in r] for r, p in zip(self._rows, leads)], d
        return _clear_all(self._basis)

    def _int_gram(self) -> tuple[list[list[int]], list[list[int]], int]:
        """(M, x, d): the basis is x / d, and the integer matrix M is
        ``ambient._den * d * d`` times the restricted gram."""
        x, d = self._int_basis()
        return _gram_of(x, self.ambient._igram)[0], x, d

    def _split(self) -> list[tuple[int, list[int], int, int]]:
        """(e, w, p, q) for every column of the exact diagonalization but the negative ones.

        Column j of the rational congruence diagonalization of
        ``self.restricted_gram()`` (see ``_split_of``), mapped through
        the basis, is the vector w * p / q.  Computed once per instance.
        """
        if self._columns is None:
            self._columns = _split_of(*(self._frame or self._int_gram()))
            self._frame = None
        return self._columns

    def restricted_gram(self) -> Matrix:
        m, _, d = self._int_gram()
        s = self.ambient._den * d * d
        return tuple(tuple(Fraction(e, s) for e in row) for row in m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.ambient, tuple(map(tuple, self._rows))))

    def __repr__(self) -> str:
        rows = ", ".join(
            "(" + ", ".join(str(x) for x in v) + ")" for v in self.canonical
        )
        return f"Subspace[dim {self.dim}: {rows}]"

    def to_json(self, include_ambient: bool = True) -> dict:
        data = {"basis": [[str(x) for x in v] for v in self.basis]}
        if include_ambient:
            data["ambient"] = self.ambient.to_json()
        return data

    @staticmethod
    def from_json(data: dict, ambient: GramForm | None = None) -> "Subspace":
        if not isinstance(data, dict) or "basis" not in data:
            raise InputError("subspace JSON must be an object with a 'basis' key")
        if ambient is None:
            if "ambient" not in data:
                raise InputError("subspace JSON needs an 'ambient' form")
            ambient = GramForm.from_json(data["ambient"])
        return Subspace(ambient, as_matrix(data["basis"], "the subspace basis"))


def _split_of(
    m: list[list[int]], x: list[list[int]], d: int
) -> list[tuple[int, list[int], int, int]]:
    """(e, w, p, q) for every column of the congruence diagonalization of
    an integer symmetric m, some positive multiple of the gram matrix of
    the rows x / d, but the negative ones, which readers only count; m is
    overwritten.  Column j of the rational algorithm (see
    ``_congruence``), mapped through those rows, is w * p / q, and the
    integer e has the sign of its diagonal entry."""
    cols, num, den = _congruence(m)
    xt = list(zip(*x))
    return [
        (m[j][j], [_dot(c, col) for col in xt], den[j], num[j] * d)
        for j, c in enumerate(cols)
        if m[j][j] >= 0
    ]


def _rows_in(ambient: GramForm, vectors: Sequence[Sequence]) -> Matrix:
    """The vectors as rows of rationals, each as long as the ambient's dim."""
    rows = tuple(as_vector(v) for v in vectors)
    for r in rows:
        if len(r) != ambient.dim:
            raise DimensionMismatchError(
                f"vector length {len(r)} does not match ambient dim {ambient.dim}"
            )
    return rows


def _span_or_zero(ambient: GramForm, rows: list[list[int]]) -> Subspace:
    """Span of integer rows, the ambient's one zero subspace when there
    are none."""
    return Subspace._echelon(ambient, rows) if rows else ambient._zero


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient != b.ambient:
        raise DimensionMismatchError("subspaces live over different ambient forms")


# ---------------------------------------------------------------------------
# congruence diagonalization and signatures
# ---------------------------------------------------------------------------


def signature(form: GramForm) -> Signature:
    """Inertia of the form."""
    return form._sig


def lorentzian_rank(form: GramForm, what: str) -> int:
    """n for a form of signature (1, n), whose positive lines make up
    hyperbolic n-space; any other form raises PreconditionError naming
    what."""
    sig, n = form._sig, form.dim - 1
    if not sig.is_lorentzian():
        raise PreconditionError(f"{what} needs signature (1, {n}), got {tuple(sig)}")
    return n


def _signature_of(columns: list[tuple[int, list[int], int, int]], dim: int) -> Signature:
    """Inertia of a split of a dim-dimensional space, negative columns left out."""
    plus = sum(1 for e, _, _, _ in columns if e > 0)
    null = sum(1 for e, _, _, _ in columns if e == 0)
    return Signature(plus, dim - plus - null, null)


def subspace_signature(sub: Subspace) -> Signature:
    """Inertia of the form restricted to a subspace, kept on it."""
    if sub._sig is None:
        sub._sig = _signature_of(sub._split(), sub.dim)
    return sub._sig


def is_negative_definite(sub: Subspace) -> bool:
    sig = subspace_signature(sub)
    return sig.b_plus == 0 and sig.b_null == 0


def positive_vectors(sub: Subspace) -> list[Vector]:
    """Basis vectors with positive diagonal entry in the exact diagonalization.

    They are the columns of the congruence diagonalization of
    ``sub.restricted_gram()`` with a positive diagonal entry, mapped
    through the basis of ``sub``, and span a maximal positive subspace
    of it.
    """
    return [
        tuple(Fraction(x * p, q) for x in w) for e, w, p, q in sub._split() if e > 0
    ]


def positive_part(sub: Subspace) -> Subspace:
    """Maximal positive subspace of a subspace, from exact diagonalization,
    kept on it."""
    if sub._positive is None:
        sub._positive = _span_or_zero(sub.ambient, [w for e, w, _, _ in sub._split() if e > 0])
    return sub._positive


def orth_complement(sub: Subspace) -> Subspace:
    """All vectors pairing to zero with the subspace."""
    form = sub.ambient
    if sub.is_zero():
        return form.full_subspace()
    red, pivots = _int_rref([form._image(x) for x in sub._int_basis()[0]])
    kernel = _int_kernel(red, pivots, form.dim)
    return Subspace._echelon(form, [v for _, v in kernel], _unit_kernel(kernel))


def nullspace(sub: Subspace) -> Subspace:
    """Radical of the restricted form (sub intersect sub-perp), with its
    canonical basis: the span of the diagonalization columns whose
    diagonal entry is zero, as T^t G T = D with T invertible.  Kept on
    the subspace."""
    if sub._radical is None:
        sub._radical = _span_or_zero(sub.ambient, [w for e, w, _, _ in sub._split() if e == 0])
    return sub._radical


def subspace_sum(first: Subspace, *rest: Subspace) -> Subspace:
    """The span of one or more subspaces of one ambient, in one reduction."""
    rows = list(first._rows)
    for sub in rest:
        _check_same_ambient(first, sub)
        rows += sub._rows
    return Subspace._echelon(first.ambient, rows)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked coefficient map."""
    _check_same_ambient(a, b)
    if a.is_zero() or b.is_zero():
        return a.ambient.zero_subspace()
    # coefficients (x, y) with sum_i x_i a_i = sum_j y_j b_j
    xa, xb = a._rows, b._rows
    n = a.ambient.dim
    rows = [[v[c] for v in xa] + [-w[c] for w in xb] for c in range(n)]
    return Subspace._echelon(a.ambient, _kernel_rows(rows, xa))


# ---------------------------------------------------------------------------
# standard embedding of a signature (1, n) form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StandardEmbedding:
    """Integer congruence to a scaled Minkowski diagonal form.

    columns(matrix)^t * gram * columns(matrix) equals
    diag(scales[0], -scales[1], ..., -scales[n]) with positive rational
    scales; dividing column i by sqrt(scales[i]) over the reals gives
    the exact diag(1, -1, ..., -1) change of basis.
    """

    matrix: tuple[tuple[int, ...], ...]  # columns: the split's primitive integer vectors
    scales: tuple[Fraction, ...]

    @cached_property
    def _inverse(self) -> tuple[list[list[int]] | None, int]:
        """(adj(matrix), det(matrix)): the inverse is adj / det."""
        return _int_adjugate(self.matrix)

    def to_minkowski(self, v: Sequence) -> tuple[float, ...]:
        """Float coordinates of a form-space vector in R^{1,n}, each from one Fraction."""
        x, d = _clear(as_vector(v))
        adj, det = self._inverse
        if not det:
            raise PreconditionError("matrix is not invertible")
        if len(x) != len(adj):
            raise DimensionMismatchError(f"vector must have {len(adj)} entries, got {len(x)}")
        y = [Fraction(_dot(row, x), det * d) for row in adj]
        return tuple(float(yi) * sqrt(float(s)) for yi, s in zip(y, self.scales))


def standard_embedding(form: GramForm) -> StandardEmbedding:
    """Diagonalize a signature (1, n) form into scaled Minkowski shape.

    Raises PreconditionError when the signature is not (1, n, 0).
    The columns are the integer columns of the form's split, positive
    first, each primitive with its first nonzero entry positive, so the
    result is deterministic; the scales are their norms up to sign.
    The result is cached on the form.
    """
    return form._embedding


def _embed(form: GramForm) -> StandardEmbedding:
    lorentzian_rank(form, "standard_embedding")
    # the split's columns are primitive, as every congruence update divides
    # by the gcd, and its diagonal is their X G X^t, so e is a norm times den
    split = [s for s in form._columns if s[0] > 0] + [s for s in form._columns if s[0] < 0]
    cols = [[-u for u in w] if next(u for u in w if u) < 0 else w for _, w, _, _ in split]
    scales = tuple(Fraction(abs(e), form._den) for e, _, _, _ in split)
    return StandardEmbedding(matrix=tuple(zip(*cols)), scales=scales)


@lru_cache(maxsize=None, typed=True)
def minkowski_form(n: int) -> GramForm:
    """The standard diag(1, -1, ..., -1) form on R^{1,n}, n a positive int.

    One shared form per n, so its cached split is computed once.  The
    cache tells 2 from 2.0 and True from 1, so each reaches the check.
    """
    check_int(n, "n")
    return GramForm(
        [[1 if i == j == 0 else (-1 if i == j else 0) for j in range(n + 1)] for i in range(n + 1)]
    )


def hyperbolic_plane_form() -> GramForm:
    return GramForm([[0, 1], [1, 0]])
