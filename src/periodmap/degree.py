"""The PL degree of a boundary map: its winding number around each point
of the cube of (k+1)**n lattice points, by mixed radix, and which points
lie on its image.  The input is blocks (corners, facing) of its image
simplices, the corners in lattice units in column form (n, n,
simplices), the facing +1 or -1 by each simplex's orientation.

One set of lines serves two routes.  coverage runs float64 corners.
Python ints in an object array, the corners times one unit (as_integers:
floats times a power of two), are exact: every sign is, and a point is
on the image only when it lies on it.  Three steps read the dtype: a
ceiling of a quotient (_ceil), a foot's quotient (_quotient, a Fraction
of ints) and the on-image tolerance, LOCATE_TOL grid steps for floats
and 0 for ints.  No shipped report takes the exact route yet.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

SLAB_ROWS = 2**15  # map rows per call, simplices per block of mesh work, scan pairs per run
LOCATE_TOL = 1e-9  # grid steps: how far off the image a float point may lie and be on it


def as_integers(xs: np.ndarray) -> tuple[np.ndarray, int]:
    """A float array as (ints, unit): Python ints in an object array of
    its shape and one power of two, the least with ints == xs * unit
    exactly."""
    ratios = [x.as_integer_ratio() for x in xs.ravel().tolist()]
    unit = max((d for _, d in ratios), default=1)  # each a power of two
    ints = np.empty(xs.shape, dtype=object)
    ints.flat = [p * (unit // d) for p, d in ratios]
    return ints, unit


def _ceil(num, den):
    """ceil(num / den): the float quotient's, or of Python ints the exact one."""
    return -(-num // den) if num.dtype == object else np.ceil(num / den)


def _quotient(num, den):
    """num / den: a float, or of Python ints the exact Fraction."""
    return np.frompyfunc(Fraction, 2, 1)(num, den) if num.dtype == object else num / den


def _box_pairs(low: np.ndarray, high: np.ndarray):
    """The (box, integer point) pairs of the integer boxes from low to
    high, in column form (dimension, boxes), in runs of at most
    SLAB_ROWS: each pair's box and point in column form.  A box with a
    high below its low holds no point, one of dimension 0 one."""
    sizes = np.maximum(high - low + 1, 0)
    counts = functools.reduce(np.multiply, sizes, np.ones(low.shape[1], dtype=np.int64))
    ends = np.cumsum(counts)
    starts, total = ends - counts, int(ends[-1]) if len(ends) else 0
    for start in range(0, total, SLAB_ROWS):
        stop = min(start + SLAB_ROWS, total)
        first, last = np.searchsorted(ends, (start, stop - 1), side="right")
        held = np.minimum(ends[first : last + 1], stop)
        held -= np.maximum(starts[first : last + 1], start)
        owner = np.repeat(np.arange(first, last + 1), held)
        rank = np.arange(start, stop) - np.take(starts, owner)
        points = np.empty((len(low), stop - start), dtype=np.int64)
        for d in range(len(low) - 1, 0, -1):
            rank, points[d] = np.divmod(rank, np.take(sizes[d], owner))
            points[d] += np.take(low[d], owner)
        if len(low):
            points[0] = rank + np.take(low[0], owner)
        yield owner, points


def _det(m):
    """The determinant of a square matrix given as rows, each entry a
    number or an array over a batch, 1 when empty: cofactor expansion
    down the first column, added in row order, so that integers give the
    exact integer and the same float entries the same bits."""
    total = 1
    for r, row in enumerate(m):
        term = row[0] * _det([o[1:] for o in (*m[:r], *m[r + 1 :])]) if len(m) > 1 else row[0]
        total = term if r == 0 else total - term if r % 2 else total + term
    return total


def _weights(rel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each corner's weight c_i and its sign, (n, pairs) each, from the
    first n - 1 coordinates of the corners w_j less a lattice point p, rel
    (n - 1, n, pairs): c_i = (-1)^(n-1-i) det(w_j - p : j != i) (_det),
    its cofactor in the columns w_j - p over a row of ones.  p is moved to
    p + (e, e^2, ...), e > 0 infinitesimal (Edelsbrunner and Muecke's
    Simulation of Simplicity): a c_i of 0 takes minus the sign of its
    determinant with row a replaced by ones, for the first a = 1, ..., n -
    1 where that is not 0, the leading term of det(w_j - p - (e, e^2,
    ...))."""
    n = rel.shape[1]
    weight = np.empty(rel.shape[1:], dtype=rel.dtype)
    sign = np.empty(rel.shape[1:])
    for i in range(n):
        facet, parity = rel[:, [j for j in range(n) if j != i]], (-1) ** (n - 1 - i)
        weight[i] = parity * _det(facet)
        sign[i] = np.sign(weight[i])
        tied = np.flatnonzero(sign[i] == 0)
        for a in range(n - 1):
            if not len(tied):
                break
            ones = np.take(facet, tied, axis=2)
            ones[a] = 1
            sign[i, tied] = -parity * np.sign(_det(ones))
            tied = tied[sign[i, tied] == 0]
    return weight, sign


def _crossings(corners: np.ndarray, facing: np.ndarray, k: int, unit=1):
    """The crossings of a block's image simplices with the lattice lines:
    each one's line (the mixed radix of its first n - 1 coordinates p),
    slot (the ceiling of its height, its last coordinate) and sign, by
    one rule at every n.  The line crosses where the weights (_weights)
    agree in sign, at their weighted mean height, with the facing times
    their sign: that of det(w_1 - y, ..., w_n - y) for y below.  Two
    simplices list a shared facet's corners alike, sorted, and so decide
    it alike."""
    n = len(corners)
    # a line crosses only within the projection's box
    low = np.clip(_ceil(corners[: n - 1].min(axis=1), unit), 0, k + 1)
    high = np.clip(_ceil(corners[: n - 1].max(axis=1), unit) - 1, -1, k)
    radix = (k + 1) ** np.arange(n - 2, -1, -1)
    out = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))]
    for owner, p in _box_pairs(low.astype(np.int64), high.astype(np.int64)):
        w = np.take(corners, owner, axis=2)  # (n, n, pairs)
        weight, sign = _weights(w[: n - 1] - p.astype(w.dtype)[:, None] * unit)
        hit = np.flatnonzero(functools.reduce(np.logical_and, sign[1:] == sign[0], sign[0] != 0))
        weight = np.take(weight, hit, axis=1)
        total = functools.reduce(np.add, weight)
        total[total == 0] = 1
        height = functools.reduce(np.add, weight * np.take(w[n - 1], hit, axis=1))
        turn = np.take(facing, np.take(owner, hit)) * np.take(sign[0], hit)
        out.append((radix @ np.take(p, hit, axis=1), _ceil(height, total * unit), turn))
    return [np.concatenate(part) for part in zip(*out)]


def winding(blocks: list, k: int, unit=1) -> np.ndarray:
    """The winding number of the blocks' simplices, in lattice units times
    unit, around each point of the cube, by mixed radix.  A scan, not a
    sum of angles: off the image it is the signed count of crossings
    (_crossings) on the ray up the point's lattice line.  A crossing adds
    its sign to its line's slot, the ceiling of its height clipped to [0,
    k + 1], the count of points below it, and a point sums its line's
    slots past it."""
    crossings = [_crossings(*block, k, unit) for block in blocks]
    line, slot, sign = (np.concatenate(part) for part in zip(*crossings))
    slot = line * (k + 2) + np.clip(slot, 0, k + 1).astype(np.int64)
    tally = np.bincount(slot, sign, minlength=(k + 1) ** (len(blocks[0][0]) - 1) * (k + 2))
    tally = tally.reshape(-1, k + 2)[:, :0:-1]  # the slots past each point, last first
    return np.rint(np.cumsum(tally, axis=1)[:, ::-1]).astype(np.int64).reshape(-1)


def on_image(blocks: list, k: int, unit=1) -> np.ndarray:
    """Which points of the cube of (k+1)**n lattice points, by mixed
    radix, lie within the tolerance (LOCATE_TOL grid steps for floats, 0
    for ints) of an image simplex of the blocks (corners, facing), in
    lattice units times unit, each tried on the points of its box widened
    by the tolerance, by one rule at every n: the least distance to a
    face's foot a_0 + sum l_i (a_i - a_0), over the faces from a corner
    (its own foot) to the whole simplex, each l_i det by Cramer's rule on
    the Gram matrix of the a_i - a_0 (_det), where the foot counts: det >
    0, every l_i >= 0 and sum l_i <= 1.  A counted foot is a point of the
    simplex; a flat face is measured by its smaller ones."""
    n = len(blocks[0][0])
    tol = 0 if blocks[0][0].dtype == object else LOCATE_TOL * unit
    on = np.zeros((k + 1) ** n, dtype=bool)
    dot, radix = functools.partial(np.einsum, "i...,i...->..."), (k + 1) ** np.arange(n - 1, -1, -1)
    faces = [c for size in range(2, n + 1) for c in itertools.combinations(range(n), size)]
    for corners, _ in blocks:
        low = np.clip(_ceil(corners.min(axis=1) - tol, unit), 0, k + 1)
        high = np.clip(-_ceil(-(corners.max(axis=1) + tol), unit), -1, k)
        for owner, point in _box_pairs(low.astype(np.int64), high.astype(np.int64)):
            offs = point.astype(corners.dtype)[:, None] * unit - np.take(corners, owner, axis=2)
            gap = functools.reduce(np.minimum, dot(offs, offs))  # a corner is its own foot
            for first, *rest in faces:
                off, sides = offs[:, first], [offs[:, first] - offs[:, j] for j in rest]
                gram = [[dot(u, v) for v in sides] for u in sides]
                det = _det(gram)
                along = [dot(off, u) for u in sides]  # a row for a column: gram is symmetric
                cramer = [_det([*gram[:i], along, *gram[i + 1 :]]) for i in range(len(sides))]
                inside = functools.reduce(np.logical_and, [c >= 0 for c in cramer], det > 0)
                inside &= functools.reduce(np.add, cramer) <= det
                for c, u in zip(cramer, sides):  # off becomes the point less the foot
                    off = off - _quotient(c, np.where(inside, det, 1)) * u
                np.minimum(gap, dot(off, off), out=gap, where=inside)
            on[radix @ np.compress(gap <= tol**2, point, axis=1)] = True
    return on
