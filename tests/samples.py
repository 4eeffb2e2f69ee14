"""Seeded sample points and random chains shared by test modules.

Like ``oracles.py`` this file imports nothing from the library, so a
fault there cannot leak into the data the tests feed it: a chain comes
back as plain tuples, for the caller to wrap in a NestedSequence.
"""

import random
from fractions import Fraction


def random_chain(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """A random chain of nonempty proper subsets of {1, ..., n+1}, each
    sorted and each strictly inside the next, of random length 1..n."""
    sizes = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    cur: list[int] = []
    chain = []
    for s in sizes:
        rest = [x for x in range(1, n + 2) if x not in cur]
        cur = cur + rng.sample(rest, s - len(cur))
        chain.append(tuple(sorted(cur)))
    return tuple(chain)


def identity_boundary_samples(n: int, count: int, seed: int = 0) -> list[tuple]:
    """Rational points on the simplex boundary fixed by projection
    followed by collapse, for n in {2, 3}.

    These live in the middle of each facet: the pinned coordinate is at
    the bound 1 and all other slacks clear the damping threshold, so the
    projection returns the point itself and the collapse moves nothing.
    Boundary regions cut off by the truncation (near simplex corners and
    all faces of codimension 2 and higher) are genuinely not fixed; see
    the permutahedron tests for the corner behavior.
    """
    free_sum = {2: 6, 3: 10}[n] - 1  # the plane total (n+1)(n+2)/2, less the pinned 1
    rng = random.Random(seed)
    out = []
    for k in range(count):
        facet = k % (n + 1)  # pinned coordinate index, 0-based
        if n == 2:
            # free coordinates in [2.3, 2.7]
            a = Fraction(rng.randint(2300, 2700), 1000)
            free = [a, free_sum - a]
        else:
            # free coordinates near 3, inside [2.4, 3.6]
            a = Fraction(rng.randint(2700, 3300), 1000)
            b = Fraction(rng.randint(2700, 3300), 1000)
            free = [a, b, free_sum - a - b]
        it = iter(free)
        out.append(tuple(Fraction(1) if i == facet else next(it) for i in range(n + 1)))
    return out
