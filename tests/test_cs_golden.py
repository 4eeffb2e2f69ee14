"""Every CS search result of the benchmark's searches against a recorded table.

``golden/cs_results.json`` holds, for the 20 unimodular images of the
two rank-2 unimodular lattices at the default grid, ``minkowski_form(2)``
at grid 0.2, every form of ``HERMITE_GRAMS`` at grid 0.1 and
``minkowski_form(3)`` at grid 0.15: the value and disk point as
``float.hex``, the certified flag, the minimizers and the three counts
(grid and ascent evaluations, exact evaluations, ascent steps).  A
search that does the same work differently must reproduce each of them
bit for bit.

Regenerate (only when a search is meant to change) with
``PYTHONPATH=src python tests/test_cs_golden.py``.
"""

import hashlib
import json
import math
import os
import random

from periodmap.bilinear import GramForm, hyperbolic_plane_form, minkowski_form
from periodmap.supremum import CsSearchConfig, cs_supremum

from test_systole import CONGRUENCES, HERMITE_GRAMS, _congruent

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cs_results.json")


def cases():
    out = [
        (f"{name} under {u}", _congruent(base, u), CsSearchConfig())
        for name, base in (("diag", minkowski_form(1)), ("hyperbolic", hyperbolic_plane_form()))
        for u in CONGRUENCES
    ]
    out.append(("minkowski_form(2)", minkowski_form(2), CsSearchConfig(grid=0.2)))
    out += [(f"{gram}", GramForm(gram), CsSearchConfig(grid=0.1)) for gram in HERMITE_GRAMS]
    out.append(("minkowski_form(3)", minkowski_form(3), CsSearchConfig(grid=0.15)))
    return out


def cs_record(label, form, search):
    res = cs_supremum(form, search)
    return {
        "case": label,
        "grid": search.grid,
        "value": res.value.hex(),
        "disk_point": [x.hex() for x in res.disk_point],
        "certified": res.certified,
        "minimizers": [list(w) for w in res.minimizers],
        "evaluations": res.evaluations,
        "exact_evaluations": res.exact_evaluations,
        "ascent_steps": res.ascent_steps,
    }


def test_cs_results_match_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    all_cases = cases()
    assert len(all_cases) == len(golden) == 29
    for case, want in zip(all_cases, golden):
        assert cs_record(*case) == want, want["case"]


# sha256 of ``_cs_dump``, recorded when every search rebuilt its grid points
# and their hyperboloid points for each form; a change to any result field
# or count, or to a refusal, changes it
CS_DUMP_SHA256 = "3bc25da73bab18b4017c474df991a8b5abd81137552c4d23a223521c9f19935b"


def _anisotropic_forms(count):
    # seeded binary forms [[a, b], [b, c]] of signature (1, 1) that represent
    # no zero: b^2 - ac > 0 and not a square
    rng = random.Random(54)
    out = []
    while len(out) < count:
        a, b, c = rng.randint(-9, 9), rng.randint(-6, 6), rng.randint(-9, 9)
        disc = b * b - a * c
        if disc > 0 and math.isqrt(disc) ** 2 != disc:
            out.append(GramForm([[a, b], [b, c]]))
    return out


def _cs_dump():
    """Every ``CsResult`` field, floats as hex, and its three counts over
    the two unimodular rank-2 lattices under ``CONGRUENCES`` at grids 0.05
    and 0.1, ``minkowski_form(1..3)`` at grids 0.3, 0.2 and 0.15,
    ``HERMITE_GRAMS`` at grid 0.1 and 40 seeded anisotropic binary forms
    at the default grid.  A refusal is dumped as its type and message."""
    searches = [
        (_congruent(base, u), grid)
        for base in (minkowski_form(1), hyperbolic_plane_form())
        for u in CONGRUENCES
        for grid in (0.05, 0.1)
    ]
    searches += [(minkowski_form(n), grid) for n in (1, 2, 3) for grid in (0.3, 0.2, 0.15)]
    searches += [(GramForm(gram), 0.1) for gram in HERMITE_GRAMS]
    searches += [(form, 0.05) for form in _anisotropic_forms(40)]
    out = []
    for form, grid in searches:
        try:
            res = cs_supremum(form, CsSearchConfig(grid=grid))
        except (ValueError, RuntimeError) as exc:
            out.append((form.gram, grid, type(exc).__name__, str(exc)))
            continue
        out.append(
            (
                form.gram,
                res.value.hex(),
                [x.hex() for x in res.disk_point],
                res.grid.hex(),
                res.refine_tol.hex(),
                res.certified,
                res.minimizers,
                res.evaluations,
                res.exact_evaluations,
                res.ascent_steps,
            )
        )
    return "\n".join(map(repr, out))


def test_cs_search_matches_the_pinned_dump():
    digest = hashlib.sha256(_cs_dump().encode()).hexdigest()
    assert digest == CS_DUMP_SHA256


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        lines = [json.dumps(cs_record(*c), separators=(",", ":")) for c in cases()]
        fh.write("[\n" + ",\n".join(lines) + "\n]\n")
