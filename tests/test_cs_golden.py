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

import json
import os

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


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        lines = [json.dumps(cs_record(*c), separators=(",", ":")) for c in cases()]
        fh.write("[\n" + ",\n".join(lines) + "\n]\n")
