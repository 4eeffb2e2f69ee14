"""Coverage reports of the benchmark's checks against a recorded table.

``golden/coverage_reports.json`` holds one record per check: the 17
checks of a benchmark round (the criterion-06 maps composed with the
collapse at n = 2 over grids 0.1 to 0.02, the collapse at n = 3 over
grids 0.5 to 0.25), the shrink at n = 2 and 3 on further grids, and
``_bump_on_facet``, each with a fixed seed.  Every record pins ``ok``,
``grid_points``, ``covered``, ``uncovered_witness`` and
``face_violations``, with floats as ``float.hex``; a failing record
also pins the report's whole ``repr``.  A check that does the same work
differently must reproduce each of them bit for bit.

Regenerate (only when a report is meant to change) with
``PYTHONPATH=src python tests/test_coverage_golden.py``.
"""

import json
import os

from periodmap.coverage import (
    check_face_mapping_surjectivity,
    collapse_batch,
    radial_perturbation,
    shrink_map,
    twist_perturbation,
)
from periodmap.permutahedron import realize

from test_permutahedron import _bump_on_facet

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "coverage_reports.json")

_PERTURBATIONS = {
    "radial+0.3": lambda: radial_perturbation(2, 0.3),
    "radial-0.3": lambda: radial_perturbation(2, -0.3),
    "radial+0.45": lambda: radial_perturbation(2, 0.45),
    "twist+0.7": lambda: twist_perturbation(2, 0.7),
    "twist-0.5": lambda: twist_perturbation(2, -0.5),
    "shrink0.9": lambda: shrink_map(2, 0.9),
}


def _map(n, name):
    """The named map of P_n: the collapse, a perturbation or shrink
    composed with it, or the collapse bumped off one facet."""
    fb = collapse_batch(realize(n))
    if name == "collapse":
        return fb
    if name.startswith("bump"):
        return _bump_on_facet(n, tuple(int(i) for i in name[len("bump") :].split(",")))
    psi = shrink_map(n, 0.9) if name == "shrink0.9" else _PERTURBATIONS[name]()
    return lambda pts: psi(fb(pts))


def cases():
    """(n, map name, grid step) of every pinned check, in table order."""
    coarse = ("collapse", "radial+0.3", "radial-0.3", "radial+0.45", "twist+0.7")
    out = [(2, name, 0.1) for name in coarse]
    out += [(2, name, 0.05) for name in ("collapse", *_PERTURBATIONS)]
    out += [(2, "collapse", 0.025), (2, "radial+0.3", 0.02)]
    out += [(3, "collapse", grid) for grid in (0.5, 0.375, 0.25)]
    out += [(2, "shrink0.9", grid) for grid in (0.1, 0.02)]
    out += [(3, "shrink0.9", grid) for grid in (0.5, 0.375, 0.25)]
    out += [(2, "bump1", 0.1), (2, "bump2,3", 0.05), (3, "bump1,3", 0.5), (3, "bump2", 0.25)]
    return out


def _hex(point):
    return None if point is None else [x.hex() for x in point]


def coverage_record(index, n, name, grid):
    seed = 7919 * (index + 1)
    rep = check_face_mapping_surjectivity(_map(n, name), n, grid, seed=seed)
    record = {
        "case": f"n={n} {name} grid {grid}",
        "seed": seed,
        "ok": rep.ok,
        "grid_points": rep.grid_points,
        "covered": rep.covered,
        "uncovered_witness": _hex(rep.uncovered_witness),
        "face_violations": [
            [[list(s) for s in v.chain.chain], _hex(v.point), _hex(v.image)]
            for v in rep.face_violations
        ],
    }
    if not rep.ok:
        record["repr"] = repr(rep)
    return record


def test_coverage_reports_match_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    all_cases = cases()
    assert len(all_cases) == len(golden) == 26
    for index, (case, want) in enumerate(zip(all_cases, golden)):
        assert coverage_record(index, *case) == want, want["case"]


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        lines = [
            json.dumps(coverage_record(i, *c), separators=(",", ":"))
            for i, c in enumerate(cases())
        ]
        fh.write("[\n" + ",\n".join(lines) + "\n]\n")
