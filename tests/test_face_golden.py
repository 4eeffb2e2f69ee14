"""Every output of the face machinery against a recorded table.

``golden/face_constraints.json`` holds, for every face of the five
presets, of ``symmetric_config(a)`` at a = 2, 5/2 and 3, and of 40
seeded random chains (20 at n = 3, 20 at n = 4): the canonical rows and
the basis of every piece, radical and positive part and of the
semi-positive sum, the piece signatures, the b+ = 1 summary (kind,
witness vectors, span, ``determined``), ``iplus`` and
``check_dimension_identity``.  The positive parts and witnesses depend
on the basis each piece is diagonalized in, so the bases are pinned as
well as the spans.

Three more groups reach the rarer branches: 30 random chains with
entries in -1..1, where the first span that is not negative definite is
often degenerate and not the first; every face of a configuration in a
(2, 3) form, which has no b+ = 1 summary; and every face of one in a
degenerate form, where only the dimension identity is defined.  A call
that raises is recorded by the name of its error.

Regenerate (only when an output is meant to change) with
``PYTHONPATH=src python tests/test_face_golden.py``.
"""

import json
import os
import random
from fractions import Fraction

from periodmap.bilinear import GramForm
from periodmap.face_constraints import (
    SurfaceConfig,
    bplus1_summary,
    check_dimension_identity,
    constraint_for_face,
    iplus,
    preset,
    random_config,
    symmetric_config,
)
from periodmap.permutahedron import NestedSequence, all_faces

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "face_constraints.json")
PRESETS = ("fig6-i", "fig6-ii", "fig6-iii", "fig6-iv", "degenerate")
SYMMETRIC = (Fraction(2), Fraction(5, 2), Fraction(3))
RANDOM_SEED = 20261018
# diag(1, 1, -1, -1, -1) and diag(1, -1, -1, 0), with three vectors each;
# the first vector of the degenerate one spans the ambient radical
SIGNATURE_23 = SurfaceConfig(
    GramForm([[(i == j) * (1 if i < 2 else -1) for j in range(5)] for i in range(5)]),
    ((0, 0, 1, 0, 0), (1, 0, 0, 1, 0), (0, 1, 1, 0, 2)),
)
DEGENERATE_AMBIENT = SurfaceConfig(
    GramForm([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]),
    ((0, 0, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1)),
)


def _random_chain(rng, n):
    sizes = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    cur: list[int] = []
    chain = []
    for s in sizes:
        rest = [x for x in range(1, n + 2) if x not in cur]
        cur = cur + rng.sample(rest, s - len(cur))
        chain.append(tuple(sorted(cur)))
    return NestedSequence(n, tuple(chain))


def cases():
    """(label, config, chain) for every recorded face, in table order."""
    out = []
    for name in PRESETS:
        cfg = preset(name)
        out += [(name, cfg, ns) for ns in all_faces(2)]
    for a in SYMMETRIC:
        cfg = symmetric_config(a)
        out += [(f"symmetric {a}", cfg, ns) for ns in all_faces(2)]
    rng = random.Random(RANDOM_SEED)
    for n in (3, 4):
        for i in range(20):
            cfg = random_config(rng, n)
            out.append((f"random n{n} #{i}", cfg, _random_chain(rng, n)))
    for i in range(30):
        n = (2, 3, 4)[i % 3]
        cfg = random_config(rng, n, entry_bound=1)
        out.append((f"small n{n} #{i}", cfg, _random_chain(rng, n)))
    out += [("signature (2, 3)", SIGNATURE_23, ns) for ns in all_faces(2)]
    out += [("degenerate ambient", DEGENERATE_AMBIENT, ns) for ns in all_faces(2)]
    return out


def _rows(rows):
    return [[str(x) for x in r] for r in rows]


def _sub(sub):
    return {"canonical": _rows(sub.canonical), "basis": _rows(sub.basis)}


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return {"error": type(exc).__name__}


def _summary(cs):
    if cs is None:
        return None
    return {
        "kind": cs.kind.value,
        "vectors": _rows(cs.vectors),
        "span": _sub(cs.span),
        "determined": cs.determined,
    }


def _face(cfg, ns):
    fc = constraint_for_face(cfg, ns)
    return {
        "pieces": [_sub(p) for p in fc.pieces],
        "piece_signatures": [list(s) for s in fc.piece_signatures],
        "nulls": [_sub(p) for p in fc.nulls],
        "positive_parts": [_sub(p) for p in fc.positive_parts],
        "semi_positive_sum": _sub(fc.semi_positive_sum),
        "summary": _summary(fc.summary),
    }


def face_record(label, cfg, ns):
    return {
        "case": label,
        "vectors": _rows(cfg.vectors),
        "chain": [list(s) for s in ns.chain],
        "face": _outcome(_face, cfg, ns),
        "bplus1_summary": _outcome(lambda: _summary(bplus1_summary(cfg, ns))),
        "iplus": _outcome(iplus, cfg, ns),
        "dimension_identity": _outcome(check_dimension_identity, cfg, ns),
    }


def test_face_outputs_match_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    all_cases = cases()
    assert len(all_cases) == len(golden) == 190
    for (label, cfg, ns), want in zip(all_cases, golden):
        assert face_record(label, cfg, ns) == want, (label, want["chain"])


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        lines = [json.dumps(face_record(*c), separators=(",", ":")) for c in cases()]
        fh.write("[\n" + ",\n".join(lines) + "\n]\n")
