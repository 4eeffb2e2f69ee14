import hashlib
import importlib
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from periodmap import cli
from periodmap.cli import main
from periodmap.errors import InputError, ResourceError
from periodmap.face_constraints import SurfaceConfig, constraint_for_face, random_config
from periodmap.permutahedron import NestedSequence, enumerate_faces, face_counts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_form(tmp_path, gram, name="form.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"gram": gram}))
    return str(path)


def test_no_arguments_is_usage_error(capsys):
    code, out, err = run(capsys)
    assert code == 2
    assert "usage" in err.lower() or "usage" in out.lower()


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run(capsys, "classify", "--preset", "fig6-i", "--nope")
    assert code == 2


def test_classify_text_and_json(capsys):
    code, out, _ = run(capsys, "classify", "--preset", "fig6-i", "--subset", "2,3")
    assert code == 0
    assert "Point" in out

    code, out, _ = run(
        capsys, "classify", "--preset", "fig6-i", "--subset", "2,3", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "Point"
    assert data["signature"] == [1, 1, 0]
    # a bare 2-dim span does not pin the point; only a chain sweep does
    assert data["determined"] is False


def test_classify_subset_out_of_range(capsys):
    code, _, err = run(capsys, "classify", "--preset", "fig6-i", "--subset", "0,7")
    assert code == 2
    assert "error" in err


def test_faces_symmetric_table(capsys):
    code, out, _ = run(capsys, "faces", "--preset", "symmetric", "--a", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert "12 faces" in lines[0]
    assert len(lines) == 13
    assert sum("Geodesic" in l for l in lines) == 12


FIG6_I_CHAINS = [
    [[1]], [[2]], [[3]], [[1, 2]], [[1, 3]], [[2, 3]],
    [[1], [1, 2]], [[1], [1, 3]], [[2], [1, 2]],
    [[2], [2, 3]], [[3], [1, 3]], [[3], [2, 3]],
]


def test_faces_sweep_row_order(capsys):
    # shortest chains first, then by subset sizes, then lexicographic
    code, out, _ = run(capsys, "faces", "--preset", "fig6-i", "--json")
    assert code == 0
    assert [row["chain"] for row in json.loads(out)["faces"]] == FIG6_I_CHAINS
    code, out, _ = run(capsys, "faces", "--preset", "fig6-i")
    assert code == 0
    rows = out.splitlines()[1:]
    assert [r.split("  ")[0] for r in rows] == [
        " < ".join("{" + ",".join(map(str, s)) + "}" for s in ch)
        for ch in FIG6_I_CHAINS
    ]
    assert rows[5] == (
        "{2,3}              i+ 1   Point                pieces (1, 1, 0) (0, 1, 0)"
    )


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        first = run(capsys, "limit", "--json")
        second = run(capsys, "limit", "--json")
        bad = [run(capsys, "faces", "--nope") for _ in range(2)]
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert first == second and first[0] == 0
    assert bad[0] == bad[1] and bad[0][0] == 2


def test_faces_json_chain(capsys):
    code, out, _ = run(
        capsys,
        "faces",
        "--preset",
        "fig6-iv",
        "--chain",
        "2;2,3",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["faces"]) == 1
    row = data["faces"][0]
    assert row["kind"] == "Point"
    assert row["iplus"] == 2
    assert row["chain"] == [[2], [2, 3]]


def test_faces_threshold_has_ideal_points(capsys):
    code, out, _ = run(capsys, "faces", "--preset", "symmetric", "--a", "2", "--json")
    assert code == 0
    kinds = [row["kind"] for row in json.loads(out)["faces"]]
    assert kinds.count("IdealPoint") > 0


def test_faces_requires_parameter_for_symmetric(capsys):
    code, _, err = run(capsys, "faces", "--preset", "symmetric")
    assert code == 2
    assert "parameter" in err


def test_faces_zero_parameter_is_domain_error(capsys):
    code, _, _ = run(capsys, "faces", "--preset", "symmetric", "--a", "0")
    assert code == 1


def test_faces_config_file(capsys, tmp_path):
    cfg = {
        "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        "vectors": [[0, 1, 0], [0, 0, 1], [2, 1, 3]],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "faces", "--config", str(path))
    assert code == 0
    assert "12 faces" in out


@pytest.mark.parametrize("flags", [(), ("--json",), ("--chain", "1")])
def test_faces_refuses_a_one_vector_config(capsys, tmp_path, flags):
    # a sweep over one vector has no face; the refusal names the vectors,
    # not the n = 0 of the missing permutahedron
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"gram": [[1, 0], [0, -1]], "vectors": [[0, 1]]}))
    code, out, err = run(capsys, "faces", "--config", str(path), *flags)
    assert code == 2
    assert out == ""
    assert "at least two vectors" in err and "has 1" in err
    assert "n must be" not in err


def test_faces_answers_signature_2_2(capsys, tmp_path):
    # no b+ = 1 summary exists here, so every face is Unconstrained
    cfg = {
        "gram": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
        "vectors": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1]],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "faces", "--config", str(path), "--chain", "1;1,2")
    assert code == 0
    assert "Unconstrained" in out
    code, out, _ = run(capsys, "faces", "--config", str(path), "--json")
    assert code == 0
    rows = json.loads(out)["faces"]
    assert len(rows) == 12
    assert {row["kind"] for row in rows} == {"Unconstrained"}
    assert [row["iplus"] for row in rows][:3] == [1, None, 1]


def test_faces_answers_negative_definite(capsys, tmp_path):
    # b+ = 0: no span has a positive direction and no b+ = 1 summary exists
    cfg = {
        "gram": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        "vectors": [[1, 0, 0], [0, 1, 0], [1, 1, 1]],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "faces", "--config", str(path), "--json")
    assert code == 0
    rows = json.loads(out)["faces"]
    assert len(rows) == 12
    assert {row["kind"] for row in rows} == {"Unconstrained"}
    assert {row["iplus"] for row in rows} == {None}
    assert {row["determined"] for row in rows} == {None}


@pytest.mark.parametrize("k", [4, 5])
def test_faces_sweeps_every_face_of_larger_configs(capsys, tmp_path, k):
    # a sweep without --chain answers every face, shortest chains first,
    # each row as constraint_for_face answers it on a fresh config
    data = random_config(random.Random(k), k - 1).to_json()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "faces", "--config", str(path), "--json")
    assert code == 0
    rows = json.loads(out)["faces"]
    assert len(rows) == sum(face_counts(k - 1))
    for row in rows:
        ns = NestedSequence(k - 1, tuple(map(tuple, row["chain"])))
        fc = constraint_for_face(SurfaceConfig.from_json(data), ns)
        assert row == {
            "chain": [list(s) for s in ns.chain],
            "iplus": fc.iplus,
            "kind": fc.summary.kind.value,
            "piece_signatures": [list(s) for s in fc.piece_signatures],
            "determined": fc.summary.determined,
        }
    sizes = [(len(r["chain"]), [(len(s), s) for s in r["chain"]]) for r in rows]
    assert sizes == sorted(sizes)


def test_faces_sweep_is_capped(capsys, tmp_path):
    # 8 vectors give 545,834 faces: the sweep is refused before any
    # work, and one face of them is still answered with --chain
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(random_config(random.Random(8), 7).to_json()))
    code, out, err = run(capsys, "faces", "--config", str(path))
    assert code == 1 and not out
    assert "face sweep capped at n = 6, got 7" in err
    code, out, _ = run(capsys, "faces", "--config", str(path), "--chain", "1;1,2")
    assert code == 0 and "(1 faces)" in out


def test_faces_sweeps_every_face_of_seven_vectors(capsys, tmp_path):
    # the 47,292 faces of P_6 share each span and piece through the
    # configuration's table; cut afresh for every face they took about 25 s
    path = tmp_path / "seven.json"
    path.write_text(json.dumps(random_config(random.Random(6), 6).to_json()))
    start = time.perf_counter()
    code, out, _ = run(capsys, "faces", "--config", str(path), "--json")
    assert time.perf_counter() - start < 15.0
    assert code == 0
    assert len(json.loads(out)["faces"]) == 47292
    # the rows are written as each face is answered, in the bytes of one
    # json.dumps of the whole table (34,592,666 of them)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4b9549c1553d622225174d8c531a8e1f30da5ac190420ed010b31c4d3233d427"
    )


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_faces_refused_sweep_writes_nothing(capsys, tmp_path, fmt):
    # the ambient is checked before the header, so a refusal leaves stdout empty
    path = tmp_path / "cfg.json"
    cfg = {
        "gram": [[1, 0, 0], [0, 0, 0], [0, 0, -1]],
        "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    }
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "faces", "--config", str(path), *fmt)
    assert (code, out) == (1, "")
    assert err == "error: face constraints need a nondegenerate ambient form\n"


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_faces_sweep_streams(monkeypatch, tmp_path, fmt):
    # every write is made while the sweep runs: the first row leaves
    # before the second face is answered, and each later row as soon as
    # its face is; the text sweep builds no JSON row
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(random_config(random.Random(5), 4).to_json()))
    answered, writes, dicts = [0], [], [0]
    face_json = cli._face_json

    def counted(cfg, ns):
        answered[0] += 1
        return constraint_for_face(cfg, ns)

    def counted_json(fc):
        dicts[0] += 1
        return face_json(fc)

    class Recorder:
        def write(self, text):
            writes.append((answered[0], text))
            return len(text)

    monkeypatch.setattr(cli, "constraint_for_face", counted)
    monkeypatch.setattr(cli, "_face_json", counted_json)
    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["faces", "--config", str(path), *fmt]) == 0
    total = sum(face_counts(4))
    assert answered[0] == total
    seen = [n for n, _ in writes]
    assert seen[0] == 1 and seen == sorted(seen) and len(set(seen)) == total
    assert dicts[0] == (total if fmt else 0)


@pytest.mark.parametrize(
    "argv",
    [["--preset", name] for name in ("fig6-i", "fig6-ii", "fig6-iii", "fig6-iv", "degenerate")]
    + [["--preset", "fig6-i", "--chain", "1;1,2"], ["signature 2, 2"], ["b+ = 0"]],
    ids=lambda argv: " ".join(argv),
)
def test_faces_json_is_one_indented_dump(capsys, tmp_path, argv):
    configs = {
        "signature 2, 2": {
            "gram": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
            "vectors": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1]],
        },
        "b+ = 0": {
            "gram": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
            "vectors": [[1, 0, 0], [0, 1, 0], [1, 1, 1]],
        },
    }
    if argv[0] in configs:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(configs[argv[0]]))
        argv = ["--config", str(path)]
    code, out, _ = run(capsys, "faces", *argv, "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", ["fig6-i", "fig6-ii", "fig6-iii", "fig6-iv", "degenerate"])
def test_faces_json_of_the_presets_match_the_golden_kinds(capsys, name):
    golden = Path(__file__).resolve().parent / "golden" / "face_kinds.json"
    want = json.loads(golden.read_text())[name]
    start = time.perf_counter()
    code, out, _ = run(capsys, "faces", "--preset", name, "--json")
    assert time.perf_counter() - start < 20.0
    assert code == 0
    got = {
        " < ".join("{" + ",".join(map(str, s)) + "}" for s in face["chain"]): face["kind"]
        for face in json.loads(out)["faces"]
    }
    assert got == want


def test_simplex_symmetric_vertices(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "simplex", "--preset", "symmetric", "--a", "3", "--json")
    assert time.perf_counter() - start < 20.0
    assert code == 0
    data = json.loads(out)
    lines = [v["line"] for v in data["vertices"]]
    assert lines == [["5", "11", "11"], ["11", "5", "11"], ["11", "11", "5"]]
    for v in data["vertices"]:
        assert sum(x * x for x in v["disk"]) < 1.0


def test_simplex_needs_bounded_walls(capsys):
    code, _, _ = run(capsys, "simplex", "--preset", "fig6-i")
    assert code == 1


def test_limit_splits(capsys):
    code, out, _ = run(capsys, "limit", "--split", "connected-sum", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == [["1", "0"]]
    assert data["signature"] == [1, 0, 0]

    code, out, _ = run(capsys, "limit", "--split", "product", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == [["1", "0"]]
    assert data["signature"] == [0, 0, 1]


def test_console_script_resolves_to_cli_entry():
    # the periodmap console script names periodmap.cli:entry; the file is
    # read with a line scan, since Python 3.10 has no tomllib
    section, scripts = None, {}
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    for line in pyproject.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            name, target = (part.strip().strip("\"'") for part in line.split("=", 1))
            scripts[name] = target
    assert scripts["periodmap"] == "periodmap.cli:entry"
    module, attribute = scripts["periodmap"].split(":")
    assert callable(getattr(importlib.import_module(module), attribute))


def test_workflow_runs_only_the_tier1_and_benchmark_steps():
    # one gate: a check enters CI only as a test of the Tier-1 suite. The
    # workflow is read with a line scan, since PyYAML is no dependency
    workflow = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
    steps = [
        line.strip()[2:].removeprefix("name: ")
        for line in workflow.read_text().splitlines()
        if line.startswith("      - ")
    ]
    assert steps == [
        "uses: actions/checkout@v4",
        "uses: actions/setup-python@v5",
        "Install",
        "Tier-1 tests",
        "Benchmark self-tests",
        "Benchmark answer checks",
    ]


def test_systole_period_exact(capsys, tmp_path):
    form = write_form(tmp_path, [[1, 0], [0, -1]])
    code, out, _ = run(
        capsys, "systole", "--config", form, "--period", "1,0", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"value", "value_sq", "minimizers", "certified", "needed_radius"}
    assert data["value_sq"] == "1"
    assert data["certified"] is True
    assert [1, 0] in data["minimizers"]


def test_systole_scale_flag(capsys, tmp_path):
    # the systole of s Z^d is s times the systole; the flag is gone, and so
    # is its integer check
    form = write_form(tmp_path, [[1, 0], [0, -1]])
    code, out, err = run(
        capsys, "systole", "--config", form, "--period", "1,0", "--scale", "2"
    )
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --scale 2" in err, err


def test_systole_scale_must_be_integer(capsys, tmp_path):
    # the values the integer check refused are still refused, with exit 2
    # and nothing printed: the flag itself is unknown
    form = write_form(tmp_path, [[1, 0], [0, -1]])
    for bad in ("3/2", "1.5", "0", "-2", "x"):
        code, out, err = run(
            capsys, "systole", "--config", form, "--period", "5,4", "--scale", bad
        )
        assert code == 2, bad
        assert out == ""
        assert f"unrecognized arguments: --scale {bad}" in err, err


def test_period_literals_are_read_by_the_library(capsys, tmp_path):
    form = write_form(tmp_path, [[1, 0], [0, -1]])
    for bad in ("1,x", "1/0,1", "1,"):
        code, out, err = run(capsys, "systole", "--config", form, "--period", bad)
        assert code == 2, bad
        assert out == ""
        assert err.startswith("error: not a rational literal"), err
    code, out, _ = run(capsys, "systole", "--config", form, "--period", " 5, 4 ")
    assert code == 0
    assert "Fraction" not in out and "certified" in out
    code, _, err = run(capsys, "faces", "--preset", "symmetric", "--a", "x")
    assert code == 2
    assert err.startswith("error: not a rational literal"), err


def test_systole_bound_flag_is_refused(capsys, tmp_path):
    # every search covers the whole seed ellipsoid; there is no box to cap
    form = write_form(tmp_path, [[1, 0], [0, -1]])
    code, out, err = run(
        capsys, "systole", "--config", form, "--period", "5,4", "--bound", "2"
    )
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --bound 2" in err, err


def test_systole_sup(capsys, tmp_path):
    form = write_form(tmp_path, [[1, 0], [0, -1]])
    code, out, _ = run(
        capsys,
        "systole", "--config", form, "--sup",
        "--grid", "0.1", "--refine", "1e-5", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {
        "cs", "disk_point", "grid", "refine_tol", "certified", "minimizers",
        "evaluations", "exact_evaluations", "ascent_steps",
    }
    assert abs(data["cs"] - (4.0 / 3.0) ** 0.25) < 1e-4
    assert data["certified"] is True
    assert data["minimizers"] and all(len(w) == 2 for w in data["minimizers"])
    assert data["evaluations"] > data["exact_evaluations"] > 0
    assert data["ascent_steps"] >= 0
    code, out, _ = run(capsys, "systole", "--config", form, "--sup", "--grid", "0.1")
    assert code == 0
    assert out.rstrip().endswith("[local maximum, certified; grid 0.1, refined to 1e-06]"), out
    code, out, _ = run(
        capsys, "systole", "--config", form, "--sup", "--grid", "0.1", "--refine", "1e-20"
    )
    assert code == 0
    assert "[best found; grid 0.1, refined to 1e-20]" in out, out
    # a search of minkowski_form(3) at grid 0.1 used to exit 1 on the
    # enumeration box's size guard; it certifies CS^2 = 4/3
    form = write_form(
        tmp_path, [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], "rank4.json"
    )
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "systole", "--config", form, "--sup", "--grid", "0.1", "--json"
    )
    assert time.perf_counter() - start < 20.0
    assert code == 0
    data = json.loads(out)
    assert data["certified"] is True
    assert abs(data["cs"] ** 2 - 4 / 3) <= 1e-9


def test_systole_sup_rank3_certifies_the_documented_maximum(capsys, tmp_path):
    # the ascent and the exact neighbourhood check prove a local maximum of
    # minkowski_form(2) at CS^2 = (1 + sqrt 2) / 2. At grid 0.2 the whole
    # output, counts and minimizers included, is the example documented in
    # docs/formats.md
    form = write_form(tmp_path, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    start = time.perf_counter()
    code, out, _ = run(capsys, "systole", "--config", form, "--sup", "--grid", "0.05", "--json")
    assert time.perf_counter() - start < 20.0
    assert code == 0
    data = json.loads(out)
    assert data["certified"] is True
    assert abs(data["cs"] ** 2 - (1 + math.sqrt(2)) / 2) <= 1e-9
    doc = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
    example = re.search(r"`systole --sup --json` prints\n\n```json\n(.*?)\n```", doc, re.S)
    start = time.perf_counter()
    code, out, _ = run(capsys, "systole", "--config", form, "--sup", "--grid", "0.2", "--json")
    assert time.perf_counter() - start < 20.0
    assert code == 0
    got = json.dumps(json.loads(out), sort_keys=True)
    assert got == json.dumps(json.loads(example.group(1)), sort_keys=True)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--refine", "0"),
        ("--refine", "-0.5"),
        ("--refine", "nan"),
        ("--refine", "inf"),
        ("--grid", "0"),
        ("--grid", "-0.1"),
        ("--grid", "nan"),
        ("--grid", "inf"),
    ],
)
def test_systole_sup_steps_must_be_positive_and_finite(capsys, tmp_path, flag, value):
    # --refine 0 once never returned, --grid 0 raised ZeroDivisionError,
    # nan and inf grids a bare ValueError, --refine nan printed NaN into
    # the JSON and a negative grid searched only the centre
    form = write_form(tmp_path, [[1, 0], [0, -1]])
    code, out, err = run(capsys, "systole", "--config", form, "--sup", flag, value, "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "must be positive and finite" in err, err
    assert err.startswith(f"error: {flag} "), err


@pytest.mark.parametrize(
    "gram, grid", [([[1, 0, 0], [0, -1, 0], [0, 0, -1]], "0.001"), ([[1, 0], [0, -1]], "1e-300")]
)
def test_systole_sup_refuses_a_huge_grid(capsys, tmp_path, gram, grid):
    # a rank-3 search at grid 0.001 once walked 3.2 million grid points
    form = write_form(tmp_path, gram)
    start = time.perf_counter()
    code, out, err = run(capsys, "systole", "--config", form, "--sup", "--grid", grid, "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: --grid {float(grid)} walks "), err
    assert "above the limit 100000" in err


def test_systole_sup_judges_the_signature_before_the_grid(capsys, tmp_path):
    # a (2, 1) form at --grid 0.001 was once refused for its grid size
    form = write_form(tmp_path, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    code, out, err = run(capsys, "systole", "--config", form, "--sup", "--grid", "0.001")
    assert code == 1
    assert out == ""
    assert err == "error: cs_supremum needs signature (1, 2), got (2, 1, 0)\n", err


def test_systole_sup_tiny_refine_returns(capsys, tmp_path):
    form = write_form(tmp_path, [[1, 0], [0, -1]])
    code, out, _ = run(capsys, "systole", "--config", form, "--sup", "--json")
    assert code == 0
    want = json.loads(out)["cs"]
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "systole", "--config", form, "--sup", "--refine", "1e-20", "--json"
    )
    assert time.perf_counter() - start < 5.0
    assert code == 0
    data = json.loads(out)
    assert abs(data["cs"] - want) < 1e-6
    assert data["refine_tol"] == 1e-20


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--sup"], "--sup"),
        (["--sup", "--json"], "--sup"),
        (["--grid", "0.1"], "--grid"),
        (["--refine", "1e-5"], "--refine"),
        (["--refine", "-1"], "--refine"),
        (["--grid", "0", "--refine", "nan"], "--grid, --refine"),
        (["--sup", "--grid", "0.2"], "--sup, --grid"),
    ],
)
def test_systole_period_refuses_the_search_flags(capsys, tmp_path, flags, named):
    # --sup once printed the search and ignored the period, and --grid
    # and --refine were ignored with --period, invalid values included
    form = write_form(tmp_path, [[1, 0], [0, -1]])
    code, out, err = run(capsys, "systole", "--config", form, "--period", "5,4", *flags)
    assert code == 2
    assert out == ""
    assert err == f"error: --period cannot be combined with {named}\n", err


# every one of these exited 0 once, ignoring the flags the error names
IGNORED_FLAGS = [
    (["permutahedron", "counts", "--n", "3", "--out", "{dir}/y"], "counts", "--out"),
    (["permutahedron", "counts", "--n", "3", "--format", "off"], "counts", "--format"),
    (
        ["permutahedron", "counts", "--n", "2", "--format", "json", "-o", "{dir}/y"],
        "counts",
        "--format, --out",
    ),
    (["permutahedron", "export", "--n", "2", "--json"], "export", "--json"),
    (
        ["permutahedron", "export", "--n", "2", "--json", "-o", "{dir}/y"],
        "export",
        "--json",
    ),
    (["faces", "--preset", "fig6-i", "--a", "3"], "--preset fig6-i", "--a"),
    (
        ["classify", "--preset", "degenerate", "--a", "3", "--subset", "1"],
        "--preset degenerate",
        "--a",
    ),
    (["render", "--preset", "fig6-iv", "--a", "3", "-o", "{dir}/y"], "--preset fig6-iv", "--a"),
    (["faces", "--config", "{cfg}", "--a", "3"], "--config", "--a"),
    (
        ["classify", "--preset", "fig6-ii", "--config", "{cfg}", "--subset", "2,3"],
        "--config",
        "--preset",
    ),
    (
        ["simplex", "--config", "{cfg}", "--preset", "symmetric", "--a", "3"],
        "--config",
        "--preset, --a",
    ),
    (
        ["render", "--lattice", "--config", "{form}", "--preset", "hyperbolic", "-o", "{dir}/y"],
        "--config",
        "--preset",
    ),
    (["render", "--lattice", "--preset", "diag", "--a", "3", "-o", "{dir}/y"], "--lattice", "--a"),
]


@pytest.mark.parametrize(
    "argv, what, named", IGNORED_FLAGS, ids=[" ".join(argv) for argv, _, _ in IGNORED_FLAGS]
)
def test_ignored_flags_are_refused(capsys, tmp_path, argv, what, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
                "vectors": [[0, 1, 0], [0, 0, 1], [2, 1, 3]],
            }
        )
    )
    form = write_form(tmp_path, [[0, 1], [1, 0]])
    argv = [arg.format(dir=tmp_path, cfg=cfg, form=form) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {what} cannot be combined with {named}\n", err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "form.json"]


def test_systole_help_names_the_search_defaults():
    # the help text states CsSearchConfig's defaults, and building the
    # parser and printing it does not load the search
    code = (
        "import contextlib, io, sys\n"
        "from periodmap import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):\n"
        "    cli.build_parser().parse_args(['systole', '--help'])\n"
        "assert 'periodmap.supremum' not in sys.modules\n"
        "print(out.getvalue())\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    text = " ".join(done.stdout.split())
    from periodmap.supremum import CsSearchConfig

    for flag, default in (
        ("--grid GRID", CsSearchConfig.grid),
        ("--refine REFINE", CsSearchConfig.refine_tol),
    ):
        found = re.search(re.escape(flag) + r" [^(]*\(default ([^)]+)\)", text)
        assert found, (flag, text)
        assert float(found.group(1)) == default, (flag, found.group(1))


def test_systole_requires_mode(capsys, tmp_path):
    form = write_form(tmp_path, [[1, 0], [0, -1]])
    code, _, err = run(capsys, "systole", "--config", form)
    assert code == 2
    assert "--period or --sup" in err


def test_systole_bad_form_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "systole", "--config", str(path), "--period", "1,0")
    assert code == 2
    code, _, _ = run(
        capsys, "systole", "--config", str(tmp_path / "missing.json"),
        "--period", "1,0",
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, data",
    [
        (["classify", "--subset", "1"], {"gram": [1, 2], "vectors": [[1, 0]]}),
        (
            ["classify", "--subset", "1"],
            {"gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]], "vectors": 3},
        ),
        (["systole", "--period", "1,0"], {"gram": 5}),
    ],
)
def test_malformed_files_exit_2(capsys, tmp_path, argv, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, argv[0], "--config", str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1, err


def test_form_file_decimals_are_exact(capsys, tmp_path):
    # 0.1 in a form file is exactly 1/10, as the string "1/10" is
    texts = {}
    grams = {"dec": "[[1, 0.1], [0.1, -2]]", "frac": '[[1, "1/10"], ["1/10", -2]]'}
    for name, gram in grams.items():
        path = tmp_path / f"{name}.json"
        path.write_text('{"gram": %s}' % gram)
        code, out, _ = run(
            capsys, "systole", "--config", str(path), "--period", "1,0", "--json"
        )
        assert code == 0
        texts[name] = out
    assert texts["dec"] == texts["frac"]


def test_config_file_decimals_are_exact(capsys, tmp_path):
    # 0.1 in a configuration file is exactly 1/10, as in a form file
    outs = {}
    for name, entry in (("dec", "0.1"), ("frac", '"1/10"')):
        path = tmp_path / f"{name}.json"
        path.write_text(
            '{"gram": [[1, 0, 0], [0, -1, %s], [0, %s, -1]],'
            ' "vectors": [[0, 1, 0], [0, 0, 1], [2, 1, 3]]}' % (entry, entry)
        )
        code, out, err = run(capsys, "faces", "--config", str(path), "--json")
        assert code == 0, err
        outs[name] = out
    assert outs["dec"] == outs["frac"]


def test_permutahedron_counts(capsys):
    code, out, _ = run(capsys, "permutahedron", "counts", "--n", "2", "--json")
    assert code == 0
    assert json.loads(out)["face_counts"] == [6, 6]
    code, out, _ = run(capsys, "permutahedron", "counts", "--n", "3", "--json")
    assert json.loads(out)["face_counts"] == [14, 36, 24]


def test_permutahedron_counts_n7_is_closed_form(capsys):
    # enumerating the 545,834 faces of P_7 took seconds; the count is a sum
    start = time.perf_counter()
    code, out, _ = run(capsys, "permutahedron", "counts", "--n", "7", "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out) == {
        "n": 7,
        "face_counts": [254, 5796, 40824, 126000, 191520, 141120, 40320],
    }


@pytest.mark.parametrize(
    "n, error, exit_code",
    [
        (0, InputError, 2),
        (-2, InputError, 2),
        (8, ResourceError, 1),
        (9, ResourceError, 1),
        (True, InputError, None),
        (2.0, InputError, None),
    ],
)
def test_face_enumeration_refuses_bad_n(capsys, n, error, exit_code):
    # n = 8 takes over a minute and n = 9 has 102,247,562 faces: both are
    # refused before a face is made; n <= 0 exits 2, with no empty counts
    with pytest.raises(error):
        enumerate_faces(n, 1)
    if exit_code is not None:
        code, out, err = run(capsys, "permutahedron", "counts", "--n", str(n))
        assert (code, out) == (exit_code, "")
        assert err.startswith("error:")


def test_permutahedron_export_files(capsys, tmp_path):
    out_json = tmp_path / "p2.json"
    code, _, _ = run(
        capsys,
        "permutahedron", "export", "--n", "2", "--format", "json",
        "-o", str(out_json),
    )
    assert code == 0
    data = json.loads(out_json.read_text())
    assert data["n"] == 2

    code, out, _ = run(capsys, "permutahedron", "export", "--n", "2", "--format", "off")
    assert code == 0
    assert out.startswith("OFF")


def test_render_disk_and_lattice(capsys, tmp_path):
    svg = tmp_path / "cfg.svg"
    code, out, _ = run(capsys, "render", "--preset", "fig6-iv", "-o", str(svg))
    assert code == 0
    assert svg.exists() and "wrote" in out

    lat = tmp_path / "lat.svg"
    code, _, _ = run(capsys, "render", "--lattice", "--preset", "diag", "-o", str(lat))
    assert code == 0
    assert lat.read_text().startswith("<svg ")


def test_render_lattice_from_config(capsys, tmp_path):
    form = write_form(tmp_path, [[0, 1], [1, 0]])
    out_path = tmp_path / "h.svg"
    code, _, _ = run(
        capsys, "render", "--lattice", "--config", form, "-o", str(out_path)
    )
    assert code == 0
    assert out_path.exists()


def test_render_negative_definite_lattice_fails(capsys, tmp_path):
    form = write_form(tmp_path, [[-1, 0], [0, -2]])
    code, _, err = run(
        capsys, "render", "--lattice", "--config", form, "-o", str(tmp_path / "x.svg")
    )
    assert code == 1
    assert "error" in err


def test_render_rerun_identical_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(capsys, "render", "--preset", "degenerate", "-o", str(a))[0] == 0
    assert run(capsys, "render", "--preset", "degenerate", "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_rational_parameter_roundtrip(capsys):
    code, out, _ = run(
        capsys, "faces", "--preset", "symmetric", "--a", "5/2", "--json"
    )
    assert code == 0
    kinds = {row["kind"] for row in json.loads(out)["faces"]}
    assert kinds == {"Geodesic"}


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_commands_parse():
    # every command README shows must still parse, so a removed or renamed
    # flag cannot stay in the docs; nothing is run
    lines = [
        line for line in README.read_text().splitlines() if line.startswith("periodmap ")
    ]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        assert callable(args.func), line


def test_readme_library_sketch_runs(capsys, monkeypatch, tmp_path):
    # the sketch runs as written, in a scratch directory for its SVG, and
    # prints what its comments say
    text = README.read_text()
    block = text.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    comments = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if "print(" in line
    ]
    assert comments == ["ConstraintKind.GEODESIC", "exact Fraction, True"]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    kind, systole = capsys.readouterr().out.splitlines()
    assert kind == comments[0]
    value_sq, certified = systole.split()
    assert str(Fraction(value_sq)) == value_sq and "." not in value_sq
    assert certified == "True"
    assert (tmp_path / "walls.svg").read_text().startswith("<svg")


# every command but the OFF export runs on the exact, numpy-free modules;
# the search, last, is the one that loads periodmap.supremum
EXACT_COMMANDS = [
    ["classify", "--preset", "fig6-i", "--subset", "2,3"],
    ["faces", "--preset", "fig6-i"],
    ["simplex", "--preset", "symmetric", "--a", "3"],
    ["limit", "--split", "product"],
    ["systole", "--config", "{form}", "--period", "1,0"],
    ["permutahedron", "counts", "--n", "3"],
    ["permutahedron", "export", "--n", "3", "--format", "json", "-o", "{dir}/p3.json"],
    ["render", "--preset", "fig6-iv", "-o", "{dir}/walls.svg"],
    ["render", "--lattice", "--preset", "hyperbolic", "-o", "{dir}/lattice.svg"],
    ["systole", "--config", "{form}", "--sup", "--grid", "0.2"],
]


def test_exact_commands_never_load_numpy(tmp_path):
    form = write_form(tmp_path, [[1, 0], [0, -1]])
    commands = [
        [arg.format(form=form, dir=tmp_path) for arg in argv] for argv in EXACT_COMMANDS
    ]
    code = (
        "import json, sys\n"
        "import periodmap\n"
        "assert 'periodmap.supremum' not in sys.modules, 'import periodmap'\n"
        "import periodmap.systole\n"
        "assert 'periodmap.supremum' not in sys.modules, 'import periodmap.systole'\n"
        "import periodmap.cli\n"
        "assert 'periodmap.supremum' not in sys.modules, 'import periodmap.cli'\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        # the exact maps read points through bilinear, the wall simplex goes
        # through to_minkowski, and the embedding, the vertex lines and the
        # complement are read in integers
        "import random\n"
        "from fractions import Fraction\n"
        "from periodmap.bilinear import standard_embedding\n"
        "from periodmap.decomposition import hyperbolic_complement, product_split\n"
        "from periodmap.decomposition import random_decomposition\n"
        "from periodmap.face_constraints import simplex_from_walls, simplex_vertex_lines\n"
        "from periodmap.face_constraints import symmetric_config\n"
        "from periodmap.permutahedron import closest_point_map, collapse_to_simplex, realize\n"
        "assert collapse_to_simplex((3, 1, 2), realize(2)) == (4, 1, 1)\n"
        "assert closest_point_map((4, 1, 1), realize(2)) == (3, Fraction(3, 2), Fraction(3, 2))\n"
        "got = [p.coords for p in simplex_from_walls(symmetric_config(3))]\n"
        "assert got == [\n"
        "    (2.199999999999998, -1.4230249470757692, -1.3472193585307464),\n"
        "    (2.199999999999997, 0.0, -1.9595917942265395),\n"
        "    (1.0, 0.0, 0.0),\n"
        "], got\n"
        "matrix = standard_embedding(symmetric_config(3).form).matrix\n"
        "assert all(type(x) is int for row in matrix for x in row), matrix\n"
        "lines = simplex_vertex_lines(symmetric_config(3))\n"
        "assert lines == [(5, 11, 11), (11, 5, 11), (11, 11, 5)], lines\n"
        "assert hyperbolic_complement(product_split()).pairing_matrix == ((0, 1), (1, 0))\n"
        "for seed in range(20):\n"
        "    split = random_decomposition(random.Random(seed), 8)\n"
        "    pm = hyperbolic_complement(split).pairing_matrix\n"
        "    swap = tuple(tuple(int(j == i ^ 1) for j in range(len(pm))) for i in range(len(pm)))\n"
        "    assert pm == swap, (seed, pm)\n"
        "assert 'numpy' not in sys.modules, 'exact values'\n"
        "assert 'periodmap.supremum' not in sys.modules, 'exact values'\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert periodmap.cli.main(argv) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
        "    assert 'periodmap.degree' not in sys.modules, argv\n"
        "    assert ('periodmap.supremum' in sys.modules) == ('--sup' in argv), argv\n"
        "off = ['permutahedron', 'export', '--n', '3', '--format', 'off', '-o', sys.argv[2]]\n"
        "assert periodmap.cli.main(off) == 0\n"
        "assert 'numpy' in sys.modules\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands), str(tmp_path / "p3.off")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "p3.off").read_text().startswith("OFF\n24 14 36\n")
