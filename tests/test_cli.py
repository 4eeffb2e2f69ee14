import json
import shlex
from pathlib import Path

import pytest

from periodmap import cli
from periodmap.cli import main


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


def test_simplex_symmetric_vertices(capsys):
    code, out, _ = run(capsys, "simplex", "--preset", "symmetric", "--a", "3", "--json")
    assert code == 0
    data = json.loads(out)
    lines = [tuple(v["line"]) for v in data["vertices"]]
    assert set(lines) == {
        ("5", "11", "11"),
        ("11", "5", "11"),
        ("11", "11", "5"),
    }
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
    form = write_form(tmp_path, [[1, 0], [0, -1]])
    code, out, _ = run(
        capsys,
        "systole", "--config", form, "--period", "1,0", "--scale", "2", "--json",
    )
    assert code == 0
    assert json.loads(out)["value_sq"] == "4"


def test_systole_scale_must_be_integer(capsys, tmp_path):
    form = write_form(tmp_path, [[1, 0], [0, -1]])
    for bad in ("3/2", "1.5", "0", "-2", "x"):
        code, out, err = run(
            capsys,
            "systole", "--config", form, "--period", "5,4", "--scale", bad,
        )
        assert code == 2, bad
        assert out == ""
        assert err.startswith("error:") and "scale" in err, err
    code, out, _ = run(
        capsys, "systole", "--config", form, "--period", "1,0", "--scale", "2",
    )
    assert code == 0
    assert "Fraction" not in out
    assert "(-2, 0)" in out and "(2, 0)" in out


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
    assert abs(data["cs"] - (4.0 / 3.0) ** 0.25) < 1e-4
    # a rank-3 search used to exit 1 on the enumeration box's size guard
    form = write_form(
        tmp_path, [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], "rank3.json"
    )
    code, out, _ = run(
        capsys, "systole", "--config", form, "--sup", "--grid", "0.1", "--json"
    )
    assert code == 0
    assert json.loads(out)["cs"] >= 1.0


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
