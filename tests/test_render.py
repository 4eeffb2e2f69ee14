import hashlib
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from periodmap.bilinear import GramForm, hyperbolic_plane_form, minkowski_form
from periodmap.cli import main
from periodmap.errors import DomainError, InputError
from periodmap.face_constraints import (
    preset,
    random_config,
    simplex_from_walls,
    symmetric_config,
)
from periodmap.grassmannian import ConstraintKind, classify_span, to_poincare_disk
from periodmap.render import (
    DEFAULT_PALETTE,
    DISK_RADIUS,
    Scene,
    SceneElement,
    _null_directions,
    render_config,
    render_lattice_lines,
)

PRESETS = ["fig6-i", "fig6-ii", "fig6-iii", "fig6-iv", "degenerate"]
GOLDEN = Path(__file__).resolve().parent / "golden"


def to_disk(x: float, y: float) -> tuple[float, float]:
    return ((x - 240.0) / DISK_RADIUS, (240.0 - y) / DISK_RADIUS)


def svg_arc_center(el: SceneElement) -> tuple[float, float, float]:
    # endpoint-to-center conversion for an x-axis-aligned circular arc,
    # the same computation an SVG viewer performs
    x1, y1, x2, y2, r, large, sweep = el.data
    hx, hy = (x1 - x2) / 2.0, (y1 - y2) / 2.0
    h2 = hx * hx + hy * hy
    coef2 = max(0.0, (r * r - h2) / h2)
    coef = math.sqrt(coef2)
    if large == sweep:
        coef = -coef
    cx = coef * hy + (x1 + x2) / 2.0
    cy = -coef * hx + (y1 + y2) / 2.0
    return cx, cy, r


def expected_element_kinds(cfg) -> dict:
    import itertools

    counts = {"wall": 0, "dot": 0, "ideal_mark": 0}
    k = len(cfg.vectors)
    for size in (1, 2):
        for combo in itertools.combinations(range(1, k + 1), size):
            cs = classify_span(cfg.span_of(combo))
            if cs.kind is ConstraintKind.GEODESIC:
                if cfg.span_of(combo).dim == 1:
                    counts["wall"] += 1
                else:
                    counts["dot"] += 1
            elif cs.kind is ConstraintKind.IDEAL_POINT:
                counts["ideal_mark"] += 1
            else:
                counts["dot"] += 1
    return counts


@pytest.mark.parametrize("name", PRESETS)
def test_disk_elements_follow_classifier(name):
    cfg = preset(name)
    scene = render_config(cfg)
    want = expected_element_kinds(cfg)
    walls = scene.count("arc") + scene.count("segment")
    assert walls == want["wall"]
    assert scene.count("dot") == want["dot"]
    assert scene.count("ideal_mark") == want["ideal_mark"]
    assert scene.count("boundary") == 1


@pytest.mark.parametrize("name", PRESETS)
def test_arcs_meet_boundary_orthogonally(name):
    scene = render_config(preset(name))
    for el in scene.elements:
        if el.kind == "arc":
            cx, cy, r = svg_arc_center(el)
            cdx, cdy = to_disk(cx, cy)
            rd = r / DISK_RADIUS
            assert abs(cdx * cdx + cdy * cdy - (1.0 + rd * rd)) < 1e-6
        elif el.kind == "segment":
            # a diameter is orthogonal exactly when it passes the center
            x1, y1, x2, y2 = el.data
            p1, p2 = to_disk(x1, y1), to_disk(x2, y2)
            dx, dy = p2[0] - p1[0], p2[1] - p1[1]
            dist = abs(p1[0] * dy - p1[1] * dx) / math.hypot(dx, dy)
            assert dist < 1e-6


def test_symmetric_triangle_scene():
    cfg = symmetric_config(Fraction(3))
    scene = render_config(cfg)
    walls = [e for e in scene.elements if e.kind in ("arc", "segment")]
    dots = [e for e in scene.elements if e.kind == "dot"]
    assert len(walls) == 3 and len(dots) == 3
    assert "encloses=true" in scene.metadata

    # pair-subset dots are exactly the wall-simplex vertices; the dot of
    # subset {j,k} sits on the vertex line missing index i
    verts = [to_poincare_disk(p) for p in simplex_from_walls(cfg)]
    omitted = {"{2,3}": 0, "{1,3}": 1, "{1,2}": 2}
    for el in dots:
        vx, vy = verts[omitted[el.label]]
        px, py = to_disk(el.data[0], el.data[1])
        assert math.hypot(px - vx, py - vy) < 1e-9


def test_threshold_walls_touch_at_ideal_points():
    scene = render_config(symmetric_config(Fraction(2)))
    marks = [e for e in scene.elements if e.kind == "ideal_mark"]
    assert len(marks) == 3
    for el in marks:
        x, y = to_disk(el.data[0], el.data[1])
        assert abs(math.hypot(x, y) - 1.0) < 1e-9


def test_ideal_marks_of_random_configs_lie_on_the_boundary():
    # the float image of an exact null line is null up to rounding, far
    # inside the tolerance of ideal_point_direction, so no mark is refused
    rng = random.Random(30)
    marks = 0
    for _ in range(300):
        for el in render_config(random_config(rng, 2)).elements:
            if el.kind == "ideal_mark":
                marks += 1
                x, y = to_disk(el.data[0], el.data[1])
                assert abs(math.hypot(x, y) - 1.0) < 1e-9
    assert marks >= 50


def test_degenerate_preset_flagged_unenclosed():
    scene = render_config(preset("degenerate"))
    assert "encloses=false" in scene.metadata


def test_rerender_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_config(preset("fig6-ii"), str(a))
    render_config(preset("fig6-ii"), str(b))
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert "-0.000" not in text
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")


def test_disk_render_rejects_wrong_signature():
    from periodmap.face_constraints import SurfaceConfig

    cfg = SurfaceConfig(minkowski_form(3), ((0, 1, 0, 0), (0, 0, 1, 0)))
    with pytest.raises(DomainError):
        render_config(cfg)


def test_lattice_diag_cone_and_axis():
    form = GramForm([[1, 0], [0, -1]])
    scene = render_lattice_lines(form)
    assert scene.count("polygon") == 2
    # null edges have slope +-1 on screen
    for el in scene.elements:
        if el.kind == "line" and el.label == "null":
            x1, y1, x2, y2, _ = el.data
            assert abs(abs(x2 - x1) - abs(y2 - y1)) < 1e-6
    dashed = [e for e in scene.elements if e.kind == "dashed_line"]
    assert len(dashed) == 1
    x1, y1, x2, y2 = dashed[0].data
    assert abs(x1 - 240.0) < 1e-9 and abs(x2 - 240.0) < 1e-9  # vertical axis

    # positive directions are steep, negative ones shallow
    for el in scene.elements:
        if el.kind != "line" or el.label in ("null", ""):
            continue
        p, q = (int(t) for t in el.label.split(","))
        val = p * p - q * q
        if val > 0:
            assert el.color == "#2e7d32"
        elif val < 0:
            assert el.color == "#9e9e9e"
        else:
            assert el.color == "#1a1a1a"


def test_lattice_hyperbolic_axes_are_null():
    scene = render_lattice_lines(hyperbolic_plane_form())
    null_pencil = [
        e
        for e in scene.elements
        if e.kind == "line" and e.label in ("1,0", "0,1")
    ]
    assert len(null_pencil) == 2
    for el in null_pencil:
        assert el.color == "#1a1a1a"
    dashed = [e for e in scene.elements if e.kind == "dashed_line"]
    x1, y1, x2, y2 = dashed[0].data
    assert abs(x1 - 240.0) < 1e-9 and abs(x2 - 240.0) < 1e-9


def test_lattice_general_form_renders(tmp_path):
    out = tmp_path / "gen.svg"
    scene = render_lattice_lines(GramForm([[2, 1], [1, -1]]), str(out))
    assert out.exists()
    assert scene.count("polygon") == 2
    assert scene.count("dashed_line") == 1


def test_null_directions_are_exactly_null():
    # a tiny nonzero g00 is no zero: the form is (1, 1) and both of its
    # null lines are exact roots, not the non-null (1, 0)
    form = GramForm([["1/100000000000000", 1], [1, 0]])
    dirs = _null_directions(form)
    assert dirs == [(0.0, 1.0), (-2e14, 1.0)]
    for d in dirs:
        x, y = map(Fraction, d)
        (a, b), (_, c) = form.gram
        assert a * x * x + 2 * b * x * y + c * y * y == 0


GOLDEN_SCENES = {
    "lattice-diag": lambda: render_lattice_lines(GramForm([[1, 0], [0, -1]])),
    "lattice-hyperbolic": lambda: render_lattice_lines(hyperbolic_plane_form()),
    "lattice-general": lambda: render_lattice_lines(GramForm([[2, 1], [1, -1]])),
    # 3 ideal marks, 2 arcs and 1 diameter segment
    "symmetric-2": lambda: render_config(symmetric_config(Fraction(2))),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENES))
def test_scene_matches_its_golden_svg(name, tmp_path):
    # the lattice pictures and the ideal rim marks, byte for byte; the
    # five disk presets are pinned by acceptance criterion 10
    out = tmp_path / f"{name}.svg"
    GOLDEN_SCENES[name]().write(str(out))
    assert out.read_bytes() == (GOLDEN / f"{name}.svg").read_bytes()


def test_lattice_rejects_bad_forms():
    with pytest.raises(DomainError):
        render_lattice_lines(GramForm([[-1, 0], [0, -2]]))
    with pytest.raises(DomainError):
        render_lattice_lines(GramForm([[1, 0], [0, 1]]))
    with pytest.raises(DomainError):
        render_lattice_lines(minkowski_form(2))


def test_palette_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("PERIODMAP_COLORS", "size1=#004400; accent=#101010")
    out = tmp_path / "c.svg"
    render_config(symmetric_config(Fraction(3)), str(out))
    text = out.read_text()
    assert "#004400" in text
    assert "#2e7d32" not in text
    monkeypatch.delenv("PERIODMAP_COLORS")
    render_config(symmetric_config(Fraction(3)), str(out))
    assert "#2e7d32" in out.read_text()


INJECTION = 'size1=#000" onload="alert(1)'


def test_palette_refuses_anything_but_a_hex_colour(monkeypatch, tmp_path, capsys):
    # a value is written into an SVG attribute as it is: once any text
    # passed, and this one wrote stroke="#000" onload="alert(1)"
    monkeypatch.setenv("PERIODMAP_COLORS", INJECTION)
    with pytest.raises(InputError, match="size1"):
        render_config(preset("fig6-i"))
    with pytest.raises(InputError, match="size1"):
        render_lattice_lines(hyperbolic_plane_form())
    out = tmp_path / "walls.svg"
    assert main(["render", "--preset", "fig6-i", "-o", str(out)]) == 2
    assert "size1" in capsys.readouterr().err
    assert not out.exists()
    for value in ("", "#00", "#0000", "000000", "#00000g", "#1234567", "red"):
        monkeypatch.setenv("PERIODMAP_COLORS", f"accent={value}")
        with pytest.raises(InputError, match="accent"):
            render_config(preset("fig6-i"))
    # unknown keys are still ignored, whatever their value
    monkeypatch.setenv("PERIODMAP_COLORS", 'nope=" onload="x,size1=#abc; size2=#AABBCC')
    svg = render_config(preset("fig6-i")).to_svg()
    assert "onload" not in svg
    assert 'stroke="#abc"' in svg and 'fill="#AABBCC"' in svg


def test_palette_keys_are_the_drawn_colours(monkeypatch):
    # disk pictures draw subsets of one and two vectors only, so there is
    # no size3 colour, and a size3 entry is an unknown key
    assert sorted(DEFAULT_PALETTE) == [
        "accent", "background", "boundary", "muted", "size1", "size2",
    ]
    monkeypatch.setenv("PERIODMAP_COLORS", "size3=red")
    assert render_config(preset("fig6-i")).to_svg() == (GOLDEN / "fig6-i.svg").read_text()


def test_scene_helpers():
    scene = render_config(preset("fig6-i"))
    assert isinstance(scene, Scene)
    assert len(scene.arcs()) == scene.count("arc")
    svg = scene.to_svg()
    assert svg.count("<metadata>") == 1


def test_writing_a_scene_reads_no_environment(monkeypatch):
    # the colours are read once, when the scene is built
    monkeypatch.setenv("PERIODMAP_COLORS", "background=#000000,size1=#004400")
    scenes = [render_config(preset("fig6-i")), render_lattice_lines(hyperbolic_plane_form())]
    svgs = [scene.to_svg() for scene in scenes]
    assert all('fill="#000000"' in svg for svg in svgs)
    monkeypatch.setenv("PERIODMAP_COLORS", "background=#123456,size1=#654321")
    assert [scene.to_svg() for scene in scenes] == svgs
    monkeypatch.delenv("PERIODMAP_COLORS")
    assert [scene.to_svg() for scene in scenes] == svgs


def _pinned_scenes():
    """The presets, six symmetric configurations, 150 random ones and 200
    forms of signature (1, 1), the last 196 with entries drawn in -5..5."""
    for name in PRESETS:
        yield render_config(preset(name))
    for a in (Fraction(1, 2), 1, 2, Fraction(5, 2), 3, Fraction(7, 3)):
        yield render_config(symmetric_config(Fraction(a)))
    rng = random.Random(3)
    for _ in range(150):
        yield render_config(random_config(rng, 2))
    forms = [
        GramForm([[1, 0], [0, -1]]),
        hyperbolic_plane_form(),
        GramForm([[2, 1], [1, -1]]),
        GramForm([[Fraction(1, 10**14), 1], [1, 0]]),
    ]
    rng = random.Random(4)
    while len(forms) < 200:
        a, b, c = (rng.randint(-5, 5) for _ in range(3))
        if b * b > a * c:
            forms.append(GramForm([[a, b], [b, c]]))
    for form in forms:
        yield render_lattice_lines(form)


# sha256 of the 361 pinned scenes' SVG text, end to end, recorded before
# the element writer shared one head per tag
PINNED_SCENES_SHA256 = "469431a5a24565ab48be7dc1ca70b4d44f6cf54696d6f9ffed63c09cbc23c83c"


def test_scenes_match_the_pinned_dump(monkeypatch):
    monkeypatch.delenv("PERIODMAP_COLORS", raising=False)
    digest = hashlib.sha256()
    count = 0
    for scene in _pinned_scenes():
        digest.update(scene.to_svg().encode("ascii"))
        count += 1
    assert count == 361
    assert digest.hexdigest() == PINNED_SCENES_SHA256


def test_unknown_element_kind_is_refused():
    scene = Scene((SceneElement("star", "#000000", ()),), "")
    with pytest.raises(DomainError, match="star"):
        scene.to_svg()
