"""Deterministic SVG renders of constraint configurations.

Two pictures: wall configurations of a (1, 2) vector configuration in
the Poincare disk (geodesic walls as arcs orthogonal to the boundary
circle, vertex and period-point constraints as dots, ideal constraints
as rim marks), and the lattice-with-lines picture of a (1, 1) form
(integer dots, a pencil of lines through the origin colored by sign,
the shaded positive cone, and the dashed limiting axis).

Identical input produces byte-identical output: fixed element order,
fixed float formatting, and a palette read from PERIODMAP_COLORS when a
scene is built (``render_config``, ``render_lattice_lines``).  The scene
keeps every colour it draws with, the background too, so writing it
reads no environment.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass
from typing import Sequence

from .bilinear import (
    GramForm,
    Subspace,
    hyperbolic_plane_form,
    orth_complement,
    positive_part,
    signature,
    standard_embedding,
)
from .decomposition import DecompositionData, canonical_limit, product_split
from .errors import DomainError, InputError, ResourceError
from .face_constraints import SurfaceConfig, is_bounded_config
from .grassmannian import (
    ConstraintKind,
    classify_span,
    geodesic_endpoints,
    ideal_point_direction,
    line_to_hpoint,
    to_poincare_disk,
)

SIZE = 480
DISK_RADIUS = 200.0
CENTER = 240.0
LATTICE_STEP = 48.0
LATTICE_REACH = 12.0  # lattice units from the origin to each end of a drawn line
ANTIPODAL_EPS = 1e-9

DEFAULT_PALETTE = {
    "size1": "#2e7d32",
    "size2": "#1565c0",
    "boundary": "#1a1a1a",
    "accent": "#6a1b9a",
    "muted": "#9e9e9e",
    "background": "#ffffff",
}
_HEX_COLOR = re.compile(r"#(?:[0-9a-fA-F]{3}){1,2}")


def palette() -> dict[str, str]:
    """Fixed palette, overridable through PERIODMAP_COLORS.

    The variable holds entries like "size1=#004400,accent=#223344"
    separated by commas or semicolons; unknown keys are ignored.  A known
    key takes only "#" and 3 or 6 hex digits, since the value is written
    into an SVG attribute as it is; anything else is an InputError.
    """
    colors = dict(DEFAULT_PALETTE)
    raw = os.environ.get("PERIODMAP_COLORS", "")
    for chunk in raw.replace(";", ",").split(","):
        if "=" in chunk:
            key, _, val = chunk.partition("=")
            key, val = key.strip(), val.strip()
            if key in colors:
                if not _HEX_COLOR.fullmatch(val):
                    raise InputError(
                        f"PERIODMAP_COLORS: {key} needs #rgb or #rrggbb, got {val!r}"
                    )
                colors[key] = val
    return colors


@dataclass(frozen=True)
class SceneElement:
    kind: str  # arc | segment | dot | ideal_mark | polygon | line | dashed_line | lattice_dot | boundary
    color: str
    data: tuple
    label: str = ""


@dataclass(frozen=True)
class Scene:
    elements: tuple[SceneElement, ...]
    metadata: str
    background: str = DEFAULT_PALETTE["background"]

    def arcs(self) -> list[SceneElement]:
        return [e for e in self.elements if e.kind == "arc"]

    def count(self, kind: str) -> int:
        return sum(1 for e in self.elements if e.kind == kind)

    def to_svg(self) -> str:
        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{SIZE}" height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
            f"<metadata>{self.metadata}</metadata>",
            f'<rect x="0" y="0" width="{SIZE}" height="{SIZE}" '
            f'fill="{self.background}"/>',
        ]
        for el in self.elements:
            out.append(_element_svg(el))
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def write(self, path: str) -> None:
        try:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(self.to_svg())
        except OSError as exc:
            raise ResourceError(f"cannot write {path}: {exc}") from exc


def _scene(elements: list[SceneElement], meta: str, colors: dict, out: str | None) -> Scene:
    """The scene on the palette's background, written to out when given."""
    scene = Scene(tuple(elements), meta, colors["background"])
    if out is not None:
        scene.write(out)
    return scene


def _fmt(x: float) -> str:
    s = f"{x:.3f}"
    return "0.000" if s == "-0.000" else s


def _element_svg(el: SceneElement) -> str:
    kind, d, color = el.kind, el.data, el.color
    if kind in ("boundary", "dot", "ideal_mark", "lattice_dot"):
        head = f'<circle cx="{_fmt(d[0])}" cy="{_fmt(d[1])}" r='
        if kind == "boundary":
            return head + f'"{_fmt(d[2])}" fill="none" stroke="{color}" stroke-width="2"/>'
        if kind == "dot":
            return head + f'"5" fill="{color}"/>'
        if kind == "ideal_mark":
            return head + f'"6" fill="none" stroke="{color}" stroke-width="2.5"/>'
        return head + f'"{_fmt(d[2])}" fill="{color}"/>'
    if kind in ("segment", "line", "dashed_line"):
        head = (
            f'<line x1="{_fmt(d[0])}" y1="{_fmt(d[1])}" x2="{_fmt(d[2])}" '
            f'y2="{_fmt(d[3])}" stroke="{color}" stroke-width='
        )
        if kind == "segment":
            return head + '"2"/>'
        if kind == "line":
            return head + f'"{_fmt(d[4])}"/>'
        return head + '"2.5" stroke-dasharray="8 6"/>'
    if kind == "arc":
        x1, y1, x2, y2, r, large, sweep = d
        return (
            f'<path d="M {_fmt(x1)} {_fmt(y1)} '
            f'A {_fmt(r)} {_fmt(r)} 0 {int(large)} {int(sweep)} '
            f'{_fmt(x2)} {_fmt(y2)}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
    if kind == "polygon":
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(d[::2], d[1::2]))
        return f'<polygon points="{pts}" fill="{color}" fill-opacity="0.18"/>'
    raise DomainError(f"unknown scene element kind {kind!r}")


# ---------------------------------------------------------------------------
# disk configuration render
# ---------------------------------------------------------------------------


def _screen(p: Sequence[float]) -> tuple[float, float]:
    return (CENTER + DISK_RADIUS * p[0], CENTER - DISK_RADIUS * p[1])


def _orthogonal_arc(e1, e2, color, label) -> SceneElement:
    """Arc through two boundary points, orthogonal to the unit circle.

    The orthogonal circle's center c satisfies c . e = 1 for both ideal
    endpoints; near-antipodal endpoints degenerate to a diameter.
    """
    det = e1[0] * e2[1] - e1[1] * e2[0]
    s1, s2 = _screen(e1), _screen(e2)
    if abs(det) < ANTIPODAL_EPS:
        return SceneElement("segment", color, (s1[0], s1[1], s2[0], s2[1]), label)
    cx = (e2[1] - e1[1]) / det
    cy = (e1[0] - e2[0]) / det
    r = math.sqrt(cx * cx + cy * cy - 1.0)
    cs = _screen((cx, cy))
    rs = DISK_RADIUS * r
    th1 = math.atan2(s1[1] - cs[1], s1[0] - cs[0])
    th2 = math.atan2(s2[1] - cs[1], s2[0] - cs[0])
    # the arc turns by less than pi, so the signed turn is never +-pi
    sweep = 1 if math.remainder(th2 - th1, 2 * math.pi) > 0 else 0
    return SceneElement(
        "arc", color, (s1[0], s1[1], s2[0], s2[1], rs, 0, sweep), label
    )


def _subset_label(subset) -> str:
    return "{" + ",".join(str(i) for i in subset) + "}"


def _dot_at(emb, line) -> tuple[float, float]:
    """Screen point of the disk point of a positive line."""
    return _screen(to_poincare_disk(line_to_hpoint(emb.to_minkowski(line))))


def render_config(cfg: SurfaceConfig, out: str | None = None) -> Scene:
    """Poincare-disk picture of the wall configuration.

    Every proper subset of the vector indices contributes the drawing of
    its constraint: size decides the color, the exact signature decides
    the element (wall arc, vertex or period dot, ideal rim mark).
    """
    sig = signature(cfg.form)
    if tuple(sig) != (1, 2, 0):
        raise DomainError(
            f"disk render needs ambient signature (1, 2), got {tuple(sig)}"
        )
    colors = palette()
    emb = standard_embedding(cfg.form)
    indices = range(1, len(cfg.vectors) + 1)
    subsets = [*itertools.combinations(indices, 1), *itertools.combinations(indices, 2)]

    elements = [
        SceneElement(
            "boundary", colors["boundary"], (CENTER, CENTER, DISK_RADIUS)
        )
    ]
    for subset in subsets:
        span = cfg.span_of(subset)
        cs = classify_span(span)
        color = colors[f"size{len(subset)}"]
        label = _subset_label(subset)
        if cs.kind is ConstraintKind.GEODESIC and span.dim == 1:
            e1, e2 = geodesic_endpoints(emb.to_minkowski(span.basis[0]))
            elements.append(_orthogonal_arc(e1, e2, color, label))
        elif cs.kind is ConstraintKind.GEODESIC:
            # the wall of a negative definite plane is a single point
            gen = orth_complement(span).canonical[0]
            elements.append(SceneElement("dot", color, _dot_at(emb, gen), label))
        elif cs.kind is ConstraintKind.IDEAL_POINT:
            disk = ideal_point_direction(emb.to_minkowski(cs.vectors[0]))
            elements.append(SceneElement("ideal_mark", color, _screen(disk), label))
        else:
            # a Point: one or two vectors span at most a plane of the
            # 3-dimensional form, so never the whole of it
            elements.append(SceneElement("dot", color, _dot_at(emb, cs.vectors[0]), label))

    encloses = is_bounded_config(cfg)
    vec_text = ";".join(
        "(" + ",".join(str(int(x)) for x in v) + ")" for v in cfg.vectors
    )
    meta = f"walls={vec_text} encloses={'true' if encloses else 'false'}"
    return _scene(elements, meta, colors, out)


# ---------------------------------------------------------------------------
# lattice picture for (1, 1) forms
# ---------------------------------------------------------------------------


def _null_directions(form: GramForm) -> list[tuple[float, float]]:
    """The two null lines of a signature (1, 1) form."""
    (a, b), (_, c) = form.gram  # exact: a tiny nonzero g00 still has two roots
    g00, g01, g11 = float(a), float(b), float(c)
    if a:
        disc = math.sqrt(g01 * g01 - g00 * g11)
        return [((-g01 + disc) / g00, 1.0), ((-g01 - disc) / g00, 1.0)]
    # g00 = 0: det = -g01^2 < 0 for signature (1, 1), so g01 != 0
    return [(1.0, 0.0), (-g11 / (2 * g01), 1.0)]


def _lattice_screen(v: Sequence[float]) -> tuple[float, float]:
    # coordinate 0 runs up the vertical axis, coordinate 1 to the right
    return (CENTER + LATTICE_STEP * v[1], CENTER - LATTICE_STEP * v[0])


def _unit(v: Sequence[float]) -> tuple[float, float]:
    norm = math.hypot(v[0], v[1])
    return (v[0] / norm, v[1] / norm)


def _through_origin(unit: Sequence[float]) -> tuple[float, float, float, float]:
    """Screen ends of the line through the origin along a unit vector."""
    s1 = _lattice_screen((unit[0] * LATTICE_REACH, unit[1] * LATTICE_REACH))
    s2 = _lattice_screen((-unit[0] * LATTICE_REACH, -unit[1] * LATTICE_REACH))
    return (s1[0], s1[1], s2[0], s2[1])


def _limit_axis(form: GramForm) -> Subspace:
    """Limit of the form's canonical split: the product split's null line
    for the hyperbolic plane, else the split into H1, the canonical
    positive part of the whole space, and H2, its orthogonal complement."""
    if form.gram == hyperbolic_plane_form().gram:
        data = product_split()
    else:
        h1 = positive_part(form.full_subspace())
        data = DecompositionData(
            ambient=form,
            H1=h1,
            H2=orth_complement(h1),
            D=form.zero_subspace(),
            bhat1=1,
            bhat2=1,
        )
    return canonical_limit(data)


def render_lattice_lines(form: GramForm, out: str | None = None) -> Scene:
    """Integer lattice with the pencil of lines through the origin.

    Positive-cone shading, sign-colored primitive directions, bold null
    edges, and the dashed limiting axis of the canonical splitting.
    """
    if form.dim != 2:
        raise DomainError("lattice render takes a rank-2 form")
    sig = signature(form)
    if tuple(sig) != (1, 1, 0):
        raise DomainError(
            f"lattice render needs signature (1, 1); {tuple(sig)} has"
            " an empty or degenerate positive cone"
        )
    colors = palette()
    elements: list[SceneElement] = []

    # shaded positive cone: sectors between null rays, tested at bisectors
    rays = [r for u in map(_unit, _null_directions(form)) for r in (u, (-u[0], -u[1]))]
    rays.sort(key=lambda v: math.atan2(v[0], v[1]))  # angle in screen plane
    angles = [math.atan2(v[0], v[1]) for v in rays]
    for lo, hi in zip(angles, angles[1:] + [angles[0] + 2 * math.pi]):
        mid_phi = 0.5 * (lo + hi)
        mid = (math.sin(mid_phi), math.cos(mid_phi))
        val = (
            float(form.gram[0][0]) * mid[0] * mid[0]
            + 2.0 * float(form.gram[0][1]) * mid[0] * mid[1]
            + float(form.gram[1][1]) * mid[1] * mid[1]
        )
        if val <= 0:
            continue
        steps = max(2, math.ceil((hi - lo) / (math.pi / 6)))
        pts = [_lattice_screen((0.0, 0.0))]
        for j in range(steps + 1):
            phi = lo + (hi - lo) * j / steps
            v = (math.sin(phi) * LATTICE_REACH, math.cos(phi) * LATTICE_REACH)
            pts.append(_lattice_screen(v))
        flat = tuple(c for p in pts for c in p)
        elements.append(SceneElement("polygon", colors["size1"], flat, "cone"))

    # pencil of primitive integer directions, in sorted order, colored by sign
    style = {1: (colors["size1"], 1.6), -1: (colors["muted"], 1.0), 0: (colors["boundary"], 2.2)}
    for p in range(-3, 4):
        for q in range(-3, 4):
            if math.gcd(p, q) == 1 and (p, q) > (-p, -q):
                val = form.evaluate((p, q), (p, q))
                color, width = style[(val > 0) - (val < 0)]
                ends = _through_origin(_unit((p, q)))
                elements.append(SceneElement("line", color, ends + (width,), f"{p},{q}"))

    # irrational null edges of the cone, drawn bold
    for u in rays[:2]:
        ends = _through_origin(u) + (2.2,)
        elements.append(SceneElement("line", colors["boundary"], ends, "null"))

    gen = _limit_axis(form).canonical[0]
    ends = _through_origin(_unit((float(gen[0]), float(gen[1]))))
    elements.append(SceneElement("dashed_line", colors["accent"], ends, "limit"))

    for i in range(-4, 5):
        for j in range(-4, 5):
            r = 4.0 if (i, j) == (0, 0) else 3.0
            color = colors["accent"] if (i, j) == (0, 0) else colors["boundary"]
            sx, sy = _lattice_screen((float(i), float(j)))
            elements.append(SceneElement("lattice_dot", color, (sx, sy, r)))

    gram_text = ";".join(
        ",".join(str(x) for x in row) for row in form.gram
    )
    meta = f"lattice gram={gram_text}"
    return _scene(elements, meta, colors, out)
