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
from .errors import DomainError, ResourceError
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
ANTIPODAL_EPS = 1e-9

DEFAULT_PALETTE = {
    "size1": "#2e7d32",
    "size2": "#1565c0",
    "size3": "#c62828",
    "boundary": "#1a1a1a",
    "accent": "#6a1b9a",
    "muted": "#9e9e9e",
    "background": "#ffffff",
}


def palette() -> dict[str, str]:
    """Fixed palette, overridable through PERIODMAP_COLORS.

    The variable holds entries like "size1=#004400,accent=#223344"
    separated by commas or semicolons; unknown keys are ignored.
    """
    colors = dict(DEFAULT_PALETTE)
    raw = os.environ.get("PERIODMAP_COLORS", "")
    for chunk in raw.replace(";", ",").split(","):
        if "=" in chunk:
            key, _, val = chunk.partition("=")
            key, val = key.strip(), val.strip()
            if key in colors and val:
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


def _fmt(x: float) -> str:
    s = f"{x:.3f}"
    return "0.000" if s == "-0.000" else s


def _element_svg(el: SceneElement) -> str:
    d = el.data
    if el.kind == "boundary":
        cx, cy, r = d
        return (
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'fill="none" stroke="{el.color}" stroke-width="2"/>'
        )
    if el.kind == "arc":
        x1, y1, x2, y2, r, large, sweep = d
        return (
            f'<path d="M {_fmt(x1)} {_fmt(y1)} '
            f'A {_fmt(r)} {_fmt(r)} 0 {int(large)} {int(sweep)} '
            f'{_fmt(x2)} {_fmt(y2)}" fill="none" stroke="{el.color}" '
            f'stroke-width="2"/>'
        )
    if el.kind == "segment":
        x1, y1, x2, y2 = d
        return (
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{el.color}" stroke-width="2"/>'
        )
    if el.kind == "dot":
        cx, cy = d
        return f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="5" fill="{el.color}"/>'
    if el.kind == "ideal_mark":
        cx, cy = d
        return (
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="6" fill="none" '
            f'stroke="{el.color}" stroke-width="2.5"/>'
        )
    if el.kind == "polygon":
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(d[::2], d[1::2]))
        return f'<polygon points="{pts}" fill="{el.color}" fill-opacity="0.18"/>'
    if el.kind == "line":
        x1, y1, x2, y2, width = d
        return (
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{el.color}" stroke-width="{_fmt(width)}"/>'
        )
    if el.kind == "dashed_line":
        x1, y1, x2, y2 = d
        return (
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{el.color}" stroke-width="2.5" '
            f'stroke-dasharray="8 6"/>'
        )
    if el.kind == "lattice_dot":
        cx, cy, r = d
        return f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{el.color}"/>'
    raise DomainError(f"unknown scene element kind {el.kind!r}")


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
    delta = th2 - th1
    while delta <= -math.pi:
        delta += 2 * math.pi
    while delta > math.pi:
        delta -= 2 * math.pi
    sweep = 1 if delta > 0 else 0
    return SceneElement(
        "arc", color, (s1[0], s1[1], s2[0], s2[1], rs, 0, sweep), label
    )


def _subset_label(subset) -> str:
    return "{" + ",".join(str(i) for i in subset) + "}"


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
    k = len(cfg.vectors)
    subsets = []
    for size in (1, 2):
        subsets.extend(itertools.combinations(range(1, k + 1), size))

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
        if cs.kind is ConstraintKind.GEODESIC:
            if span.dim == 1:
                normal = emb.to_minkowski(span.basis[0])
                e1, e2 = geodesic_endpoints(normal)
                elements.append(_orthogonal_arc(e1, e2, color, label))
            else:
                # the wall of a negative definite plane is a single point
                gen = orth_complement(span).canonical[0]
                disk = to_poincare_disk(line_to_hpoint(emb.to_minkowski(gen)))
                elements.append(SceneElement("dot", color, _screen(disk), label))
        elif cs.kind is ConstraintKind.IDEAL_POINT:
            direction = emb.to_minkowski(cs.vectors[0])
            disk = ideal_point_direction(direction)
            elements.append(SceneElement("ideal_mark", color, _screen(disk), label))
        elif cs.kind is ConstraintKind.POINT:
            disk = to_poincare_disk(line_to_hpoint(emb.to_minkowski(cs.vectors[0])))
            elements.append(SceneElement("dot", color, _screen(disk), label))
        else:
            raise DomainError("proper subsets cannot fill the whole form")

    encloses = is_bounded_config(cfg)
    vec_text = ";".join(
        "(" + ",".join(str(int(x)) for x in v) + ")" for v in cfg.vectors
    )
    meta = f"walls={vec_text} encloses={'true' if encloses else 'false'}"
    scene = Scene(tuple(elements), meta, colors["background"])
    if out is not None:
        scene.write(out)
    return scene


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
    reach = 12.0

    # shaded positive cone: sectors between null rays, tested at bisectors
    nulls = _null_directions(form)
    rays = []
    for d in nulls:
        norm = math.hypot(d[0], d[1])
        rays.append((d[0] / norm, d[1] / norm))
        rays.append((-d[0] / norm, -d[1] / norm))
    rays.sort(key=lambda v: math.atan2(v[0], v[1]))  # angle in screen plane
    angles = [math.atan2(v[0], v[1]) for v in rays]
    for i in range(4):
        lo = angles[i]
        hi = angles[(i + 1) % 4] if i < 3 else angles[0] + 2 * math.pi
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
            v = (math.sin(phi) * reach, math.cos(phi) * reach)
            pts.append(_lattice_screen(v))
        flat = tuple(c for p in pts for c in p)
        elements.append(SceneElement("polygon", colors["size1"], flat, "cone"))

    # pencil of primitive integer directions colored by sign
    pencil = []
    for p in range(-3, 4):
        for q in range(-3, 4):
            if (p, q) == (0, 0) or math.gcd(p, q) != 1:
                continue
            if (p, q) < (-p, -q):
                continue
            pencil.append((p, q))
    pencil.sort()
    for p, q in pencil:
        val = form.evaluate((p, q), (p, q))
        if val > 0:
            color, width = colors["size1"], 1.6
        elif val < 0:
            color, width = colors["muted"], 1.0
        else:
            color, width = colors["boundary"], 2.2
        norm = math.hypot(p, q)
        d = (p / norm, q / norm)
        s1 = _lattice_screen((d[0] * reach, d[1] * reach))
        s2 = _lattice_screen((-d[0] * reach, -d[1] * reach))
        elements.append(
            SceneElement("line", color, (s1[0], s1[1], s2[0], s2[1], width), f"{p},{q}")
        )

    # irrational null edges of the cone, drawn bold
    for d in rays[:2]:
        s1 = _lattice_screen((d[0] * reach, d[1] * reach))
        s2 = _lattice_screen((-d[0] * reach, -d[1] * reach))
        elements.append(
            SceneElement(
                "line", colors["boundary"], (s1[0], s1[1], s2[0], s2[1], 2.2), "null"
            )
        )

    gen = _limit_axis(form).canonical[0]
    gf = (float(gen[0]), float(gen[1]))
    norm = math.hypot(gf[0], gf[1])
    d = (gf[0] / norm, gf[1] / norm)
    s1 = _lattice_screen((d[0] * reach, d[1] * reach))
    s2 = _lattice_screen((-d[0] * reach, -d[1] * reach))
    elements.append(
        SceneElement(
            "dashed_line", colors["accent"], (s1[0], s1[1], s2[0], s2[1]), "limit"
        )
    )

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
    scene = Scene(tuple(elements), meta, colors["background"])
    if out is not None:
        scene.write(out)
    return scene
