"""Command line front end.

Subcommands expose one module operation each: classify a span, sweep
the face constraints of a configuration, compute a wall simplex, show
the limiting axis of a canonical splitting, run the systole machinery,
export permutahedron data, and render SVG figures.

Exit codes: 0 success, 1 domain or precondition failure, 2 malformed
input (bad flags, unreadable files, inconsistent data shapes).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .bilinear import (
    GramForm,
    hyperbolic_plane_form,
    lorentzian_rank,
    standard_embedding,
    subspace_signature,
)
from .decomposition import canonical_limit, connected_sum_split, product_split
from .errors import (
    DomainError,
    InconsistentDataError,
    InputError,
    NumericalDomainError,
    PreconditionError,
    ResourceError,
    check_real,
)
from .face_constraints import (
    SurfaceConfig,
    _num_str,
    constraint_for_face,
    preset,
    simplex_vertex_lines,
)
from .grassmannian import classify_span, line_to_hpoint, to_poincare_disk
from .permutahedron import (
    NestedSequence,
    all_faces,
    export_json,
    face_counts,
)
from .render import _subset_label, render_config, render_lattice_lines
from .systole import conf_systole, period_point

_USER_ERRORS = (
    DomainError,
    NumericalDomainError,
    PreconditionError,
    InconsistentDataError,
    ResourceError,
)


def _load_json_file(path: str) -> dict:
    """The JSON document in path, its decimal numbers read exactly, so
    0.1 is 1/10 in every input file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=Fraction)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_config(args) -> SurfaceConfig:
    if getattr(args, "preset", None):
        return preset(args.preset, a=args.a)
    if getattr(args, "config", None):
        data = _load_json_file(args.config)
        return SurfaceConfig.from_json(data)
    raise InputError("give either --preset or --config")


def _parse_subset(text: str) -> tuple[int, ...]:
    try:
        return tuple(sorted(int(p) for p in text.split(",") if p.strip()))
    except ValueError as exc:
        raise InputError(f"bad subset {text!r}; expected like 1,3") from exc


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_classify(args) -> int:
    cfg = _load_config(args)
    subset = _parse_subset(args.subset)
    span = cfg.span_of(subset)
    cs = classify_span(span)
    sig = subspace_signature(span)
    payload = {
        "subset": list(subset),
        "kind": cs.kind.value,
        "signature": list(sig),
        "determined": cs.determined,
        "witness": [[str(x) for x in v] for v in cs.vectors],
    }
    lines = [
        f"subset {_subset_label(subset)}: kind {cs.kind.value}, "
        f"span signature {tuple(sig)}, determined {cs.determined}"
    ]
    for v in cs.vectors:
        lines.append("  witness (" + ", ".join(str(x) for x in v) + ")")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_faces(args) -> int:
    cfg = _load_config(args)
    k = len(cfg.vectors)
    if args.chain:
        chains = [NestedSequence.parse(cfg.n, args.chain)]
    elif k <= 3:
        # shortest chains first, then by subset sizes, then lexicographic
        chains = sorted(
            all_faces(k - 1),
            key=lambda ns: (len(ns.chain), [(len(s), s) for s in ns.chain]),
        )
    else:
        raise InputError(
            f"{k} vectors give too many faces to sweep; pick one with --chain"
        )
    rows = []
    payload = []
    for ns in chains:
        fc = constraint_for_face(cfg, ns)
        ip = fc.iplus
        kind = fc.summary.kind.value if fc.summary is not None else "Unconstrained"
        sigs = " ".join(str(tuple(s)) for s in fc.piece_signatures)
        rows.append(
            f"{str(ns):<18} i+ {str(ip) if ip is not None else '-':<3} "
            f"{kind:<20} pieces {sigs}"
        )
        payload.append(
            {
                "chain": [list(s) for s in ns.chain],
                "iplus": ip,
                "kind": kind,
                "piece_signatures": [list(s) for s in fc.piece_signatures],
                "determined": None if fc.summary is None else fc.summary.determined,
            }
        )
    header = f"face constraints for {k} walls ({len(chains)} faces)"
    _emit(args, {"faces": payload}, "\n".join([header] + rows))
    return 0


def _cmd_simplex(args) -> int:
    cfg = _load_config(args)
    lines = simplex_vertex_lines(cfg)
    emb = standard_embedding(cfg.form)
    points = [line_to_hpoint(emb.to_minkowski(gen)) for gen in lines]
    payload = {"vertices": []}
    text = ["wall simplex vertices"]
    for gen, hp in zip(lines, points):
        disk = to_poincare_disk(hp)
        payload["vertices"].append(
            {
                "line": [str(x) for x in gen],
                "hyperboloid": list(hp.coords),
                "disk": list(disk),
            }
        )
        text.append(
            "  line ("
            + ", ".join(str(x) for x in gen)
            + ")  disk ("
            + ", ".join(f"{x:.6f}" for x in disk)
            + ")"
        )
    _emit(args, payload, "\n".join(text))
    return 0


def _cmd_limit(args) -> int:
    data = connected_sum_split() if args.split == "connected-sum" else product_split()
    out = canonical_limit(data)
    sig = subspace_signature(out)
    gens = [[str(x) for x in v] for v in out.canonical]
    payload = {"split": args.split, "generators": gens, "signature": list(sig)}
    text = (
        f"{args.split} limit axis: span{{"
        + "; ".join("(" + ", ".join(g) + ")" for g in gens)
        + f"}} with signature {tuple(sig)}"
    )
    _emit(args, payload, text)
    return 0


def _cmd_systole(args) -> int:
    form = GramForm.from_json(_load_json_file(args.config))
    if args.sup:
        # the one command that loads the search
        from .supremum import CsSearchConfig, check_cs_grid, cs_supremum

        # refused here too, so the message names the flag that was typed
        check_real(args.grid, "--grid")
        check_real(args.refine, "--refine")
        check_cs_grid(lorentzian_rank(form, "cs_supremum"), args.grid, "--grid")
        search = CsSearchConfig(grid=args.grid, refine_tol=args.refine)
        res = cs_supremum(form, search=search)
        payload = {
            "cs": res.value,
            "disk_point": list(res.disk_point),
            "grid": res.grid,
            "refine_tol": res.refine_tol,
            "certified": res.certified,
            "minimizers": [list(w) for w in res.minimizers],
            "evaluations": res.evaluations,
            "exact_evaluations": res.exact_evaluations,
            "ascent_steps": res.ascent_steps,
        }
        _emit(args, payload, str(res))
        return 0
    if not args.period:
        raise InputError("systole needs --period or --sup")
    res = conf_systole(period_point(form.subspace([args.period.split(",")])))
    payload = {
        "value": res.value,
        "value_sq": str(res.value_sq),
        "minimizers": [[_num_str(x) for x in m] for m in res.minimizers],
        "certified": res.certified,
        "needed_radius": res.needed_radius,
    }
    _emit(args, payload, str(res))
    return 0


def _cmd_permutahedron(args) -> int:
    if args.action == "counts":
        counts = face_counts(args.n)
        payload = {"n": args.n, "face_counts": counts}
        text = f"P_{args.n} face counts by codimension: " + ", ".join(
            f"codim {c}: {v}" for c, v in enumerate(counts, start=1)
        )
        _emit(args, payload, text)
        return 0
    if args.format == "off":
        from .coverage import export_off  # the one command that loads numpy

        body = export_off(args.n)
    else:
        body = json.dumps(export_json(args.n), indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body if body.endswith("\n") else body + "\n")
        except OSError as exc:
            raise ResourceError(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {args.out}")
    else:
        print(body)
    return 0


def _cmd_render(args) -> int:
    if args.lattice:
        if args.config:
            form = GramForm.from_json(_load_json_file(args.config))
        elif args.preset == "diag":
            form = GramForm([[1, 0], [0, -1]])
        elif args.preset == "hyperbolic":
            form = hyperbolic_plane_form()
        else:
            raise InputError(
                "lattice render needs --config, or --preset diag|hyperbolic"
            )
        render_lattice_lines(form, args.out)
    else:
        cfg = _load_config(args)
        render_config(cfg, args.out)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="named configuration, e.g. fig6-i or symmetric")
    p.add_argument("--a", help="parameter for the symmetric preset, e.g. 3 or 5/2")
    p.add_argument("--config", help="JSON file with gram matrix and vectors")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periodmap",
        description="wall configurations, face constraints and systoles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="constraint kind of one index subset")
    _add_config_flags(p)
    p.add_argument("--subset", required=True, help="1-based indices, e.g. 1,3")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("faces", help="constraint table over the faces")
    _add_config_flags(p)
    p.add_argument("--chain", help='one nested chain, e.g. "1;1,2"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_faces)

    p = sub.add_parser("simplex", help="vertices of the wall simplex")
    _add_config_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_simplex)

    p = sub.add_parser("limit", help="limiting axis of a canonical splitting")
    p.add_argument(
        "--split",
        choices=["connected-sum", "product"],
        default="connected-sum",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("systole", help="conformal systole of a period point")
    p.add_argument("--config", required=True, help="JSON file with a gram matrix")
    p.add_argument("--period", help="rational generator, e.g. 1,1/2")
    p.add_argument("--sup", action="store_true", help="search the CS supremum")
    p.add_argument("--grid", type=float, default=0.05, help="step of the starting grid")
    p.add_argument(
        "--refine",
        type=float,
        default=1e-6,
        help="radius of the certified neighbourhood and Newton's step tolerance",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_systole)

    p = sub.add_parser("permutahedron", help="face data of the permutahedron")
    p.add_argument("action", choices=["counts", "export"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "off"], default="json")
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_permutahedron)

    p = sub.add_parser("render", help="SVG figure of a configuration or lattice")
    _add_config_flags(p)
    p.add_argument("--lattice", action="store_true", help="lattice-and-lines picture")
    p.add_argument("-o", "--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_render)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
