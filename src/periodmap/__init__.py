"""Exact tools for indefinite intersection forms and their period geometry.

The package keeps two strict layers: everything with algebraic content
(signatures, complements, face constraints, lattice minima) runs in
exact rational arithmetic, while hyperboloid coordinates, disk
projections, and search loops use floating point with documented
tolerances.
"""

from .bilinear import (
    GramForm,
    Signature,
    StandardEmbedding,
    Subspace,
    hyperbolic_plane_form,
    minkowski_form,
    nullspace,
    orth_complement,
    signature,
    standard_embedding,
    subspace_intersect,
    subspace_sum,
)
from .decomposition import (
    DecompositionData,
    connected_sum_split,
    hyperbolic_complement,
    limit_period_subspace,
    product_split,
)
from .face_constraints import (
    SurfaceConfig,
    bplus1_summary,
    check_dimension_identity,
    constraint_for_face,
    iplus,
    is_bounded_config,
    preset,
    product_codim,
    simplex_from_walls,
    simplex_vertex_lines,
    symmetric_config,
)
from .grassmannian import (
    ConstraintKind,
    ConstraintSet,
    HPoint,
    classify_span,
    disk_to_hpoint,
    hyperbolic_distance,
    to_poincare_disk,
)
from .permutahedron import NestedSequence, collapse_to_simplex, realize
from .render import Scene, render_config, render_lattice_lines
from .systole import (
    PeriodPoint,
    conf_systole,
    period_point,
    period_point_from_hpoint,
    rational_disk_period_point,
)

__all__ = [
    "ConstraintKind",
    "ConstraintSet",
    "DecompositionData",
    "GramForm",
    "HPoint",
    "NestedSequence",
    "PeriodPoint",
    "Scene",
    "Signature",
    "StandardEmbedding",
    "Subspace",
    "SurfaceConfig",
    "bplus1_summary",
    "check_dimension_identity",
    "classify_span",
    "collapse_to_simplex",
    "conf_systole",
    "connected_sum_split",
    "constraint_for_face",
    "cs_invariance_check",
    "cs_supremum",
    "disk_to_hpoint",
    "hyperbolic_complement",
    "hyperbolic_distance",
    "hyperbolic_plane_form",
    "iplus",
    "is_bounded_config",
    "limit_period_subspace",
    "minkowski_form",
    "nullspace",
    "orth_complement",
    "period_point",
    "period_point_from_hpoint",
    "preset",
    "product_codim",
    "product_split",
    "rational_disk_period_point",
    "realize",
    "render_config",
    "render_lattice_lines",
    "signature",
    "simplex_from_walls",
    "simplex_vertex_lines",
    "standard_embedding",
    "subspace_intersect",
    "subspace_sum",
    "symmetric_config",
    "to_poincare_disk",
]


def __getattr__(name: str):
    # the CS search is compiled on first use, not by every import
    if name in ("cs_invariance_check", "cs_supremum"):
        from . import supremum

        return getattr(supremum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
