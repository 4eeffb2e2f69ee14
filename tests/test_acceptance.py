"""Acceptance sweep: ten criteria, one verdict line each.

Every criterion prints `CRITERION nn PASS/FAIL title (elapsed)` and
enforces its wall-clock budget.  Tolerances are pinned here and nowhere
else: exact equality for the algebraic criteria, 1e-9 for the collapse
identity, 1e-10 for float systole values, 1e-4 for the CS search
against the scan oracle, 1e-6 for arc orthogonality, byte equality for
golden SVGs.
"""

import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

import periodmap
from oracles import brute_force_systole, chain_kind_oracle, cs_scan_1d
from samples import identity_boundary_samples, random_chain
from periodmap.bilinear import (
    GramForm,
    Signature,
    Subspace,
    hyperbolic_plane_form,
    minkowski_form,
    subspace_signature,
)
from periodmap.coverage import (
    check_face_mapping_surjectivity,
    collapse_batch,
    radial_perturbation,
    shrink_map,
    twist_perturbation,
)
from periodmap.decomposition import (
    DecompositionData,
    check_betti_identity,
    check_bpm_identity,
    connected_sum_split,
    limit_period_subspace,
    product_split,
    random_decomposition,
)
from periodmap.face_constraints import (
    bplus1_summary,
    check_dimension_identity,
    is_bounded_config,
    preset,
    random_config,
    symmetric_config,
)
from periodmap.grassmannian import ConstraintKind, classify_span, disk_to_hpoint
from periodmap.permutahedron import (
    NestedSequence,
    closest_point_map,
    collapse_to_simplex,
    enumerate_faces,
    realize,
)
from periodmap.render import render_config
from periodmap.supremum import cs_invariance_check, cs_supremum
from periodmap.systole import (
    conf_systole,
    period_point_from_hpoint,
    rational_disk_period_point,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

F = Fraction


def criterion(num: int, title: str, budget: float):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"CRITERION {num:2d} FAIL {title} ({elapsed:.2f}s)")
                raise
            elapsed = time.perf_counter() - start
            print(f"CRITERION {num:2d} PASS {title} ({elapsed:.2f}s)")
            assert elapsed < budget, f"budget {budget}s exceeded: {elapsed:.2f}s"

        return wrapper

    return deco


@criterion(1, "symmetric family bounded exactly when a > 2", 1.0)
def test_criterion_01_symmetric_threshold():
    for a in (F(3, 2), F(2), F(5, 2), F(3)):
        assert is_bounded_config(symmetric_config(a)) == (a > 2)


@criterion(2, "splitting identities on 200 fuzzed decompositions", 10.0)
def test_criterion_02_decomposition_identities():
    rng = random.Random(91125)
    for _ in range(200):
        data = random_decomposition(rng, max_dim=8)
        assert data.ambient.dim <= 8
        assert check_betti_identity(data)
        assert check_bpm_identity(data)


@criterion(3, "face dimension identity on 200 integer configs", 30.0)
def test_criterion_03_dimension_identity():
    rng = random.Random(40917)
    checked = 0
    for _ in range(100):
        cfg = random_config(rng, 2)
        for ns in _all_chains_p2():
            assert check_dimension_identity(cfg, ns)
        checked += 1
    for n in (3, 4):
        for _ in range(50):
            cfg = random_config(rng, n)
            for _ in range(8):
                ns = NestedSequence(n, random_chain(rng, n))
                assert check_dimension_identity(cfg, ns)
            checked += 1
    assert checked == 200


@criterion(4, "limiting axes of the two canonical splittings", 1.0)
def test_criterion_04_limit_axes():
    data = connected_sum_split()
    out = limit_period_subspace(
        data, data.ambient.subspace([(1, 0)]), data.ambient.zero_subspace()
    )
    assert out == data.ambient.subspace([(1, 0)])
    assert subspace_signature(out) == Signature(1, 0, 0)

    data = product_split()
    zero = data.ambient.zero_subspace()
    out = limit_period_subspace(data, zero, zero)
    assert out == data.ambient.subspace([(1, 0)])
    assert subspace_signature(out) == Signature(0, 0, 1)

    # the mirrored product split limits onto the other axis
    q = hyperbolic_plane_form()
    mirrored = DecompositionData(
        ambient=q,
        H1=q.zero_subspace(),
        H2=q.zero_subspace(),
        D=q.subspace([(0, 1)]),
        bhat1=0,
        bhat2=0,
    )
    out = limit_period_subspace(mirrored, zero, zero)
    assert out == q.subspace([(0, 1)])


@criterion(5, "face counts and collapse identity on facet samples", 30.0)
def test_criterion_05_permutahedron_combinatorics():
    assert [len(enumerate_faces(2, c)) for c in (1, 2)] == [6, 6]
    assert [len(enumerate_faces(3, c)) for c in (1, 2, 3)] == [14, 36, 24]
    for n, count in ((2, 500), (3, 500)):
        r = realize(n)
        for p in identity_boundary_samples(n, count, seed=5):
            z = closest_point_map(p, r)
            q = collapse_to_simplex(z, r)
            assert max(abs(float(a - b)) for a, b in zip(p, q)) <= 1e-9


@criterion(6, "coverage certificates at grid 0.01", 5.0)
def test_criterion_06_coverage():
    fb = collapse_batch(realize(2))
    maps = [fb]
    for psi in (
        radial_perturbation(2, 0.3),
        radial_perturbation(2, -0.3),
        radial_perturbation(2, 0.45),
        twist_perturbation(2, 0.7),
        twist_perturbation(2, -0.5),
    ):
        maps.append(lambda pts, _psi=psi: _psi(fb(pts)))
    for f in maps:
        rep = check_face_mapping_surjectivity(f, 2, grid_step=0.01)
        assert rep.ok
        assert rep.max_gap <= 0.01
        assert not rep.face_violations

    bad = shrink_map(2, 0.9)
    rep = check_face_mapping_surjectivity(
        lambda pts: bad(fb(pts)), 2, grid_step=0.01
    )
    assert not rep.ok
    assert rep.uncovered_witness is not None


def test_criterion_06_with_scipy_blocked():
    # the library needs only numpy: criterion 06, in a fresh interpreter
    # where importing scipy fails, passes within its budget as it does
    # here, so an import of scipy anywhere on the coverage path fails
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(periodmap.__file__))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import test_acceptance\n"
        "test_acceptance.test_criterion_06_coverage()\n"
    )
    path = os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "CRITERION  6 PASS" in done.stdout, done.stdout


@criterion(7, "preset face kinds match oracle and golden table", 10.0)
def test_criterion_07_preset_face_kinds():
    with open(os.path.join(GOLDEN, "face_kinds.json")) as fh:
        golden = json.load(fh)
    names = ["fig6-i", "fig6-ii", "fig6-iii", "fig6-iv", "degenerate"]
    assert set(golden) == set(names)
    for name in names:
        cfg = preset(name)
        table = golden[name]
        assert len(table) == 12
        for ns in _all_chains_p2():
            want = table[str(ns)]
            assert bplus1_summary(cfg, ns).kind.value == want
            assert chain_kind_oracle(cfg.form.gram, cfg.vectors, ns.chain) == want


@criterion(8, "all six condition-to-type rows", 1.0)
def test_criterion_08_condition_type_table():
    form = minkowski_form(2)
    neg, null, pos, other = (0, 1, 0), (1, 1, 0), (2, 1, 0), (0, 0, 1)
    rows = [
        ([neg], ConstraintKind.GEODESIC),
        ([null], ConstraintKind.IDEAL_POINT),
        ([pos], ConstraintKind.POINT),
        ([neg, other], ConstraintKind.GEODESIC),
        ([null, other], ConstraintKind.IDEAL_POINT),
        ([pos, other], ConstraintKind.POINT),
    ]
    for vectors, want in rows:
        assert classify_span(Subspace(form, vectors)).kind is want
    # the three single-vector rows constrain to wall, boundary, and the
    # spanned line itself
    assert classify_span(Subspace(form, [pos])).determined
    assert classify_span(Subspace(form, [null])).vectors == ((1, 1, 0),)


@criterion(9, "systole against brute force and scan oracle", 120.0)
def test_criterion_09_systole():
    rng = random.Random(77011)

    # 26 rational period points, exact agreement with box-25 brute force
    for n in (1, 2):
        form = minkowski_form(n)
        for _ in range(13):
            disk = _random_rational_disk(rng, n)
            pp = rational_disk_period_point(form, disk)
            res = conf_systole(pp)
            want_sq, want_min = brute_force_systole(
                form.gram, pp.subspace.basis[0], radius=25
            )
            assert res.value_sq == want_sq
            assert frozenset(res.minimizers) == want_min
            assert res.certified

    # 24 float period points, values within 1e-10 of the float brute min
    for n in (1, 2):
        form = minkowski_form(n)
        for _ in range(12):
            disk = [rng.uniform(-0.55, 0.55) for _ in range(n)]
            if sum(x * x for x in disk) >= 0.49:
                disk = [0.6 * x for x in disk]
            hp = disk_to_hpoint(disk)
            res = conf_systole(period_point_from_hpoint(hp))
            assert abs(res.value_sq - _float_brute_min(form, hp, 25)) < 1e-10

    # CS search agrees with the 1-parameter scan oracle on both forms
    res = cs_supremum(minkowski_form(1))

    def diag_norm_sq(a, b, t):
        return 2.0 * (a * math.cosh(t) - b * math.sinh(t)) ** 2 - a * a + b * b

    t_star, oracle = cs_scan_1d(diag_norm_sq)
    assert abs(res.value - oracle) < 1e-4
    assert abs(abs(res.disk_point[0]) - math.tanh(abs(t_star) / 2.0)) < 1e-3

    res = cs_supremum(hyperbolic_plane_form())

    def hyp_norm_sq(a, b, t):
        return a * a * math.exp(-2 * t) + b * b * math.exp(2 * t)

    t_star, oracle = cs_scan_1d(hyp_norm_sq)
    assert abs(t_star) < 1e-6  # symmetric point
    assert abs(res.value - oracle) < 1e-4
    assert abs(res.disk_point[0]) < 1e-3

    # invariance under ten unimodular conjugations
    base = GramForm([[1, 0], [0, -1]])
    mats = [
        ((1, 1), (0, 1)),
        ((1, 0), (1, 1)),
        ((0, 1), (1, 0)),
        ((1, -1), (0, 1)),
        ((2, 1), (1, 1)),
        ((1, 1), (1, 2)),
        ((1, 2), (0, 1)),
        ((1, 0), (-2, 1)),
        ((2, -1), (-1, 1)),
        ((1, -2), (-1, 3)),
    ]
    for u in mats:
        conj = _congruent(base, u)
        assert cs_invariance_check(base, conj, u)


@criterion(10, "byte-identical golden SVGs with orthogonal arcs", 10.0)
def test_criterion_10_render_goldens(tmp_path):
    from test_render import svg_arc_center, to_disk

    for name in ("fig6-i", "fig6-ii", "fig6-iii", "fig6-iv", "degenerate"):
        out = tmp_path / f"{name}.svg"
        scene = render_config(preset(name), str(out))
        with open(os.path.join(GOLDEN, f"{name}.svg"), "rb") as fh:
            assert out.read_bytes() == fh.read()
        for el in scene.elements:
            if el.kind != "arc":
                continue
            cx, cy, r = svg_arc_center(el)
            dx, dy = to_disk(cx, cy)
            rd = r / 200.0
            assert abs(dx * dx + dy * dy - (1.0 + rd * rd)) < 1e-6


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _all_chains_p2():
    subs = [
        c
        for size in (1, 2)
        for c in itertools.combinations((1, 2, 3), size)
    ]
    chains = [(s,) for s in subs]
    for a in subs:
        for b in subs:
            if len(a) < len(b) and set(a) < set(b):
                chains.append((a, b))
    return [NestedSequence(2, ch) for ch in chains]


def _random_rational_disk(rng, n):
    while True:
        den = rng.randint(18, 30)
        coords = tuple(F(rng.randint(-den // 2, den // 2), den) for _ in range(n))
        if sum(x * x for x in coords) < F(1, 4):
            return coords


def _float_brute_min(form, hp, radius):
    g = np.array([[float(x) for x in row] for row in form.gram])
    u = np.array(hp.coords)
    dim = form.dim
    grids = np.meshgrid(*[np.arange(-radius, radius + 1)] * dim, indexing="ij")
    w = np.stack([a.ravel() for a in grids], axis=1).astype(float)
    w = w[np.any(w != 0, axis=1)]
    gu = g @ u
    vals = 2.0 * (w @ gu) ** 2 - np.einsum("ij,jk,ik->i", w, g, w)
    return float(vals.min())


def _congruent(form, u):
    k = form.dim
    conj = [
        [
            sum(
                F(u[i][a]) * form.gram[i][j] * F(u[j][b])
                for i in range(k)
                for j in range(k)
            )
            for b in range(k)
        ]
        for a in range(k)
    ]
    return GramForm(conj)
