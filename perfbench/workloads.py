"""The three workloads: seeded task lists over the periodmap layers.

Every round draws fresh inputs from Random("<workload>:<seed>:<round>"),
so one seed gives the same inputs in every process, and every seed
gives the same number of tasks of each class.  Inputs are made here,
before any timing; the tasks only call the library.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from fractions import Fraction

import checks
from checks import wrong
from harness import Task

from periodmap import bilinear, cli, decomposition, face_constraints, grassmannian
from periodmap import permutahedron, render, systole
from periodmap.bilinear import GramForm, Subspace, hyperbolic_plane_form, minkowski_form
from periodmap.decomposition import DecompositionData
from periodmap.face_constraints import SurfaceConfig, preset, symmetric_config
from periodmap.permutahedron import NestedSequence, all_faces, realize

F = Fraction
PRESETS = ("fig6-i", "fig6-ii", "fig6-iii", "fig6-iv", "degenerate")


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def random_config(rng: random.Random, n: int) -> SurfaceConfig:
    """n + 1 independent integer vectors with entries in [-4, 4] in the
    standard (1, n) form."""
    while True:
        vecs = [tuple(rng.randint(-4, 4) for _ in range(n + 1)) for _ in range(n + 1)]
        if checks.rank(vecs) == n + 1:
            return SurfaceConfig(minkowski_form(n), tuple(vecs))


def random_split(rng: random.Random) -> DecompositionData:
    """Dimension-8 split data with known ground truth, then disguised.

    The pairing is a diagonal block for each piece (n1 + n2 entries)
    plus k hyperbolic planes for D and its dual, with n1 + n2 + 2k = 8;
    a random unimodular change of basis hides the blocks.
    """
    n1, n2, k = rng.choice(((3, 3, 1), (1, 3, 2), (2, 2, 2), (3, 1, 2)))
    d = n1 + n2 + 2 * k
    g0 = [[0] * d for _ in range(d)]
    for i in range(n1 + n2):
        g0[i][i] = rng.choice((1, 1, 2, -1, -1, -2, -3))
    for b in range(k):
        i = n1 + n2 + 2 * b
        g0[i][i + 1] = g0[i + 1][i] = 1
    # u carries new coordinates to old ones; inv is its exact inverse
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    inv = [row[:] for row in u]
    for _ in range(12):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        for row in inv:
            row[j] -= c * row[i]
    gram = [
        [sum(u[r][a] * g0[r][t] * u[t][b] for r in range(d) for t in range(d)) for b in range(d)]
        for a in range(d)
    ]
    q = GramForm(gram)

    def pulled(indices):
        return Subspace(q, [[inv[r][i] for r in range(d)] for i in indices])

    return DecompositionData(
        ambient=q,
        H1=pulled(range(n1)),
        H2=pulled(range(n1, n1 + n2)),
        D=pulled(range(n1 + n2, d, 2)),
        bhat1=n1,
        bhat2=n2,
    )


def random_chain(rng: random.Random, n: int) -> NestedSequence:
    sizes = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    cur: list[int] = []
    chain = []
    for s in sizes:
        cur = cur + rng.sample([x for x in range(1, n + 2) if x not in cur], s - len(cur))
        chain.append(tuple(sorted(cur)))
    return NestedSequence(n, tuple(chain))


def one_per_class(tasks: list[Task]) -> list[Task]:
    first: dict[str, Task] = {}
    for task in tasks:
        first.setdefault(task.cls, task)
    return list(first.values())


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_json(answer) -> dict:
    code, out = answer
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(out)


# ---------------------------------------------------------------------------
# exact: the Fraction kernel under every exact consumer
# ---------------------------------------------------------------------------


class Exact:
    """Face sweeps, wall simplices, subspace algebra, splits, exact
    projections, preset renders and in-process CLI commands."""

    name = "exact"

    def __init__(self, root: str) -> None:
        self.goldens = {}
        for name in PRESETS:
            with open(os.path.join(root, "tests", "golden", f"{name}.svg"), "rb") as fh:
                self.goldens[name] = fh.read()
        with open(os.path.join(root, "tests", "golden", "face_kinds.json")) as fh:
            self.face_kinds = json.load(fh)
        self.chains = {n: all_faces(n) for n in (2, 3, 4)}
        self.real = {n: realize(n) for n in (2, 3)}

    def round(self, rng: random.Random) -> list[Task]:
        tasks: list[Task] = []
        for _ in range(2):
            cfg = random_config(rng, 2)
            tasks += [self.face("face.n2", cfg, ns) for ns in self.chains[2]]
        cfg = symmetric_config(F(rng.randint(3, 24), rng.randint(2, 6)))
        tasks += [self.face("face.sym", cfg, ns) for ns in self.chains[2]]
        for n in (3, 4):
            cfg = random_config(rng, n)
            tasks += [self.face(f"face.n{n}", cfg, random_chain(rng, n)) for _ in range(6)]
        for _ in range(2):
            # the symmetric walls enclose a triangle exactly when a > 2
            tasks.append(self.simplex(symmetric_config(F(rng.randint(21, 60), 10))))
        cfg = random_config(rng, 2)
        for subset in itertools.combinations((1, 2, 3), 1 + rng.randint(0, 1)):
            tasks.append(self.classify(cfg, subset))
        tasks += [self.algebra(rng, rng.randint(3, 8)) for _ in range(8)]
        tasks += [self.split(random_split(rng)) for _ in range(3)]
        tasks += [self.project(rng, 2) for _ in range(8)]
        tasks += [self.project(rng, 3) for _ in range(4)]
        tasks.append(self.render(rng.choice(PRESETS)))
        tasks += self.cli_tasks(rng)
        rng.shuffle(tasks)
        return tasks

    def warmup(self, rng: random.Random) -> list[Task]:
        return one_per_class(self.round(rng))

    def face(self, cls, cfg, ns) -> Task:
        def run(tr):
            fc = tr.call("face_constraints", face_constraints.constraint_for_face, cfg, ns)
            ok = tr.call("face_constraints", face_constraints.check_dimension_identity, cfg, ns)
            return fc, ok

        def check(answer, counters):
            fc, ok = answer
            counters["face_constraints.faces"] += 1
            counters["face_constraints.identity_ok"] += bool(ok)
            return checks.check_face(cfg, ns, fc, ok)

        return Task(cls, f"{cls} {ns}", run, check)

    def simplex(self, cfg) -> Task:
        def run(tr):
            return tr.call("face_constraints", face_constraints.simplex_vertex_lines, cfg)

        def check(lines, counters):
            return checks.check_simplex_lines(cfg, lines)

        return Task("simplex", "simplex symmetric", run, check)

    def classify(self, cfg, subset) -> Task:
        span = cfg.span_of(subset)

        def run(tr):
            return tr.call("grassmannian", grassmannian.classify_span, span)

        def check(cs, counters):
            return checks.check_classify(cfg, subset, cs)

        return Task("classify", f"classify {subset}", run, check)

    def algebra(self, rng, d) -> Task:
        """Random integer form and two random subspaces in dimension d."""
        gram = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                gram[i][j] = gram[j][i] = rng.randint(-3, 3)
        form = GramForm(gram)

        def independent(k):
            while True:
                rows = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
                if checks.rank(rows) == k:
                    return rows

        a_rows = independent(rng.randint(1, d - 1))
        b_rows = independent(rng.randint(1, d - 1))

        def run(tr):
            a = tr.call("bilinear", Subspace, form, a_rows)
            b = tr.call("bilinear", Subspace, form, b_rows)
            return (
                tr.call("bilinear", bilinear.signature, form),
                tr.call("bilinear", bilinear.orth_complement, a),
                tr.call("bilinear", bilinear.subspace_intersect, a, b),
                tr.call("bilinear", bilinear.subspace_sum, a, b),
            )

        def check(answer, counters):
            bits = checks.entry_bits(v for sub in answer[1:] for v in sub.canonical)
            counters["bilinear.max_entry_bits"] = max(counters["bilinear.max_entry_bits"], bits)
            return checks.check_algebra(gram, a_rows, b_rows, answer)

        return Task("algebra", f"algebra d={d}", run, check)

    def split(self, data) -> Task:
        def run(tr):
            return (
                tr.call("decomposition", decomposition.check_betti_identity, data),
                tr.call("decomposition", decomposition.check_bpm_identity, data),
                tr.call("decomposition", decomposition.hyperbolic_complement, data),
            )

        def check(answer, counters):
            counters["decomposition.splits"] += 1
            return checks.check_split(data, answer)

        return Task("split", f"split dim {data.ambient.dim}", run, check)

    def project(self, rng, n) -> Task:
        """Rational point of the enclosing simplex; at n = 3 a point of P."""
        real = self.real[n]
        if n == 2:
            weights = [F(rng.randint(0, 12)) for _ in range(n + 1)]
            weights[rng.randrange(n + 1)] += 1
            spare = real.total - (n + 1)
            x = tuple(1 + spare * w / sum(weights) for w in weights)
        else:
            picks = rng.sample(real.vertices, 3)
            weights = [F(rng.randint(1, 9)) for _ in picks]
            x = tuple(
                sum(w * v[i] for w, v in zip(weights, picks)) / sum(weights)
                for i in range(n + 1)
            )

        def run(tr):
            z = tr.call("permutahedron", permutahedron.closest_point_map, x, real)
            return z, tr.call("permutahedron", permutahedron.collapse_to_simplex, z, real)

        def check(answer, counters):
            counters["permutahedron.projections"] += 1
            return checks.check_projection(x, real.vertices, *answer)

        return Task(f"project.n{n}", f"project n={n} {x}", run, check)

    def render(self, name) -> Task:
        cfg = preset(name)

        def run(tr):
            scene = tr.call("render", render.render_config, cfg)
            return tr.call("render", scene.to_svg)

        def check(svg, counters):
            data = svg.encode("ascii")
            counters["render.svg_bytes"] += len(data)
            if data != self.goldens[name]:
                return wrong(f"{name}.svg differs from the golden file")
            return None

        return Task("render", f"render {name}", run, check)

    def cli_tasks(self, rng) -> list[Task]:
        name = rng.choice(PRESETS)
        ns = rng.choice(self.chains[2])
        chain = ";".join(",".join(map(str, s)) for s in ns.chain)
        a = F(rng.randint(21, 60), 10)
        subset = tuple(sorted(rng.sample((1, 2, 3), rng.randint(1, 2))))
        split = rng.choice(["connected-sum", "product"])
        n = rng.randint(2, 4)
        cfg = preset(name)

        def faces(payload):
            kind = payload["faces"][0]["kind"]
            want = self.face_kinds[name][str(ns)]
            oracle = checks.chain_kind_oracle(cfg.form.gram, cfg.vectors, ns.chain)
            return None if kind == want == oracle else wrong(f"faces {name} {ns}: {kind}")

        def simplex(payload):
            lines = [[F(x) for x in v["line"]] for v in payload["vertices"]]
            return checks.check_simplex_lines(symmetric_config(a), lines)

        def classify(payload):
            want = checks.chain_kind_oracle(cfg.form.gram, cfg.vectors, (subset,))
            return None if payload["kind"] == want else wrong(f"classify {payload['kind']}")

        def limit(payload):
            # both canonical splits limit onto the first axis; the product
            # split's limit is the null line, the connected sum's positive
            sig = [1, 0, 0] if split == "connected-sum" else [0, 0, 1]
            ok = payload["generators"] == [["1", "0"]] and payload["signature"] == sig
            return None if ok else wrong(f"limit {split}: {payload}")

        def counts(payload):
            # faces of codimension c are ordered set partitions into c + 1 blocks
            want = [math.factorial(c + 1) * stirling2(n + 1, c + 1) for c in range(1, n + 1)]
            return None if payload["face_counts"] == want else wrong(f"counts n={n}")

        commands = [
            (["faces", "--preset", name, "--chain", chain, "--json"], faces),
            (["simplex", "--preset", "symmetric", "--a", str(a), "--json"], simplex),
            (["classify", "--preset", name, "--subset", ",".join(map(str, subset)), "--json"], classify),
            (["limit", "--split", split, "--json"], limit),
            (["permutahedron", "counts", "--n", str(n), "--json"], counts),
        ]
        return [cli_task(argv, verify) for argv, verify in commands]


def cli_task(argv, verify) -> Task:
    def run(tr):
        return tr.call("cli", run_cli, argv)

    def check(answer, counters):
        return verify(cli_json(answer))

    return Task(f"cli.{argv[0]}", "cli " + " ".join(argv), run, check)


def stirling2(n: int, k: int) -> int:
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)


# ---------------------------------------------------------------------------
# systole: box enumeration and the CS search
# ---------------------------------------------------------------------------

# criterion-09 congruences; each carries a base lattice to an isomorphic one
UNIMODULAR = (
    ((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 0)), ((1, -1), (0, 1)),
    ((2, 1), (1, 1)), ((1, 1), (1, 2)), ((1, 2), (0, 1)), ((1, 0), (-2, 1)),
    ((2, -1), (-1, 1)), ((1, -2), (-1, 3)),
)
# the stretched family (k-1)/k: accepted points keep the box under ~2M
# points; the box grows like k^4, so points between 21 and 49 would need
# up to 4e7 points (several GB) before the size guard refuses them
STRETCH_ACCEPTED = (2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20)
STRETCH_REFUSED = (50, 75, 100)


def rational_disk(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    while True:
        den = rng.randint(18, 30)
        coords = tuple(F(rng.randint(-den // 2, den // 2), den) for _ in range(n))
        if sum(x * x for x in coords) < F(1, 4):
            return coords


class Systole:
    """Exact and float conformal systoles, the stretched family, CS
    searches and systole CLI commands."""

    name = "systole"

    def __init__(self, root: str) -> None:
        self._reference: dict[str, float] | None = None
        self.bases = {"diag": GramForm([[1, 0], [0, -1]]), "hyperbolic": hyperbolic_plane_form()}
        self.forms = {n: minkowski_form(n) for n in (1, 2, 3)}
        outdir = os.path.join(root, "perfbench", "out")
        os.makedirs(outdir, exist_ok=True)
        self.form_files = {}
        for n in (1, 2):
            path = os.path.join(outdir, f"minkowski{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"gram": [[int(x) for x in row] for row in self.forms[n].gram]}, fh)
            self.form_files[n] = path

    @property
    def reference(self) -> dict[str, float]:
        """Scan-oracle suprema, made on first use so that setup excludes them."""
        if self._reference is None:
            self._reference = checks.cs_reference()
        return self._reference

    def round(self, rng: random.Random) -> list[Task]:
        tasks: list[Task] = []
        for n, count in ((1, 8), (2, 28), (3, 8)):
            tasks += [self.exact(n, rational_disk(rng, n)) for _ in range(count)]
        for n in (1, 2, 3):
            for _ in range(8):
                r = rng.uniform(0.05, 0.5)
                direction = [rng.gauss(0.0, 1.0) for _ in range(n)]
                norm = math.sqrt(sum(x * x for x in direction))
                tasks.append(self.floating([r * x / norm for x in direction]))
        for k in STRETCH_ACCEPTED + STRETCH_REFUSED:
            tasks.append(self.stretched(k, rng.choice((-1, 1))))
        # the images are fixed, so the costly tail of the CS class is the
        # same for every seed; the seed only orders them among the rest
        tasks += [self.cs_image(base, u) for base in self.bases for u in UNIMODULAR]
        tasks.append(self.cs_standard())
        tasks += self.cli_tasks(rng)
        rng.shuffle(tasks)
        return tasks

    def warmup(self, rng: random.Random) -> list[Task]:
        return one_per_class(self.round(rng))

    def _systole_check(self, counters, res) -> None:
        counters["systole.results"] += 1
        counters["systole.certified"] += bool(res.certified)
        counters["systole.radius_max"] = max(counters["systole.radius_max"], res.needed_radius)

    def exact(self, n, disk) -> Task:
        form = self.forms[n]

        def run(tr):
            pp = tr.call("systole", systole.rational_disk_period_point, form, disk)
            return pp, tr.call("systole", systole.conf_systole, pp)

        def check(answer, counters):
            pp, res = answer
            self._systole_check(counters, res)
            r = math.sqrt(float(sum(x * x for x in disk)))
            return checks.check_exact_systole(form.gram, pp.subspace.basis[0], res, r)

        return Task(f"exact.n{n}", f"exact systole n={n} at {disk}", run, check)

    def floating(self, disk) -> Task:
        def run(tr):
            hp = tr.call("grassmannian", grassmannian.disk_to_hpoint, disk)
            pp = tr.call("systole", systole.period_point_from_hpoint, hp)
            return tr.call("systole", systole.conf_systole, pp)

        def check(res, counters):
            self._systole_check(counters, res)
            return checks.check_float_systole(disk, res)

        return Task(f"float.n{len(disk)}", f"float systole n={len(disk)}", run, check)

    def stretched(self, k, sign) -> Task:
        r = F(sign * (k - 1), k)
        form = self.forms[1]

        def run(tr):
            pp = tr.call("systole", systole.rational_disk_period_point, form, [r])
            return tr.call("systole", systole.conf_systole, pp)

        def check(res, counters):
            self._systole_check(counters, res)
            return checks.check_stretched(r, res)

        known = "refused" if k in STRETCH_REFUSED else None
        return Task("stretched", f"stretched systole at {r}", run, check, known)

    def cs_image(self, base, u) -> Task:
        g = self.bases[base].gram
        gram = [
            [sum(F(u[i][a]) * g[i][j] * F(u[j][b]) for i in range(2) for j in range(2)) for b in range(2)]
            for a in range(2)
        ]
        form = GramForm(gram)

        def run(tr):
            return tr.call("systole", systole.cs_supremum, form)

        def check(res, counters):
            counters["systole.cs_evaluations"] += res.evaluations
            return checks.check_cs(res.value, self.reference[base])

        return Task("cs.image", f"CS of {base} under {u}", run, check)

    def cs_standard(self) -> Task:
        form = self.forms[2]
        search = systole.CsSearchConfig(grid=0.2)

        def run(tr):
            return tr.call("systole", systole.cs_supremum, form, search)

        def check(res, counters):
            counters["systole.cs_evaluations"] += res.evaluations
            return checks.check_cs_local(res)

        return Task("cs.standard", "CS of minkowski_form(2) at grid 0.2", run, check)

    def cli_tasks(self, rng) -> list[Task]:
        disk = rational_disk(rng, 2)
        gen = [1 + sum(x * x for x in disk)] + [2 * x for x in disk]

        def period(payload):
            r = math.sqrt(float(sum(x * x for x in disk)))
            want, mins = checks.brute_force_systole(
                self.forms[2].gram, gen, radius=checks.disk_radius_bound(r)
            )
            got = {tuple(m) for m in payload["minimizers"]}
            ok = F(payload["value_sq"]) == want and got == mins and payload["certified"]
            return None if ok else wrong(f"systole --period {gen}: {payload['value_sq']}")

        def sup(payload):
            return checks.check_cs(payload["cs"], self.reference["diag"])

        commands = [
            (["systole", "--config", self.form_files[2], "--period", ",".join(map(str, gen)), "--json"], period),
            (["systole", "--config", self.form_files[1], "--sup", "--json"], sup),
        ]
        return [cli_task(argv, verify) for argv, verify in commands]


# ---------------------------------------------------------------------------
# coverage: float sampling and nearest-neighbour queries
# ---------------------------------------------------------------------------


class Coverage:
    """The seven criterion-06 maps at n = 2 over grid steps 0.1 to 0.02,
    and the collapse at n = 3 over grid steps 0.5, 0.375 and 0.25."""

    name = "coverage"

    def __init__(self, root: str) -> None:
        fb = permutahedron.collapse_batch(realize(2))
        self.maps = {"collapse": fb}
        perturbations = {
            "radial+0.3": permutahedron.radial_perturbation(2, 0.3),
            "radial-0.3": permutahedron.radial_perturbation(2, -0.3),
            "radial+0.45": permutahedron.radial_perturbation(2, 0.45),
            "twist+0.7": permutahedron.twist_perturbation(2, 0.7),
            "twist-0.5": permutahedron.twist_perturbation(2, -0.5),
            "shrink0.9": permutahedron.shrink_map(2, 0.9),
        }
        for name, psi in perturbations.items():
            self.maps[name] = lambda pts, _psi=psi: _psi(fb(pts))
        self.collapse3 = permutahedron.collapse_batch(realize(3))

    def round(self, rng: random.Random) -> list[Task]:
        # five maps at 0.1 and seven at 0.05 put the median task of a
        # two-round run inside the radial maps at 0.05, whose costs agree
        coarse = ("collapse", "radial+0.3", "radial-0.3", "radial+0.45", "twist+0.7")
        tasks = [self.check(2, name, 0.1, rng) for name in coarse]
        tasks += [self.check(2, name, 0.05, rng) for name in self.maps]
        tasks.append(self.check(2, "collapse", 0.025, rng))
        tasks.append(self.check(2, "radial+0.3", 0.02, rng))
        for grid in (0.5, 0.375, 0.25):
            # at 0.25 the proxy misses 3 of 2925 nodes although collapse
            # images come within 0.009 of the witness: a false FAIL
            known = "wrong" if grid == 0.25 else None
            tasks.append(self.check(3, "collapse", grid, rng, known))
        return tasks

    def warmup(self, rng: random.Random) -> list[Task]:
        # the cheapest grids reach every code path, scipy's lazy import included
        return [self.check(2, "collapse", 0.1, rng), self.check(3, "collapse", 0.5, rng)]

    def check(self, n, name, grid, rng, known=None) -> Task:
        f = self.maps[name] if n == 2 else self.collapse3
        seed = rng.randrange(2**31)
        # collapse and the boundary-fixing perturbations are onto; the
        # shrink breaks the face condition and misses the boundary
        onto = not name.startswith("shrink")

        def run(tr):
            return tr.call(
                "permutahedron", permutahedron.check_face_mapping_surjectivity,
                f, n, grid, seed=seed,
            )

        def check(rep, counters):
            counters["permutahedron.coverage_checks"] += 1
            counters["permutahedron.samples"] += rep.samples_used
            counters["permutahedron.grid_nodes"] += rep.grid_points
            counters["permutahedron.covered"] += rep.covered
            if rep.ok != onto:
                return wrong(f"verdict {'PASS' if rep.ok else 'FAIL'} for {name} at grid {grid}")
            if onto and (rep.max_gap > grid or rep.face_violations):
                return wrong(f"{name} at grid {grid}: gap {rep.max_gap}")
            return None

        return Task(f"n{n}.grid{grid}", f"coverage n={n} {name} grid {grid}", run, check, known)


WORKLOADS = {cls.name: cls for cls in (Exact, Systole, Coverage)}
