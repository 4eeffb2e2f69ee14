"""periodmap benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src``
and the answer checks use ``tests/oracles.py`` and ``tests/golden``.
A run makes its rounds of tasks from the seed, runs them back to back,
checks every answer after each round, prints a report, and prints as
its last line a JSON object with the keys correct, attempted, failed
and metrics.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` they are the per-layer ones, from spans kept in
memory and written to ``perfbench/out/`` at exit.

The amount of work is fixed by ``--seconds``: the number of rounds is
``--seconds`` divided by the workload's nominal round time on a 2-CPU
machine at the parent commit, so a faster program finishes the same
work sooner.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# seconds per round at the parent commit, and the fewest rounds a run makes
NOMINAL_ROUND_S = {"exact": 0.7, "systole": 2.5, "coverage": 10.0}
MIN_ROUNDS = 2
SETUP_REPEATS = 3

def cap_threads() -> None:
    """Cap BLAS and OpenMP pools at the CPUs this process may use."""
    ncpu = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > ncpu:
            os.environ[var] = str(ncpu)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[workload]))


def setup(args):
    """Import, input generation and warm-up; returns the rounds of tasks."""
    cap_threads()
    src = os.path.join(ROOT, "src")
    oracles = os.path.join(ROOT, "tests", "oracles.py")
    if not os.path.isdir(os.path.join(src, "periodmap")) or not os.path.isfile(oracles):
        sys.exit("error: run from the root of a periodmap checkout (src/ and tests/ missing)")
    sys.path.insert(0, src)
    sys.path.append(os.path.dirname(oracles))
    # the render palette is read from the environment
    os.environ.pop("PERIODMAP_COLORS", None)

    from harness import Tracer
    from workloads import WORKLOADS, round_rng

    workload = WORKLOADS[args.workload](ROOT)
    n = rounds_for(args.workload, args.seconds)
    rounds = [workload.round(round_rng(args.workload, args.seed, i)) for i in range(n)]
    # warm the library only: answers are checked, and failures counted,
    # in the measured rounds
    for task in workload.warmup(round_rng(args.workload, args.seed, -1)):
        try:
            task.run(Tracer())
        except Exception:
            pass
    return rounds


def measure_setup(args, own: float) -> float:
    """Median setup time over this process and fresh child processes."""
    times = [own]
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: setup child failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def per_layer(out, tracer, rounds: int) -> dict[str, tuple[float, str]]:
    from harness import ratio, self_times

    traced = max(1, out.traced_rounds)
    spans = [s for s in tracer.spans if not s[2].startswith("task.")]
    by_name = self_times(tracer.spans)
    totals = out.counters

    def per_round(key):
        return totals.get(key, 0.0) / rounds

    def busy(*prefixes):
        return sum(v for k, v in by_name.items() if k.startswith(prefixes)) / traced

    def calls(*prefixes):
        return sum(1 for s in spans if s[2].startswith(prefixes)) / traced

    # the traced minus the untraced wall_s, each the best round
    overhead = min(out.round_walls[True]) - min(out.round_walls[False])
    return {
        "bilinear.calls": (calls("bilinear."), "count"),
        "bilinear.busy_s": (busy("bilinear."), "s"),
        "bilinear.max_entry_bits": (totals["bilinear.max_entry_bits"], "bits"),
        "grassmannian.calls": (calls("grassmannian."), "count"),
        "grassmannian.busy_s": (busy("grassmannian."), "s"),
        "decomposition.splits": (per_round("decomposition.splits"), "count"),
        "decomposition.busy_s": (busy("decomposition."), "s"),
        "permutahedron.projections": (per_round("permutahedron.projections"), "count"),
        "permutahedron.project_busy_s": (
            busy("permutahedron.closest_point_map", "permutahedron.collapse_to_simplex"), "s"),
        "permutahedron.coverage_checks": (per_round("permutahedron.coverage_checks"), "count"),
        "permutahedron.coverage_busy_s": (
            busy("permutahedron.check_face_mapping_surjectivity"), "s"),
        "permutahedron.samples": (per_round("permutahedron.samples"), "count"),
        "permutahedron.grid_nodes": (per_round("permutahedron.grid_nodes"), "count"),
        "permutahedron.samples_per_node": (
            ratio(totals["permutahedron.samples"], totals["permutahedron.grid_nodes"]), "ratio"),
        "permutahedron.covered_ratio": (
            ratio(totals["permutahedron.covered"], totals["permutahedron.grid_nodes"]), "ratio"),
        "face_constraints.faces": (per_round("face_constraints.faces"), "count"),
        "face_constraints.busy_s": (busy("face_constraints."), "s"),
        "face_constraints.identity_ok_ratio": (
            ratio(totals["face_constraints.identity_ok"], totals["face_constraints.faces"]), "ratio"),
        "systole.conf_calls": (calls("systole.conf_systole"), "count"),
        "systole.conf_busy_s": (busy("systole.conf_systole"), "s"),
        "systole.radius_max": (totals["systole.radius_max"], "steps"),
        "systole.certified_ratio": (
            ratio(totals["systole.certified"], totals["systole.results"]), "ratio"),
        "systole.refused": (
            sum(f.kind == "refused" for t, f in out.failures) / rounds, "count"),
        "systole.cs_calls": (calls("systole.cs_supremum"), "count"),
        "systole.cs_busy_s": (busy("systole.cs_supremum"), "s"),
        "systole.cs_evaluations": (per_round("systole.cs_evaluations"), "count"),
        "render.calls": (calls("render."), "count"),
        "render.busy_s": (busy("render."), "s"),
        "render.svg_bytes": (per_round("render.svg_bytes"), "bytes"),
        "cli.commands": (calls("cli."), "count"),
        "cli.busy_s": (busy("cli."), "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    rounds = setup(args)
    own_setup = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    setup_s = measure_setup(args, own_setup)

    from harness import Tracer, latency_summary, run_rounds
    from periodmap.errors import ResourceError

    tracer = Tracer()
    out = run_rounds(rounds, tracer, bool(args.trace), (ResourceError,))
    walls = out.round_walls[False]
    lat = latency_summary(out)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}"
          f"  tasks/round {len(rounds[0])}  trace {args.trace}")
    print(f"tasks {lat['tasks']}; tail percentile p{lat['tail_percentile']:.2f}"
          f" (10 tasks beyond it)")
    print(f"task p50 ms: {lat['p50_ms']:.4f} in task time, {lat['raw_p50_ms']:.4f}"
          f" as measured; reference kernel median {lat['reference_ms']:.4f} ms")
    q = statistics.quantiles(walls, n=4, method="inclusive") if len(walls) > 1 else walls * 3
    print(f"untraced round time s: min {min(walls):.4f} quartiles "
          + " ".join(f"{x:.4f}" for x in q) + f" max {max(walls):.4f}")
    if args.trace:
        path = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        metrics = per_layer(out, tracer, len(rounds))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (min(walls), "s"),
            "task_p50_ms": (lat["p50_ms"], "ms"),
            "task_tail_ms": (lat["tail_ms"], "ms"),
            "ok_ratio": (1.0 - len(out.failures) / out.attempted, "ratio"),
            "peak_rss_mb": (peak, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:14.6g} {unit}")
    print(f"fail_ratio {len(out.failures) / out.attempted:.6g}"
          f" ({len(out.failures)} of {out.attempted} tasks)")
    grouped: dict[tuple, int] = {}
    for task, failure in out.failures:
        key = (task.name, failure.kind, task.known_defect == failure.kind, failure.detail)
        grouped[key] = grouped.get(key, 0) + 1
    for (name, kind, known, detail), count in sorted(grouped.items()):
        tag = "known seed defect" if known else "UNEXPECTED"
        print(f"  failed x{count} [{kind}, {tag}] {name}: {detail}")
    print(json.dumps({
        "correct": not out.unexpected,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
