"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They check that a seed fixes the task lists across processes, that a
corrupted answer is counted as failed, that task time has no step,
that a run prints every metric BENCHMARK.json names, and that a run
outside a checkout fails cleanly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.append(os.path.join(ROOT, "tests"))

from harness import LONG_SCALING, REFERENCE_S, STATE_S, Tracer, run_rounds, task_time  # noqa: E402
from periodmap.errors import ResourceError  # noqa: E402
from workloads import WORKLOADS, round_rng  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]

DIGEST = """
import hashlib, sys
sys.path[:0] = [{here!r}, {src!r}]
sys.path.append({tests!r})
from workloads import WORKLOADS, round_rng
from test_perfbench import describe
wl = WORKLOADS[{name!r}]({root!r})
h = hashlib.sha256()
for i in range(2):
    for task in wl.round(round_rng({name!r}, {seed}, i)):
        h.update(describe(task).encode())
print(h.hexdigest())
"""


def describe(task) -> str:
    """Task class, name and every plain input its closures hold."""
    plain = (int, float, str, tuple, list, Fraction)
    inputs = []
    for fn in (task.run, task.check):
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, plain) or dataclasses.is_dataclass(value):
                inputs.append(repr(value))
    return f"{task.cls}|{task.name}|{task.known_defect}|{'|'.join(inputs)}\n"


def digest(name: str, seed: int) -> str:
    code = DIGEST.format(
        here=HERE, src=os.path.join(ROOT, "src"), tests=os.path.join(ROOT, "tests"),
        root=ROOT, name=name, seed=seed,
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout.strip()


@pytest.mark.parametrize("name", NAMES)
def test_task_lists_identical_across_processes(name):
    first = digest(name, 7)
    assert first == digest(name, 7)
    assert first != digest(name, 8)


@pytest.mark.parametrize("name", NAMES)
def test_second_seed_gives_same_task_mix(name):
    wl = WORKLOADS[name](ROOT)
    mixes = [
        sorted(t.cls for t in wl.round(round_rng(name, seed, 0))) for seed in (1, 2)
    ]
    assert mixes[0] == mixes[1]


def corrupt(task, answer):
    """The same answer with one verified property broken."""
    cls = task.cls
    if cls.startswith("face."):
        fc, ok = answer
        return fc, not ok
    if cls in ("exact.n1", "exact.n2", "exact.n3"):
        pp, res = answer
        return pp, dataclasses.replace(res, value_sq=res.value_sq + 1)
    if cls.startswith("float."):
        return dataclasses.replace(answer, value_sq=answer.value_sq * 1.01)
    if cls.startswith("cs."):
        return dataclasses.replace(answer, value=answer.value + 1e-3)
    if cls == "render":
        return answer.replace("#", "%", 1)
    if cls.startswith("n"):
        return dataclasses.replace(answer, ok=not answer.ok)
    if cls.startswith("cli."):
        return 1, answer[1]
    if cls == "split":
        return (False,) + answer[1:]
    if cls == "simplex":
        return [tuple(-x for x in line) for line in answer]
    if cls.startswith("project."):
        z, image = answer
        return z, (image[0] + 1, image[1] - 1) + tuple(image[2:])
    if cls == "algebra":
        sig = answer[0]
        return (type(sig)(sig.b_plus + 1, sig.b_minus, sig.b_null),) + answer[1:]
    return None


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_answers_are_failed(name):
    wl = WORKLOADS[name](ROOT)
    tasks = wl.warmup(round_rng(name, 3, 0))
    clean = run_rounds([tasks], Tracer(), False, (ResourceError,))
    assert not clean.unexpected

    broken = []
    for task in tasks:
        try:
            answer = task.run(Tracer())
        except ResourceError:  # a refusal has no answer to corrupt
            continue
        bad = corrupt(task, answer)
        if bad is not None:
            broken.append(dataclasses.replace(task, run=lambda tr, _bad=bad: _bad))
    assert broken
    out = run_rounds([broken], Tracer(), False, (ResourceError,))
    failed = {t.name for t, f in out.failures}
    assert failed == {t.name for t in broken}
    assert len(out.unexpected) == len([t for t in broken if t.known_defect is None])


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_task_time_has_no_step():
    reference = 1.8 * REFERENCE_S
    assert task_time(0.001, reference, reference) == pytest.approx(0.001 / 1.8)
    latencies = [STATE_S * k / 20 for k in range(1, 400)]
    times = [task_time(t, reference, reference) for t in latencies]
    steps = list(zip(latencies, latencies[1:], times, times[1:]))
    # rises with latency, and never by more than the latency does
    assert all(0 < t2 - t1 <= l2 - l1 for l1, l2, t1, t2 in steps)
    # a long task takes on the round's slowdown to the power LONG_SCALING
    assert task_time(1.0, REFERENCE_S, reference) == pytest.approx(
        1.8 ** -(0.99 * LONG_SCALING))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_output_names_every_metric(name, trace):
    proc = run_bench(ROOT, "--workload", name, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {s["name"]: s["unit"] for s in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    report = "\n".join(proc.stdout.strip().splitlines()[:-1])
    for metric, value in result["metrics"].items():
        assert re.search(rf"{re.escape(metric)} +\S+ {re.escape(value['unit'])}$", report, re.M)


def test_fails_cleanly_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(str(tmp_path), "--workload", NAMES[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
