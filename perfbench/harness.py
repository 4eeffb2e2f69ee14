"""Closed-loop task runner, span tracer and metric derivation.

One process and one client run a workload's task list back to back.
Each pass over the list is a round; every round uses fresh inputs made
from the workload seed and the round index.  Answers are kept and
checked after the round, so checking never sits inside a timed span.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

perf_counter = time.perf_counter

# the reference kernel's time in the fastest CPU state of the 2-CPU
# Intel Xeon host the benchmark was tuned on
REFERENCE_S = 0.25e-3
# the shortest time the CPU keeps one speed state there
STATE_S = 0.010
# how much of a round's slowdown a long task takes on: over rounds, the
# tasks over 30 ms slowed with the reference time to the power 1.2 on
# exact, 0.54 on systole and 0.31 on coverage
LONG_SCALING = 0.5


def reference_kernel() -> float:
    """A fixed slice of interpreter, big-integer and small-array work.

    It uses no library code, so only the speed of the CPU it runs on
    changes its time.  On a shared host that speed switches between
    states that last 10-20 ms and differ by up to 1.9 times.
    """
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i)
    gram = np.array([[1.0, 0.2, 0.1], [0.2, -1.0, 0.3], [0.1, 0.3, -1.0]])
    for r in (3, 4):
        axes = np.meshgrid(*[np.arange(-r, r + 1)] * 3, indexing="ij")
        pts = np.stack([a.ravel() for a in axes], axis=1).astype(float)
        norms = np.einsum("ij,jk,ik->i", pts, gram, pts)
    return float(total) + float(np.min(norms))


class Tracer:
    """In-memory spans around the benchmark's own calls into each layer.

    A span is (span id, parent span id, name, start, end, task id).  A
    task span has no parent; a layer span's parent is the task it ran
    in.  With tracing off ``call`` is a plain call.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self._task_span: int | None = None
        self._task_id: int | None = None

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.spans.append(
                (
                    len(self.spans),
                    self._task_span,
                    f"{layer}.{fn.__name__}",
                    start,
                    end,
                    self._task_id,
                )
            )

    def open_task(self, task_id: int) -> None:
        self._task_id = task_id
        # the task span takes the next id and is filled in by close_task
        self._task_span = len(self.spans)
        self.spans.append(None)

    def close_task(self, name: str, start: float, end: float) -> None:
        sid = self._task_span
        self.spans[sid] = (sid, None, f"task.{name}", start, end, self._task_id)
        self._task_span = None
        self._task_id = None

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("id", "parent", "name", "start", "end", "task")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def reference_time() -> float:
    """The faster of two back-to-back reference-kernel runs.

    The first run after a task may find the caches full of the task's
    data; the second runs warm, in the CPU state of the moment.
    """
    times = []
    for _ in range(2):
        start = perf_counter()
        reference_kernel()
        times.append(perf_counter() - start)
    return min(times)


def task_time(latency: float, reference: float, round_reference: float) -> float:
    """A task's latency with the CPU state it ran in taken out.

    A task up to STATE_S long runs within the state its reference time
    shows, so its latency is scaled by REFERENCE_S over that reference
    time: its latency in the fastest state.  A longer task spans about
    latency / STATE_S states.  For the share STATE_S / latency of it
    the reference time counts as before; for the rest the state is the
    round's median reference time, and the scaling is taken to the
    power LONG_SCALING, because long tasks slow less than the kernel or
    more, by what they do.  The result has no step in the latency.
    """
    share = STATE_S / max(latency, STATE_S)
    return (latency * (REFERENCE_S / reference) ** share
            * (REFERENCE_S / round_reference) ** (LONG_SCALING * (1.0 - share)))


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Self time by span name: duration minus the time its children cover.

    Children of one span never overlap (the client is one thread), so
    their durations add up.
    """
    child = defaultdict(float)
    for sid, parent, name, start, end, task in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(float)
    for sid, parent, name, start, end, task in spans:
        out[name] += (end - start) - child[sid]
    return out


@dataclass(frozen=True)
class Failure:
    """Why a task did not give a verified answer.

    ``kind`` is one of raised, refused, wrong.  A refusal is a
    ResourceError from a documented size guard.
    """

    kind: str
    detail: str


@dataclass
class Task:
    """One unit of client work.

    ``run`` makes the layer calls through the tracer and returns the
    answer; ``check`` verifies the answer with code independent of the
    library, adds counters, and returns None or a Failure.
    ``known_defect`` names the failure kind the parent program is known
    to give on this task; such a failure still counts as failed, but
    does not make the run incorrect.
    """

    cls: str
    name: str
    run: Callable
    check: Callable
    known_defect: str | None = None


@dataclass
class Outcome:
    # task latencies, one list per round
    latencies: list[list[float]] = field(default_factory=list)
    # time of the reference kernel run just before each task, same shape
    references: list[list[float]] = field(default_factory=list)
    # task_time of each task, same shape
    times: list[list[float]] = field(default_factory=list)
    # sum of the task times of each round, by whether it was traced
    round_walls: dict[bool, list[float]] = field(
        default_factory=lambda: {False: [], True: []}
    )
    attempted: int = 0
    failures: list[tuple[Task, Failure]] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    traced_rounds: int = 0

    @property
    def unexpected(self) -> list[tuple[Task, Failure]]:
        return [(t, f) for t, f in self.failures if t.known_defect != f.kind]


def run_rounds(
    rounds: list[list[Task]],
    tracer: Tracer,
    trace: bool,
    refused: tuple[type, ...],
) -> Outcome:
    """Run every round back to back, then check its answers.

    With tracing on, odd rounds are traced and even rounds are not, so
    one run gives both the per-layer spans and the tracing overhead.
    The reference time is taken just before each task, outside its
    span.
    """
    out = Outcome()
    task_id = 0
    for index, tasks in enumerate(rounds):
        traced = trace and index % 2 == 1
        tracer.enabled = traced
        results = []
        latencies: list[float] = []
        references: list[float] = []
        for task in tasks:
            references.append(reference_time())
            if traced:
                tracer.open_task(task_id)
            start = perf_counter()
            try:
                answer, error = task.run(tracer), None
            except Exception as exc:  # every raise is a counted failure
                answer, error = None, exc
            end = perf_counter()
            if traced:
                tracer.close_task(task.cls, start, end)
            results.append((answer, error))
            latencies.append(end - start)
            task_id += 1
        middle = statistics.median(references)
        times = [task_time(t, r, middle) for t, r in zip(latencies, references)]
        out.round_walls[traced].append(sum(times))
        out.latencies.append(latencies)
        out.references.append(references)
        out.times.append(times)
        tracer.enabled = False
        out.traced_rounds += traced
        for task, (answer, error) in zip(tasks, results):
            out.attempted += 1
            if error is not None:
                kind = "refused" if isinstance(error, refused) else "raised"
                failure = Failure(kind, f"{type(error).__name__}: {error}")
            else:
                try:
                    failure = task.check(answer, out.counters)
                except Exception as exc:  # a checker crash is a wrong answer
                    failure = Failure("wrong", f"checker raised {exc!r}")
            if failure is not None:
                out.failures.append((task, failure))
    return out


def latency_summary(out: Outcome) -> dict:
    """Median and tail task time over every task of every round.

    The tail is the highest percentile, by nearest rank, that has 10
    tasks beyond it.  The median latency as measured and the median
    reference time are given for the report.
    """
    ordered = sorted(t for ts in out.times for t in ts)
    n = len(ordered)
    rank = max(1, n - 10)
    return {
        "p50_ms": 1e3 * statistics.median(ordered),
        "raw_p50_ms": 1e3 * statistics.median(t for ts in out.latencies for t in ts),
        "reference_ms": 1e3 * statistics.median(r for rs in out.references for r in rs),
        "tail_ms": 1e3 * ordered[rank - 1],
        "tail_percentile": 100.0 * rank / n,
        "tasks": n,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
