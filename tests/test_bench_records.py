"""Every committed benchmark record, BENCH_<n>.json at the root of the
repo, is one JSON object in the shape that BENCHMARK.json declares.

A record holds the command it ran, the host, the parent commit, how
the pairs were made and the runs.  Each run names its workload, seed
and side (parent or change) and carries the harness's result: counts of
attempted and failed tasks, whether every answer was correct, and its
metrics, each a {value, unit} object named and unit-tagged as in
BENCHMARK.json.  Every workload has as many parent runs as change runs.
"""

import collections
import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCHMARK = json.load(_fh)
WORKLOADS = {w["name"] for w in _BENCHMARK["workloads"]}
UNITS = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"] + _BENCHMARK["per_layer"]}
RECORDS = sorted(
    os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "BENCH_*.json"))
)


def test_the_records_are_found():
    assert RECORDS
    assert all(name[len("BENCH_"):-len(".json")].isdigit() for name in RECORDS), RECORDS


def _is_count(x):
    return type(x) is int and x >= 0


@pytest.mark.parametrize("name", RECORDS)
def test_bench_record_is_well_formed(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        record = json.load(fh)
    assert isinstance(record, dict)
    for key in ("command", "host", "parent", "pairs"):
        assert isinstance(record.get(key), str) and record[key], key
    runs = record.get("runs")
    assert isinstance(runs, list) and runs
    sides = collections.Counter()
    for i, run in enumerate(runs):
        where = f"{name} run {i}"
        assert run.get("workload") in WORKLOADS, where
        assert type(run.get("seed")) is int, where
        assert run.get("side") in ("parent", "change"), where
        result = run.get("result")
        assert isinstance(result, dict), where
        assert _is_count(result.get("attempted")), where
        assert _is_count(result.get("failed")), where
        assert result["failed"] <= result["attempted"], where
        assert type(result.get("correct")) is bool, where
        metrics = result.get("metrics")
        assert isinstance(metrics, dict) and metrics, where
        for metric, entry in metrics.items():
            assert metric in UNITS, (where, metric)
            assert isinstance(entry, dict) and set(entry) == {"value", "unit"}, (where, metric)
            assert entry["unit"] == UNITS[metric], (where, metric)
            assert type(entry["value"]) in (int, float), (where, metric)
        sides[run["workload"], run["side"]] += 1
    for workload in {w for w, _ in sides}:
        assert sides[workload, "parent"] == sides[workload, "change"], (name, workload)
