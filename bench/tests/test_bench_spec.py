"""BENCHMARK.json is the rendering of bench/metrics.py and bench/workloads.py,
and it stays inside the driver's contract."""

import json
import re
from pathlib import Path

from bench.metrics import END_TO_END, PER_LAYER, spec

ROOT = Path(__file__).resolve().parent.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_committed_file_is_the_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == spec()


def test_spec_obeys_the_contract():
    document = spec()
    assert sorted(document) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert document["paths"] == ["bench"]
    assert isinstance(document["run_seconds"], int) and 1 <= document["run_seconds"] <= 60
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in document[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in document["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in document["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in document["end_to_end"] + document["per_layer"]:
        assert metric["better"] in ("higher", "lower") and UNIT.match(metric["unit"])
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m.bound for m in END_TO_END)}]
    assert len(json.dumps(document)) < 64 * 1024


def test_every_layer_metric_says_what_it_should_move():
    assert all(metric.moves.strip() for metric in PER_LAYER)
    assert all(metric.meaning.strip() for metric in END_TO_END)
