"""BENCHMARK.json declares exactly what run.py prints."""

import json

from perfbench import layers, run


def _declared():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    declared = _declared()
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)


def test_per_layer_metrics_match():
    declared = _declared()
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == layers.PER_LAYER


def test_workloads_match():
    assert tuple(w["name"] for w in _declared()["workloads"]) == run.WORKLOADS
