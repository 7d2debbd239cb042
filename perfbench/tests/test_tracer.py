"""Span wrappers: parents, request ids, outermost-only groups, totals."""

import json

from perfbench import layers, tracer


def test_spans_nest_and_inherit_the_request_id(tmp_path):
    t = tracer.Tracer()

    def inner():
        return 2

    wrapped_inner = t.wrap("inner", inner)
    outer = t.wrap("outer", lambda: wrapped_inner() + 1, request=lambda _args: "req-1")
    assert outer() == 3
    by_name = {span[1]: span for span in t.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["outer"][4] is None
    assert by_name["inner"][5] == by_name["outer"][5] == "req-1"
    t.dump(tmp_path / "spans.json")
    dump = json.loads((tmp_path / "spans.json").read_text())
    assert {s["name"] for s in dump["spans"]} == {"inner", "outer"}
    assert dump["totals"]["outer"][0] == 1


def test_group_counts_only_the_outermost_call():
    t = tracer.Tracer()
    calls = []

    def level(depth):
        calls.append(depth)
        return level_w(depth - 1) if depth else 0

    level_w = t.wrap("cache", level, record=False, group="cache")
    level_w(3)
    assert calls == [3, 2, 1, 0]
    assert t.totals["cache"][0] == 1
    assert t.spans == []


def test_disabled_tracer_records_nothing():
    t = tracer.Tracer()
    t.enabled = False
    assert t.wrap("x", lambda: 5)() == 5
    assert t.totals == {} and t.spans == []


def test_compute_yields_every_declared_metric():
    empty = {"spans": [], "totals": {}, "counts": {}, "distinct": {}}
    metrics = layers.compute(empty, wall_s=1.0, overhead_s=0.0)
    assert list(metrics) == [name for name, _ in layers.PER_LAYER]
