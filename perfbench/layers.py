"""Per-layer metrics from one traced run.

``PER_LAYER`` is the list ``BENCHMARK.json`` declares, in order.  Every
traced run prints all of them; a layer a workload does not reach reads
0, which is the "no change" the README's table predicts for it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import stats

REPORT_EXPERIMENTS = ("figure-3", "figure-5", "figure-8", "figure-9", "table-4")

#: Layers whose span self times must cover most of a traced report.
SIM_LAYERS = ("harness", "runner", "apps", "sim", "radram")

PER_LAYER: List[Tuple[str, str]] = [
    *[(f"report.{e}_s", "s") for e in REPORT_EXPERIMENTS],
    ("harness.tasks", "count"),
    ("harness.simulated", "count"),
    ("harness.cached", "count"),
    ("harness.sweep_s", "s"),
    ("harness.overhead_s", "s"),
    ("harness.cache_loads", "count"),
    ("harness.cache_load_s", "s"),
    ("harness.cache_hit_ratio", "ratio"),
    ("harness.cache_stores", "count"),
    ("harness.cache_store_s", "s"),
    ("runner.conventional_legs", "count"),
    ("runner.conventional_legs_distinct", "count"),
    ("runner.conventional_unique_ratio", "ratio"),
    ("runner.conventional_s", "s"),
    ("runner.radram_legs", "count"),
    ("runner.radram_s", "s"),
    ("apps.workload_calls", "count"),
    ("apps.workload_s", "s"),
    ("sim.machine_runs", "count"),
    ("sim.machine_run_s", "s"),
    ("sim.ops", "count"),
    ("sim.ops_per_s", "1/s"),
    ("sim.processor_self_s", "s"),
    ("sim.simulated_ns", "ns"),
    ("sim.cache.calls", "count"),
    ("sim.cache.lines", "count"),
    ("sim.cache.access_s", "s"),
    ("sim.cache.ns_per_line", "ns"),
    ("sim.cache.hits", "count"),
    ("sim.cache.misses", "count"),
    ("radram.activations", "count"),
    ("radram.activate_s", "s"),
    ("radram.wait_s", "s"),
    ("radram.poll_s", "s"),
    ("scheduler.pooled_sweeps", "count"),
    ("scheduler.pool_s", "s"),
    ("scheduler.pool_task_s", "s"),
    ("scheduler.pool_efficiency", "ratio"),
    ("singleflight.computed", "count"),
    ("singleflight.coalesce_hits", "count"),
    ("server.requests", "count"),
    ("server.jobs", "count"),
    ("server.coalesce_hits", "count"),
    ("server.rejected", "count"),
    ("server.queue_wait_ms_mean", "ms"),
    ("server.accept_ms_p50", "ms"),
    ("server.stream_ms_p50", "ms"),
    ("journal.creates", "count"),
    ("journal.appends", "count"),
    ("journal.append_s", "s"),
    ("journal.append_ms_mean", "ms"),
    ("journal.reads", "count"),
    ("journal.read_s", "s"),
    ("protocol.events", "count"),
    ("protocol.parse_s", "s"),
    ("protocol.encode_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.sim_self_share", "ratio"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sim_self_share(spans: Sequence[Dict[str, object]], wall_s: float) -> float:
    """Share of ``wall_s`` covered by the self time of sim-layer spans."""
    tuples = [(s["id"], s["start"], s["end"], s["parent"]) for s in spans]
    self_s = stats.self_times(tuples)  # type: ignore[arg-type]
    covered = sum(
        self_s[s["id"]]  # type: ignore[index]
        for s in spans
        if str(s["name"]).split(".")[0] in SIM_LAYERS
    )
    return _ratio(covered, wall_s)


def compute(
    dump: Dict[str, object],
    wall_s: float,
    overhead_s: float,
    server_metrics: Optional[Dict[str, float]] = None,
    accept_ms: Sequence[float] = (),
    stream_ms: Sequence[float] = (),
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from a tracer dump and its context.

    ``wall_s`` is the traced run's wall time, ``overhead_s`` the traced
    minus the untraced wall time, ``server_metrics`` the server's
    ``GET /metrics`` document, and ``accept_ms``/``stream_ms`` the
    client-side POST->accepted and accepted->done times.
    """
    totals: Dict[str, List[float]] = dump["totals"]  # type: ignore[assignment]
    counts: Dict[str, float] = dump["counts"]  # type: ignore[assignment]
    distinct: Dict[str, int] = dump["distinct"]  # type: ignore[assignment]
    spans: List[Dict[str, object]] = dump["spans"]  # type: ignore[assignment]
    sm = server_metrics or {}

    def calls(name: str) -> float:
        return float(totals.get(name, (0, 0.0))[0])

    def secs(name: str) -> float:
        return float(totals.get(name, (0, 0.0))[1])

    def count(name: str) -> float:
        return float(counts.get(name, 0.0))

    m: Dict[str, float] = {}
    for e in REPORT_EXPERIMENTS:
        m[f"report.{e}_s"] = secs(f"report.{e}")

    m["harness.tasks"] = count("harness.tasks")
    m["harness.simulated"] = count("harness.simulated")
    m["harness.cached"] = count("harness.cached")
    m["harness.sweep_s"] = secs("harness.run_sweep")
    m["harness.overhead_s"] = m["harness.sweep_s"] - (
        secs("harness.execute_task")
        + secs("scheduler.run_pooled")
        + secs("harness.cache_load")
        + secs("harness.cache_store")
    )
    m["harness.cache_loads"] = calls("harness.cache_load")
    m["harness.cache_load_s"] = secs("harness.cache_load")
    m["harness.cache_hit_ratio"] = _ratio(count("harness.cache_load_hits"), m["harness.cache_loads"])
    m["harness.cache_stores"] = calls("harness.cache_store")
    m["harness.cache_store_s"] = secs("harness.cache_store")

    legs = calls("runner.run_conventional")
    m["runner.conventional_legs"] = legs
    m["runner.conventional_legs_distinct"] = float(distinct.get("runner.conventional", 0))
    m["runner.conventional_unique_ratio"] = _ratio(m["runner.conventional_legs_distinct"], legs)
    m["runner.conventional_s"] = secs("runner.run_conventional")
    m["runner.radram_legs"] = calls("runner.run_radram")
    m["runner.radram_s"] = secs("runner.run_radram")

    m["apps.workload_calls"] = calls("apps.workload")
    m["apps.workload_s"] = secs("apps.workload")

    radram_s = secs("radram.activate") + secs("radram.wait") + secs("radram.poll")
    m["sim.machine_runs"] = calls("sim.machine_run")
    m["sim.machine_run_s"] = secs("sim.machine_run")
    m["sim.ops"] = count("sim.ops")
    m["sim.ops_per_s"] = _ratio(m["sim.ops"], m["sim.machine_run_s"])
    m["sim.processor_self_s"] = m["sim.machine_run_s"] - secs("sim.cache") - radram_s
    m["sim.simulated_ns"] = count("sim.simulated_ns")

    m["sim.cache.calls"] = calls("sim.cache")
    m["sim.cache.lines"] = count("sim.cache.lines")
    m["sim.cache.access_s"] = secs("sim.cache")
    m["sim.cache.ns_per_line"] = _ratio(m["sim.cache.access_s"] * 1e9, m["sim.cache.lines"])
    m["sim.cache.hits"] = count("sim.cache.hits")
    m["sim.cache.misses"] = count("sim.cache.misses")

    m["radram.activations"] = count("radram.activations")
    m["radram.activate_s"] = secs("radram.activate")
    m["radram.wait_s"] = secs("radram.wait")
    m["radram.poll_s"] = secs("radram.poll")

    m["scheduler.pooled_sweeps"] = calls("scheduler.run_pooled")
    m["scheduler.pool_s"] = secs("scheduler.run_pooled")
    m["scheduler.pool_task_s"] = count("scheduler.pool_task_s")
    # pool_jobs sums each pooled sweep's worker count; capacity is the
    # pool time times the workers available to it.
    capacity = _ratio(m["scheduler.pool_s"] * count("scheduler.pool_jobs"), m["scheduler.pooled_sweeps"])
    m["scheduler.pool_efficiency"] = _ratio(m["scheduler.pool_task_s"], capacity)
    m["singleflight.computed"] = float(sm.get("serve.tasks.computed", 0.0))
    m["singleflight.coalesce_hits"] = float(sm.get("serve.tasks.coalesce_hits", 0.0))

    m["server.requests"] = float(sm.get("serve.requests_total", 0.0))
    m["server.jobs"] = float(sm.get("serve.jobs_total", 0.0))
    m["server.coalesce_hits"] = float(sm.get("serve.coalesce_hits", 0.0))
    m["server.rejected"] = float(sm.get("serve.rejected_total", 0.0))
    m["server.queue_wait_ms_mean"] = float(sm.get("serve.wait_ms.mean", 0.0))
    m["server.accept_ms_p50"] = stats.median(accept_ms) if accept_ms else 0.0
    m["server.stream_ms_p50"] = stats.median(stream_ms) if stream_ms else 0.0

    m["journal.creates"] = calls("journal.create")
    m["journal.appends"] = calls("journal.append")
    m["journal.append_s"] = secs("journal.append")
    m["journal.append_ms_mean"] = _ratio(m["journal.append_s"] * 1e3, m["journal.appends"])
    m["journal.reads"] = calls("journal.read")
    m["journal.read_s"] = secs("journal.read")

    m["protocol.events"] = calls("protocol.encode_event")
    m["protocol.parse_s"] = secs("protocol.parse")
    m["protocol.encode_s"] = (
        secs("protocol.encode_event") + secs("protocol.json_response") + secs("protocol.stream_head")
    )

    m["trace.wall_s"] = wall_s
    m["trace.overhead_s"] = overhead_s
    m["trace.spans"] = float(len(spans))
    m["trace.sim_self_share"] = sim_self_share(spans, wall_s)
    return m
