"""The repository benchmark: ``python3 perfbench/run.py --workload NAME``.

Workloads (see README.md for why each exists):

``report-cold``  serial ``report --quick`` on an empty result cache, each
                 report in a fresh process;
``serve-mixed``  ``repro serve --jobs 2 --concurrency 1`` on a cold cache,
                 with new, repeated, pooled, coalesced and resumed work.

The serve workload runs beside one idle poller per CPU (``idle_poll.py``).

Every timing of a ``--trace 0`` run is scaled to nominal host speed:
a sampler (``speed.py``) times a fixed reference kernel ten times a
second while the workload runs, and each timed unit is multiplied by
the host's mean speed over its own interval, less the share of it the
hypervisor gave to other tenants (steal).  The unscaled medians and
the speed factors are printed under the table.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload once untraced and once traced, and
reports the per-layer metrics plus the tracing overhead; the spans land
in ``.perfbench/traces/``.  Either way the outputs are checked, a table
goes to stdout and the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: Everything a run writes lives under this (git-ignored) directory.
OUT = ROOT / ".perfbench"

WORKLOADS = ("report-cold", "serve-mixed")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
)

#: Requests in one serve segment.  A serve run starts one server on a
#: fresh cache and sends consecutive segments of the seeded stream until
#: ``--seconds`` have passed; ``wall_s`` is the median segment time.
SEGMENT = {"serve-mixed": 150}

#: Segments in each pass of a traced run.  Three serve-mixed segments
#: create more jobs than the server keeps in memory (256), so later
#: resumes replay from the journal on disk; three segments also give
#: each pass a median segment time.
TRACE_SEGMENTS = 3

#: Closed-loop client threads (one per core of the reference host).
CLIENTS = 2

#: Where the samples behind each end-to-end metric are kept.
SAMPLES_OF = {
    "requests_per_s": "wall_s",
    "latency_p50_ms": "latency_ms",
    "latency_p90_ms": "latency_ms",
}

#: ``setup_s`` is the median of at least this many set-ups per run.
MIN_SETUPS = 5


class Run:
    """Counters and samples of one benchmark run."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.samples: Dict[str, List[float]] = {}
        #: ``time.monotonic()`` interval of each timing sample, by metric.
        self.intervals: Dict[str, List[Tuple[float, float]]] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def timed(self, name: str, value: float, t0: float, t1: float) -> None:
        """A timing taken over ``[t0, t1]``; ``scale`` adjusts it later."""
        self.sample(name, value)
        self.intervals.setdefault(name, []).append((t0, t1))

    def scale(self, sampler) -> None:
        """Scale every timing to nominal host speed (``speed.py``).

        The unscaled values stay as ``raw.<name>`` and the factors as
        ``speed.<name>``.
        """
        for name, spans in self.intervals.items():
            raw = self.samples[name]
            factors = [sampler.factor(t0, t1) for t0, t1 in spans]
            self.samples["raw." + name] = raw
            self.samples["speed." + name] = factors
            self.samples[name] = [v * f for v, f in zip(raw, factors)]


def _child_env(tmp: Path) -> Dict[str, str]:
    from perfbench.serve_load import isolated_env

    return isolated_env(ROOT, tmp)


# ----------------------------------------------------------------------
# report-cold


def _expected() -> Dict[str, object]:
    return json.loads((HERE / "expected.json").read_text())


def run_report(run: Run, tmp: Path, trace_out: Optional[Path] = None, setup_only: bool = False) -> Optional[Dict[str, object]]:
    """One report child: setup sample, then (unless ``setup_only``) a report."""
    work = Path(tempfile.mkdtemp(dir=tmp))
    out = work / "result.json"
    argv = [sys.executable, str(HERE / "report_child.py"), "--out", str(out)]
    if setup_only:
        argv.append("--setup-only")
    if trace_out is not None:
        argv += ["--trace", str(trace_out)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=str(work), env=_child_env(work), capture_output=True, text=True, timeout=170,
        )
    except subprocess.TimeoutExpired:
        run.fail("report child timed out")
        return None
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        run.fail(f"report child exited {proc.returncode}: {proc.stderr[-400:]}")
        return None
    if trace_out is None:
        # The child stamps CLOCK_MONOTONIC, which every process shares.
        t_ready = float(words[1])
        run.timed("setup_s", t_ready - t_spawn, t_spawn, t_ready)
    if setup_only:
        shutil.rmtree(work, ignore_errors=True)
        return None
    result = json.loads(out.read_text())
    shutil.rmtree(work, ignore_errors=True)
    run.attempted += 1
    expected = _expected()["report-cold"]
    if result["code"] != 0:
        run.fail(f"report exited {result['code']}")
    elif result["digest"] != expected["digest"]:  # type: ignore[index]
        run.fail(f"report digest {result['digest']} != expected {expected['digest']}")  # type: ignore[index]
    return result


def report_cold(run: Run, tmp: Path, seconds: float, trace: bool) -> Dict[str, float]:
    if trace:
        from perfbench import layers

        plain = run_report(run, tmp)
        spans = _trace_path("report-cold", run)
        traced = run_report(run, tmp, trace_out=spans)
        if plain is None or traced is None:
            return {}
        dump = json.loads(spans.read_text())
        return layers.compute(dump, traced["wall_s"], traced["wall_s"] - plain["wall_s"])

    from perfbench import speed, stats

    # The report is single-threaded: it and the speed sampler share one
    # CPU, so the sampler times the CPU the report runs on.
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    try:
        with speed.Sampler(cpus={cpu}) as sampler:
            t0 = time.perf_counter()
            while True:
                result = run_report(run, tmp)
                if result is not None:
                    interval = (result["start"], result["end"])
                    run.timed("wall_s", result["wall_s"], *interval)
                    run.timed("latency_ms", result["wall_s"] * 1e3, *interval)
                    run.sample("peak_rss_mb", result["peak_rss_mb"])
                if time.perf_counter() - t0 >= seconds or result is None:
                    break
            while len(run.samples.get("setup_s", ())) < MIN_SETUPS and not run.failed:
                run_report(run, tmp, setup_only=True)
            # Passes after the last set-up, so that its factor is centred on it.
            time.sleep(speed.PERIOD_S * speed.MIN_SAMPLES / 2)
            run.scale(sampler)
    finally:
        os.sched_setaffinity(0, cpus)
    walls = run.samples.get("wall_s", [])
    if not walls:
        return {}
    latencies = stats.latency_samples(run.samples["latency_ms"], run.failed)
    return {
        "setup_s": stats.median(run.samples["setup_s"]),
        "wall_s": stats.median(walls),
        "peak_rss_mb": stats.median(run.samples["peak_rss_mb"]),
        "requests_per_s": stats.median([1.0 / w for w in walls]),
        "latency_p50_ms": stats.percentile(latencies, 50.0),
        "latency_p90_ms": stats.percentile(latencies, 90.0),
    }


# ----------------------------------------------------------------------
# serve-mixed


def _task_for(spec: Dict[str, object]):
    from repro.experiments import harness

    return harness.speedup_task(str(spec["app"]), float(spec["pages"]), seed=int(spec["seed"]))  # type: ignore[arg-type]


def _label(spec: Dict[str, object]) -> str:
    return f"{spec['app']}@{float(spec['pages']):g}"  # type: ignore[arg-type]


def _specs_of(record, records) -> List[Dict[str, object]]:
    item = record.item
    if item["kind"] == "app":
        return [item["spec"]]
    if item["kind"] == "tasks":
        return list(item["specs"])
    return _specs_of(records[int(item["target"])], records)


def check_values(run: Run, tmp: Path, passes: List[list]) -> None:
    """Every result must equal an ``execute_task`` of its ``SweepTask``.

    The reference values of the distinct tasks are computed after the
    timed section by ``CLIENTS`` worker processes (``check_worker.py``),
    outside the server.
    """
    specs_by_key: Dict[str, Dict[str, object]] = {}
    for records in passes:
        for record in records:
            if record.error is None:
                for spec in _specs_of(record, records):
                    specs_by_key[_task_for(spec).key()] = spec
    keys = list(specs_by_key)
    chunks = [keys[i::CLIENTS] for i in range(CLIENTS)]
    workers = [
        subprocess.Popen(
            [sys.executable, str(HERE / "check_worker.py")], cwd=str(tmp), env=_child_env(tmp),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for _ in chunks
    ]
    expected: Dict[str, Dict[str, float]] = {}
    for chunk, worker in zip(chunks, workers):
        try:
            out, _ = worker.communicate(json.dumps([specs_by_key[k] for k in chunk]), timeout=170)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.communicate()
            raise
        if worker.returncode != 0:
            raise RuntimeError(f"check worker exited {worker.returncode}")
        expected.update(zip(chunk, json.loads(out)))

    for records in passes:
        for record in records:
            if record.error is not None:
                continue
            specs = {_label(s): s for s in _specs_of(record, records)}
            results = [e for e in record.events if e.get("event") == "result"]
            if record.item["kind"] != "resume" and sorted(str(e.get("task")) for e in results) != sorted(specs):
                record.error = f"results {[e.get('task') for e in results]} != requested {sorted(specs)}"
                continue
            for event in results:
                spec = specs.get(str(event.get("task")))
                if spec is None:
                    record.error = f"result for unrequested task {event.get('task')}"
                    break
                if event.get("values") != expected[_task_for(spec).key()]:
                    record.error = f"values of {event.get('task')} differ from execute_task"
                    break


def start_server(tmp: Path, workload: str, trace_out: Optional[Path] = None):
    """Spawn a server on a fresh cache.

    Returns the server and its set-up interval (``time.monotonic()``):
    spawn until the listening line.
    """
    from perfbench import serve_load

    work = Path(tempfile.mkdtemp(dir=tmp))
    server = serve_load.ServerProcess(serve_load.serve_argv(workload, trace_out), _child_env(work), work)
    return server, (server.t_spawn, time.monotonic())


def stop_server(run: Run, server) -> None:
    code = server.drain()
    if code != 0:
        run.fail(f"server exited {code} after drain")


def serve_pass(run: Run, tmp: Path, workload: str, seed: int, seconds: float, segments: int = 0, trace_out: Optional[Path] = None):
    """One server, then stream segments until ``seconds`` (or ``segments``).

    Each segment is the next ``SEGMENT`` items of the seeded stream; a
    ``resume`` may target any earlier item.  Returns ``(records,
    segment walls, segment intervals, server metrics)``.
    """
    import itertools

    from perfbench import serve_load, speed, streams

    stream = streams.items(workload, seed)
    server, setup = start_server(tmp, workload, trace_out)
    records: List = []
    walls: List[float] = []
    intervals: List[Tuple[float, float]] = []
    metrics: Dict[str, float] = {}
    try:
        ticks, cpu_s = speed.cpu_ticks(), server.cpu_s()
        t0 = time.perf_counter()
        while True:
            start = len(records)
            records += [
                serve_load.Record(index=start + i, item=item)
                for i, item in enumerate(itertools.islice(stream, SEGMENT[workload]))
            ]
            t_start = time.monotonic()
            walls.append(serve_load.run_closed_loop(server.addr, records, start, CLIENTS))
            intervals.append((t_start, time.monotonic()))
            if (segments and len(walls) >= segments) or (not segments and time.perf_counter() - t0 >= seconds):
                break
        if trace_out is not None:
            metrics = server.get_json("/metrics")  # type: ignore[assignment]
        else:
            run.timed("setup_s", setup[1] - setup[0], *setup)
            run.sample("peak_rss_mb", server.peak_rss_mb())
            run.sample("server_cpu_ms", (server.cpu_s() - cpu_s) * 1e3 / len(records))
            steal, total = (b - a for a, b in zip(ticks, speed.cpu_ticks()))
            run.sample("host_steal", steal / max(1, total))
    except BaseException:
        server.kill()
        raise
    stop_server(run, server)
    return records, walls, intervals, metrics


def serve(run: Run, tmp: Path, workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, float]:
    from perfbench import idle_poll, layers, speed, stats

    with idle_poll.polling():
        if trace:
            plain, plain_walls, _, _ = serve_pass(run, tmp, workload, seed, seconds, TRACE_SEGMENTS)
            spans = _trace_path(workload, run)
            traced, traced_walls, _, server_metrics = serve_pass(
                run, tmp, workload, seed, seconds, TRACE_SEGMENTS, spans,
            )
            passes = [plain, traced]
        else:
            # Server and clients keep both CPUs busy, so the sampler is
            # not pinned: its passes land on each CPU in turn.
            with speed.Sampler() as sampler:
                records, walls, intervals, _ = serve_pass(run, tmp, workload, seed, seconds)
                for wall, interval in zip(walls, intervals):
                    run.timed("wall_s", wall, *interval)
                passes = [records]
                while len(run.samples["setup_s"]) < MIN_SETUPS and not run.failed:
                    server, setup = start_server(tmp, workload)
                    stop_server(run, server)
                    run.timed("setup_s", setup[1] - setup[0], *setup)
                # Passes after the last set-up, so that its factor is centred on it.
                time.sleep(speed.PERIOD_S * speed.MIN_SAMPLES / 2)
                run.scale(sampler)
    check_values(run, tmp, passes)
    for pass_records in passes:
        for record in pass_records:
            run.attempted += 1
            if record.error is not None:
                run.fail(f"request {record.index} ({record.item['cls']}): {record.error}")

    if trace:
        done = [r for r in traced if r.error is None]
        # A pass's wall time is its median segment time times its
        # segments: one request held up by the lost wakeup in Job.stream
        # (README.md) adds 10 s to one segment and would decide a sum.
        traced_s = stats.median(traced_walls) * len(traced_walls)
        plain_s = stats.median(plain_walls) * len(plain_walls)
        return layers.compute(
            json.loads(spans.read_text()),
            traced_s,
            traced_s - plain_s,
            server_metrics,
            accept_ms=[(r.t_accept - r.t_start) * 1e3 for r in done],
            stream_ms=[(r.t_done - r.t_accept) * 1e3 for r in done],
        )

    # Each request's latency is scaled by the speed over its segment.
    # Every metric is taken per segment and then the median over the
    # segments, so a slow phase of the host that covers a minority of a
    # run's segments does not decide the run (a stall still shows in the
    # latency maximum printed below the table).
    walls = run.samples["wall_s"]
    factors = run.samples["speed.wall_s"]
    per_segment: List[List[float]] = [[] for _ in walls]
    for record in records:
        segment = record.index // SEGMENT[workload]
        # A failed request misses every limit: it counts as +inf.
        per_segment[segment].append(math.inf if record.error else record.latency_ms * factors[segment])
    run.samples["latency_ms"] = [v for segment in per_segment for v in segment]
    run.samples["latency_p50_ms"] = [stats.percentile(v, 50.0) for v in per_segment]
    run.samples["latency_p90_ms"] = [stats.percentile(v, 90.0) for v in per_segment]
    completed = [sum(math.isfinite(v) for v in segment) for segment in per_segment]
    run.samples["requests_per_s"] = [n / w for n, w in zip(completed, walls)]
    return {
        "setup_s": stats.median(run.samples["setup_s"]),
        "wall_s": stats.median(walls),
        "peak_rss_mb": stats.median(run.samples["peak_rss_mb"]),
        "requests_per_s": stats.median(run.samples["requests_per_s"]),
        "latency_p50_ms": stats.median(run.samples["latency_p50_ms"]),
        "latency_p90_ms": stats.median(run.samples["latency_p90_ms"]),
    }


# ----------------------------------------------------------------------
# Output


def _trace_path(workload: str, run: Run) -> Path:
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    return traces / f"{workload}-seed{run.seed}-spans.json"


def environment(seed: int) -> Dict[str, object]:
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                text=True, timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": rev,
        "host": platform.node(),
    }


def render(workload: str, env: Dict[str, object], run: Run, metrics: Dict[str, float], units: Dict[str, str]) -> str:
    from perfbench import stats

    lines = [
        f"perfbench {workload}: seed={env['seed']} nproc={env['nproc']} "
        f"python={env['python']} rev={env['git_rev']}",
        f"{'metric':<36} {'value':>16} {'unit':<6} {'samples':>7} {'attempted':>9} {'failed':>6}",
    ]
    for name, value in metrics.items():
        n = len(run.samples.get(SAMPLES_OF.get(name, name), ()))
        lines.append(
            f"{name:<36} {value:>16.6g} {units[name]:<6} {n or 1:>7} {run.attempted:>9} {run.failed:>6}"
        )
    latency = run.samples.get("latency_ms")
    if latency:
        summary = stats.summarize(latency)
        if "tail_p" in summary:
            lines.append(
                f"latency tail: p{summary['tail_p']:g} = {summary['tail']:.6g} ms "
                f"(the highest percentile with >= 10 of {summary['n']} samples beyond it), "
                f"max = {max(latency):.6g} ms"
            )
    if "speed.wall_s" in run.samples:
        lines.append(
            "host speed against nominal (speed.py): "
            + ", ".join(
                f"{name} median {stats.median(run.samples['speed.' + name]):.4g}"
                f" (unscaled median {stats.median(run.samples['raw.' + name]):.6g} s)"
                for name in ("wall_s", "setup_s")
            )
        )
    if "server_cpu_ms" in run.samples:
        lines.append(
            f"server CPU per request = {run.samples['server_cpu_ms'][0]:.6g} ms, "
            f"host steal during the timed section = {run.samples['host_steal'][0]:.1%}"
        )
    for error in run.errors:
        lines.append(f"FAILED: {error}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources (src/repro) are missing under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    # SIGTERM unwinds like an exception, so servers and temporary
    # directories are cleaned up on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    run = Run(args.seed)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT / "tmp") as tmp_name:
        tmp = Path(tmp_name)
        if args.workload == "report-cold":
            metrics = report_cold(run, tmp, args.seconds, bool(args.trace))
        else:
            metrics = serve(run, tmp, args.workload, args.seed, args.seconds, bool(args.trace))

    if args.trace:
        from perfbench.layers import PER_LAYER

        units = dict(PER_LAYER)
    else:
        units = dict(END_TO_END)
    correct = run.failed == 0 and run.attempted > 0 and set(metrics) == set(units)
    env = environment(args.seed)
    print(render(args.workload, env, run, metrics, units))
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "samples": run.samples,
        "errors": run.errors,
    }
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
