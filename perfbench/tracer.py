"""Spans and per-layer counters, recorded by wrappers around layer calls.

Nothing here changes the program: :func:`install` replaces public
functions and methods of each layer with wrappers that time the call
and forward to the original.  Layer names are the module names
(``experiments.report``, ``experiments.harness``, ``experiments.runner``,
``apps``, ``sim.machine``/``sim.processor``, ``sim.cache``,
``radram.system``, ``serve.scheduler``, ``serve.server``,
``serve.journal``, ``serve.protocol``).

Two kinds of record are kept, both in memory until :meth:`Tracer.dump`:

* a **span** (id, name, start, end, parent span id, request id) for
  calls made at most a few thousand times per run;
* a **total** (call count and seconds) for every wrapped call,
  including the hot ones (cache accesses, RADram handlers, journal
  appends, event encoding) that would produce millions of spans.  Hot
  wrappers count only the outermost call of their group, so a cache
  level calling the next level is not counted twice.

Spans of one request share its id: the experiment name in a report,
the job id for a server job thread, ``http-<n>`` for one connection.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (span id, request id) of the innermost open span of this context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Tracer:
    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.enabled = True
        self.spans: List[Tuple[int, str, float, float, Optional[int], Optional[str]]] = []
        self.totals: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.keys: Dict[str, set] = {}
        self._ids = itertools.count(1)
        self._http = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        # A forked pool worker inherits this object, possibly with the
        # lock held by another thread; it records nothing.
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def add_key(self, name: str, key: object) -> None:
        with self._lock:
            self.keys.setdefault(name, set()).add(key)

    def _close(self, name, sid, start, end, parent, request, record) -> None:
        with self._lock:
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0.0]
            total[0] += 1
            total[1] += end - start
            if record:
                self.spans.append((sid, name, start, end, parent, request))

    def _depths(self) -> Dict[str, int]:
        depths = getattr(self._local, "depths", None)
        if depths is None:
            depths = self._local.depths = {}
        return depths

    def wrap(
        self,
        name: str,
        fn: Callable,
        record: bool = True,
        group: Optional[str] = None,
        request: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A timing wrapper around ``fn``.

        ``record`` keeps a span per call (else only the total);
        ``group`` counts only the outermost of nested calls in the
        group; ``request(args)`` names a new request id for the call;
        ``after(result, args, kwargs)`` records counters from a result.
        """
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                parent = _CURRENT.get()
                sid = next(tracer._ids)
                req = request(args) if request is not None else (parent[1] if parent else None)
                token = _CURRENT.set((sid, req))
                start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _CURRENT.reset(token)
                    tracer._close(name, sid, start, end, parent[0] if parent else None, req, record)
                if after is not None:
                    after(result, args, kwargs)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if group is not None:
                depths = tracer._depths()
                if depths.get(group):
                    return fn(*args, **kwargs)
                depths[group] = 1
            parent = _CURRENT.get()
            sid = next(tracer._ids)
            req = request(args) if request is not None else (parent[1] if parent else None)
            token = _CURRENT.set((sid, req)) if record else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if token is not None:
                    _CURRENT.reset(token)
                if group is not None:
                    depths[group] = 0
                tracer._close(name, sid, start, end, parent[0] if parent else None, req, record)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` by a wrapper, everywhere it was imported.

        For a module-level function, every loaded ``repro`` module that
        bound the same function object by name is patched too.
        """
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, **options)
        setattr(owner, attr, wrapped)
        if inspect.ismodule(owner):
            for module in list(sys.modules.values()):
                if (
                    module is not None
                    and getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(attr) is original
                ):
                    setattr(module, attr, wrapped)

    def next_http_id(self, _args) -> str:
        return f"http-{next(self._http)}"

    # ------------------------------------------------------------------
    # Output

    def dump(self, path: Path, extra: Optional[Dict[str, object]] = None) -> None:
        """Write spans, totals and counters as JSON (times from start)."""
        with self._lock:
            payload = {
                "spans": [
                    {
                        "id": sid,
                        "name": name,
                        "start": start - self.t0,
                        "end": end - self.t0,
                        "parent": parent,
                        "request": req,
                    }
                    for sid, name, start, end, parent, req in self.spans
                ],
                "totals": {k: list(v) for k, v in self.totals.items()},
                "counts": dict(self.counts),
                "distinct": {k: len(v) for k, v in self.keys.items()},
            }
        if extra:
            payload.update(extra)
        path.write_text(json.dumps(payload))


# ----------------------------------------------------------------------
# Layer wrappers


def install(tracer: Tracer, serve: bool = False) -> None:
    """Wrap the simulation layers, and the serve layers when ``serve``."""
    _install_sim(tracer)
    if serve:
        _install_serve(tracer)


def _install_sim(tracer: Tracer) -> None:
    from repro.apps import registry
    from repro.experiments import harness, report, runner
    from repro.radram.system import RADramMemorySystem
    from repro.sim.cache import Cache
    from repro.sim.machine import Machine

    for table in (report.EXPERIMENTS, report.QUICK_OVERRIDES):
        for exp, fn in list(table.items()):
            table[exp] = tracer.wrap(f"report.{exp}", fn, request=lambda _a, e=exp: e)

    def sweep_done(outcome, _args, _kwargs) -> None:
        tracer.add("harness.tasks", outcome.stats.tasks)
        tracer.add("harness.simulated", outcome.stats.misses)
        tracer.add("harness.cached", outcome.stats.hits)

    def load_done(result, _args, _kwargs) -> None:
        tracer.add("harness.cache_load_hits", 1.0 if result is not None else 0.0)

    tracer.patch(harness, "run_sweep", "harness.run_sweep", after=sweep_done)
    tracer.patch(harness, "execute_task", "harness.execute_task")
    tracer.patch(harness.ResultCache, "load", "harness.cache_load", after=load_done)
    tracer.patch(harness.ResultCache, "store", "harness.cache_store")

    def conventional_leg(_result, args, kwargs) -> None:
        key = (args[0].name, args[1:], tuple(sorted(kwargs.items())))
        tracer.add_key("runner.conventional", repr(key))

    tracer.patch(runner, "run_conventional", "runner.run_conventional", after=conventional_leg)
    tracer.patch(runner, "run_radram", "runner.run_radram")

    for app in registry.ALL_APPS.values():
        for attr in ("workload", "conventional_workload"):
            if hasattr(app, attr):
                setattr(app, attr, tracer.wrap("apps.workload", getattr(app, attr), group="apps"))

    original_run = Machine.run

    def machine_run(machine, stream):
        if not tracer.enabled:
            return original_run(machine, stream)
        counter = itertools.count()

        def counted(ops):
            for op in ops:
                next(counter)
                yield op

        stats = timed_run(machine, counted(stream))
        caches = [c for c in (machine.l1d, machine.l2, machine.l1i) if c is not None]
        tracer.add("sim.ops", next(counter))
        tracer.add("sim.simulated_ns", stats.total_ns)
        tracer.add("sim.cache.hits", sum(c.stats.hits for c in caches))
        tracer.add("sim.cache.misses", sum(c.stats.misses for c in caches))
        activations = getattr(machine.memsys, "total_activations", None)
        if activations is not None:
            tracer.add("radram.activations", activations)
        return stats

    timed_run = tracer.wrap("sim.machine_run", original_run)
    Machine.run = functools.wraps(original_run)(machine_run)

    def cache_lines(_result, args, _kwargs) -> None:
        tracer.add("sim.cache.lines", len(args[1]))

    def batch_lines(_result, args, _kwargs) -> None:
        tracer.add("sim.cache.lines", sum(len(a) for a in args[1]))

    tracer.patch(Cache, "access_lines", "sim.cache", record=False, group="cache", after=cache_lines)
    tracer.patch(Cache, "access_lines_batch", "sim.cache", record=False, group="cache", after=batch_lines)
    tracer.patch(Cache, "flush_range", "sim.cache", record=False, group="cache")

    for attr, name in (
        ("handle_activate", "radram.activate"),
        ("handle_activate_batch", "radram.activate"),
        ("handle_wait", "radram.wait"),
        ("handle_wait_batch", "radram.wait"),
        ("poll", "radram.poll"),
        ("handle_service", "radram.poll"),
    ):
        tracer.patch(RADramMemorySystem, attr, name, record=False, group="radram")


def _install_serve(tracer: Tracer) -> None:
    from repro.serve import journal, protocol, scheduler, server

    def pooled_done(results, args, _kwargs) -> None:
        tracer.add("scheduler.pool_task_s", sum(r.wall_s for r in results))
        tracer.add("scheduler.pool_jobs", args[0].settings.jobs)

    tracer.patch(scheduler.TaskScheduler, "_run_pooled", "scheduler.run_pooled", after=pooled_done)

    tracer.patch(server.SweepServer, "_handle_submit", "server.handle_submit", request=tracer.next_http_id)
    tracer.patch(server.SweepServer, "_admit_job", "server.admit_job")
    tracer.patch(
        server.SweepServer, "_run_job_sync", "server.run_job", request=lambda args: args[1].job_id
    )

    tracer.patch(journal.JournalStore, "create", "journal.create")
    tracer.patch(journal.JournalStore, "read", "journal.read")
    tracer.patch(journal.JobJournal, "append", "journal.append", record=False)

    tracer.patch(protocol, "read_request", "protocol.parse")
    tracer.patch(protocol, "parse_submit", "protocol.parse")
    for attr in ("encode_event", "json_response", "stream_head"):
        tracer.patch(protocol, attr, f"protocol.{attr}", record=False)
