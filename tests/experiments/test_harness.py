"""Tests for the parallel sweep harness and its result cache."""

import json

import pytest

from repro.experiments import fig3_speedup, harness
from repro.experiments.harness import (
    HarnessSettings,
    ResultCache,
    SweepTask,
    constants_task,
    execute_task,
    run_sweep,
    speedup_task,
)

PAGE = 64 * 1024  # small pages keep the simulations fast


def fast_task(app="database", pages=2.0, **kw):
    return speedup_task(app, pages, page_bytes=PAGE, **kw)


def settings_for(tmp_path, **kw):
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    return HarnessSettings(**kw)


class TestSweepTask:
    def test_equal_tasks_have_equal_keys(self):
        assert fast_task().key() == fast_task().key()

    def test_key_depends_on_every_field(self):
        base = fast_task()
        assert base.key() != fast_task(pages=4.0).key()
        assert base.key() != fast_task(app="array-insert").key()
        assert base.key() != speedup_task("database", 2.0, page_bytes=PAGE, seed=1).key()
        assert base.key() != constants_task("database", 2.0, page_bytes=PAGE).key()

    def test_key_depends_on_configs(self):
        from repro.sim.config import MachineConfig

        cfg = MachineConfig.reference().with_miss_latency(100.0)
        assert fast_task().key() != fast_task(machine_config=cfg).key()

    def test_tasks_are_hashable_and_usable_as_dict_keys(self):
        seen = {fast_task(): 1}
        assert seen[fast_task()] == 1

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SweepTask(app_name="database", n_pages=2.0, mode="nonsense")

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            SweepTask(app_name="database", n_pages=0.0)


class TestRunSweep:
    def test_results_preserve_input_order(self, tmp_path):
        tasks = [fast_task(pages=p) for p in (4.0, 1.0, 2.0)]
        outcome = run_sweep(tasks, settings=settings_for(tmp_path))
        assert [r.task.n_pages for r in outcome] == [4.0, 1.0, 2.0]

    def test_duplicate_tasks_simulated_once(self, tmp_path):
        outcome = run_sweep(
            [fast_task(), fast_task(), fast_task()],
            settings=settings_for(tmp_path),
        )
        assert outcome.stats.tasks == 3
        assert outcome.stats.misses == 1
        assert outcome[0].values == outcome[2].values

    def test_values_match_direct_execution(self, tmp_path):
        task = fast_task()
        outcome = run_sweep([task], settings=settings_for(tmp_path))
        assert outcome[0].values == execute_task(task)

    def test_warm_cache_performs_zero_simulations(self, tmp_path):
        settings = settings_for(tmp_path)
        tasks = [fast_task(pages=p) for p in (1.0, 2.0)]
        cold = run_sweep(tasks, settings=settings)
        assert cold.stats.misses == 2 and cold.stats.hits == 0
        warm = run_sweep(tasks, settings=settings)
        assert warm.stats.misses == 0
        assert warm.stats.hits == len(tasks)
        assert all(r.cached for r in warm)
        for a, b in zip(cold, warm):
            assert a.values == b.values  # bit-identical via JSON round-trip

    def test_no_cache_never_touches_disk(self, tmp_path):
        settings = settings_for(tmp_path, use_cache=False)
        run_sweep([fast_task()], settings=settings)
        assert not (tmp_path / "cache").exists()

    def test_constants_mode_values(self, tmp_path):
        task = constants_task("database", 2.0, page_bytes=PAGE)
        outcome = run_sweep([task], settings=settings_for(tmp_path))
        values = outcome[0].values
        for key in ("t_a_us", "t_p_us", "t_c_us", "t_conv_per_activation_us"):
            assert values[key] >= 0.0

    def test_notes_report_counters(self, tmp_path):
        outcome = run_sweep([fast_task()], settings=settings_for(tmp_path))
        notes = outcome.notes()
        assert any(n.startswith("harness:") and "1 simulated" in n for n in notes)


class TestResultCache:
    def test_corrupt_entry_is_discarded_and_recomputed(self, tmp_path):
        settings = settings_for(tmp_path)
        task = fast_task()
        first = run_sweep([task], settings=settings)
        conventional, _ = task.legs()
        path = ResultCache(settings.resolve_cache_dir()).path_for(conventional.key())
        path.write_text("{ not json")
        again = run_sweep([task], settings=settings)
        assert again.stats.misses == 1  # recomputed, not crashed
        assert again[0].values == first[0].values

    def test_entry_with_missing_fields_is_discarded(self, tmp_path):
        settings = settings_for(tmp_path)
        task = fast_task()
        run_sweep([task], settings=settings)
        conventional, _ = task.legs()
        path = ResultCache(settings.resolve_cache_dir()).path_for(conventional.key())
        path.write_text(json.dumps({"values": {}}))
        again = run_sweep([task], settings=settings)
        assert again.stats.misses == 1

    def test_stored_entry_roundtrips_exact_floats(self, tmp_path):
        settings = settings_for(tmp_path)
        task = fast_task()
        cold = run_sweep([task], settings=settings)
        warm = run_sweep([task], settings=settings)
        for key, value in cold[0].values.items():
            assert warm[0].values[key] == value

    def test_entries_and_clear(self, tmp_path):
        settings = settings_for(tmp_path)
        run_sweep([fast_task(pages=p) for p in (1.0, 2.0)], settings=settings)
        cache = ResultCache(settings.resolve_cache_dir())
        assert len(cache.entries()) == 4  # two legs per task
        assert cache.clear() == 4
        assert cache.entries() == []

    def test_version_participates_in_key(self, tmp_path, monkeypatch):
        key_before = fast_task().key()
        monkeypatch.setattr(harness, "__version__", "999.0.0")
        assert fast_task().key() != key_before


class TestSettings:
    def test_configure_and_reset(self):
        harness.configure(jobs=3, use_cache=False)
        assert harness.current_settings().jobs == 3
        assert harness.current_settings().use_cache is False
        harness.reset_settings()
        assert harness.current_settings().jobs == 1
        assert harness.current_settings().use_cache is True

    def test_configure_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            harness.configure(jobs=0)

    def test_env_var_selects_cache_dir(self, monkeypatch):
        monkeypatch.setenv(harness.CACHE_DIR_ENV, "/tmp/somewhere-else")
        assert str(HarnessSettings().resolve_cache_dir()) == "/tmp/somewhere-else"


class TestExperimentIntegration:
    def test_second_fig3_run_is_all_cache_hits(self, tmp_path, monkeypatch):
        """Acceptance: a warm second invocation of fig3 simulates nothing."""
        monkeypatch.setenv(harness.CACHE_DIR_ENV, str(tmp_path / "cache"))
        apps = ["database"]
        sweep = [0.5, 2]
        cold = fig3_speedup.run(apps=apps, sweep=sweep)
        assert harness.last_sweep_stats.misses == len(sweep)
        warm = fig3_speedup.run(apps=apps, sweep=sweep)
        assert harness.last_sweep_stats.misses == 0
        assert harness.last_sweep_stats.hits == len(sweep)
        cold_rows = [
            {k: v for k, v in row.items()} for row in cold.rows
        ]
        assert warm.rows == cold_rows

    def test_sweep_app_returns_speedup_points(self, tmp_path, monkeypatch):
        monkeypatch.setenv(harness.CACHE_DIR_ENV, str(tmp_path / "cache"))
        points = fig3_speedup.sweep_app("database", sweep=[0.5, 2], page_bytes=PAGE)
        assert [p.n_pages for p in points] == [0.5, 2]
        assert all(p.speedup > 0 for p in points)


class TestTraceSummary:
    """Sweeps run with ``trace_summary`` carry trace.* digests."""

    def test_execute_task_attaches_trace_keys(self):
        task = fast_task()
        values = execute_task(task, trace_summary=True)
        assert values["trace.events"] > 0
        assert values["trace.spans"] > 0
        assert "trace.span_ns.page" in values

    def test_trace_summary_does_not_perturb_measurements(self):
        task = fast_task()
        plain = execute_task(task)
        traced = execute_task(task, trace_summary=True)
        assert {
            k: v for k, v in traced.items() if not k.startswith("trace.")
        } == plain

    def test_tracer_restored_after_execution(self):
        from repro.trace import events as trace_events

        execute_task(fast_task(), trace_summary=True)
        assert trace_events.TRACER is None

    def test_sweep_caches_and_rehits_trace_digests(self, tmp_path):
        settings = settings_for(tmp_path, trace_summary=True)
        task = fast_task()
        cold = run_sweep([task], settings=settings)
        assert cold.stats.misses == 1
        assert any(k.startswith("trace.") for k in cold[0].values)
        warm = run_sweep([task], settings=settings)
        assert warm.stats.hits == 1 and warm.stats.misses == 0
        assert warm[0].values == cold[0].values

    def test_plain_cached_entry_recomputed_when_summary_requested(
        self, tmp_path
    ):
        task = fast_task()
        plain = run_sweep([task], settings=settings_for(tmp_path))
        assert not any(k.startswith("trace.") for k in plain[0].values)
        traced = run_sweep(
            [task], settings=settings_for(tmp_path, trace_summary=True)
        )
        # The stale entry (no trace.* keys) must count as a miss ...
        assert traced.stats.misses == 1 and traced.stats.hits == 0
        assert any(k.startswith("trace.") for k in traced[0].values)
        # ... and the refreshed entry satisfies later traced sweeps.
        again = run_sweep(
            [task], settings=settings_for(tmp_path, trace_summary=True)
        )
        assert again.stats.hits == 1

    def test_traced_entry_still_hits_plain_sweeps(self, tmp_path):
        task = fast_task()
        run_sweep([task], settings=settings_for(tmp_path, trace_summary=True))
        plain = run_sweep([task], settings=settings_for(tmp_path))
        assert plain.stats.hits == 1

    def test_pooled_workers_receive_trace_summary_flag(self, tmp_path):
        settings = settings_for(tmp_path, jobs=2, trace_summary=True)
        tasks = [fast_task(pages=p) for p in (1.0, 2.0)]
        outcome = run_sweep(tasks, settings=settings)
        assert all(
            any(k.startswith("trace.") for k in r.values) for r in outcome
        )
