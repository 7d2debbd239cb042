"""TaskScheduler: the extracted execution core behind run_sweep."""

from __future__ import annotations

import pytest

from repro.experiments import harness
from repro.serve.scheduler import TaskScheduler


def _tasks():
    return [
        harness.speedup_task("array-insert", 2.0),
        harness.speedup_task("array-find", 2.0),
    ]


class TestSchedulerRunSweep:
    def test_matches_harness_run_sweep(self, tmp_path):
        """The CLI path and a directly-driven scheduler agree exactly."""
        settings = harness.HarnessSettings(
            use_cache=True, cache_dir=str(tmp_path / "a")
        )
        via_harness = harness.run_sweep(_tasks(), settings=settings)

        direct_settings = harness.HarnessSettings(
            use_cache=True, cache_dir=str(tmp_path / "b")
        )
        scheduler = TaskScheduler(
            direct_settings,
            cache=harness.ResultCache(direct_settings.resolve_cache_dir()),
        )
        direct = scheduler.run_sweep(_tasks())

        assert [r.values for r in via_harness] == [r.values for r in direct]
        assert via_harness.stats.misses == direct.stats.misses == 2

    def test_second_run_hits_cache(self, tmp_path):
        settings = harness.HarnessSettings(cache_dir=str(tmp_path))
        cache = harness.ResultCache(settings.resolve_cache_dir())
        first = TaskScheduler(settings, cache=cache).run_sweep(_tasks())
        second = TaskScheduler(settings, cache=cache).run_sweep(_tasks())
        assert first.stats.hits == 0 and first.stats.misses == 2
        assert second.stats.hits == 2 and second.stats.misses == 0
        assert [r.values for r in first] == [r.values for r in second]

    def test_duplicates_fold_to_one_execution(self, tmp_path):
        task = harness.speedup_task("array-insert", 2.0)
        settings = harness.HarnessSettings(cache_dir=str(tmp_path))
        outcome = TaskScheduler(settings).run_sweep([task, task, task])
        assert outcome.stats.tasks == 3
        assert outcome.stats.misses == 1
        assert outcome[0] is outcome[1] is outcome[2]

    def test_on_task_done_fires_for_hits_and_misses(self, tmp_path):
        settings = harness.HarnessSettings(cache_dir=str(tmp_path))
        cache = harness.ResultCache(settings.resolve_cache_dir())
        seen = []
        scheduler = TaskScheduler(
            settings, cache=cache, on_task_done=seen.append
        )
        scheduler.run_sweep(_tasks())
        assert len(seen) == 2 and all(not r.cached for r in seen)

        seen.clear()
        TaskScheduler(settings, cache=cache, on_task_done=seen.append).run_sweep(
            _tasks()
        )
        assert len(seen) == 2 and all(r.cached for r in seen)

    def test_broken_observer_does_not_break_sweep(self, tmp_path):
        settings = harness.HarnessSettings(cache_dir=str(tmp_path))

        def bad_observer(result):
            raise RuntimeError("observer bug")

        outcome = TaskScheduler(settings, on_task_done=bad_observer).run_sweep(
            _tasks()
        )
        assert outcome.complete


class TestUniqueExecutorSeam:
    def test_unique_executor_receives_distinct_uncached_tasks(self, tmp_path):
        calls = []

        def spy(tasks, scheduler):
            calls.append(list(tasks))
            return scheduler.execute_distinct(tasks)

        task = harness.speedup_task("array-insert", 2.0)
        settings = harness.HarnessSettings(cache_dir=str(tmp_path))
        outcome = TaskScheduler(settings, unique_executor=spy).run_sweep(
            [task, task]
        )
        assert outcome.complete
        # duplicates folded before the seam, which sees the task's legs
        assert calls == [list(task.legs())]

    def test_coalesce_scope_routes_harness_sweeps(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        calls = []

        def spy(tasks, scheduler):
            calls.append(len(tasks))
            return scheduler.execute_distinct(tasks)

        with harness.coalesce_scope(spy):
            outcome = harness.run_sweep(_tasks())
        assert outcome.complete and calls == [4]  # two legs per task

    def test_progress_scope_routes_harness_sweeps(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        seen = []
        with harness.progress_scope(seen.append):
            harness.run_sweep(_tasks())
        assert len(seen) == 2

    def test_settings_scope_overrides_are_context_local(self, tmp_path):
        override = harness.HarnessSettings(
            jobs=7, cache_dir=str(tmp_path), retries=9
        )
        with harness.settings_scope(override):
            inside = harness.current_settings()
            assert inside.jobs == 7 and inside.retries == 9
        after = harness.current_settings()
        assert after.jobs != 7

    def test_empty_sweep(self, tmp_path):
        settings = harness.HarnessSettings(cache_dir=str(tmp_path))
        outcome = TaskScheduler(settings).run_sweep([])
        assert len(outcome) == 0 and outcome.complete


@pytest.mark.parametrize("mode", ["speedup", "constants"])
def test_results_are_cache_key_stable(tmp_path, mode):
    """Scheduler caching keys off the legs' SweepTask.key()."""
    make = harness.speedup_task if mode == "speedup" else harness.constants_task
    task = make("array-insert", 2.0)
    settings = harness.HarnessSettings(cache_dir=str(tmp_path))
    cache = harness.ResultCache(settings.resolve_cache_dir())
    TaskScheduler(settings, cache=cache).run_sweep([task])
    legs = make("array-insert", 2.0).legs()
    assert all(cache.load(leg) is not None for leg in legs)
    assert cache.load(task) is None  # no task-level entry
