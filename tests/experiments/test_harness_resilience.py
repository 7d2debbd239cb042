"""Harness resilience: crashed, hung and raising sweep tasks.

These tests exercise the retry/timeout machinery in
:func:`repro.experiments.harness.run_sweep` against *real* failures —
worker processes killed with ``os._exit``, workers stuck in a sleep,
tasks that raise — injected through :mod:`repro.faults.chaos`, plus the
crash safety of the on-disk result cache (a writer killed mid-store
must never leave a readable half-entry).
"""

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.faults import chaos
from repro.experiments.harness import (
    HarnessSettings,
    ResultCache,
    TaskResult,
    faults_task,
    run_sweep,
    speedup_task,
)

PAGE = 64 * 1024


def fast_task(app="database", pages=2.0, **kw):
    return speedup_task(app, pages, page_bytes=PAGE, **kw)


def settings_for(tmp_path, **kw):
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    kw.setdefault("retry_backoff_s", 0.01)  # keep retries fast in tests
    return HarnessSettings(**kw)


@pytest.fixture
def chaos_spec(tmp_path, monkeypatch):
    """Arm chaos rules for this test; returns the writer function."""

    def arm(rules):
        spec_path = str(tmp_path / "chaos.json")
        chaos.write_spec(spec_path, str(tmp_path / "chaos-state"), rules)
        monkeypatch.setenv(chaos.CHAOS_ENV, spec_path)

    yield arm
    monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)


class TestRaisingTasks:
    def test_serial_raise_is_retried_and_recovers(self, tmp_path, chaos_spec):
        chaos_spec([{"match": "database", "mode": "raise", "times": 1}])
        outcome = run_sweep([fast_task()], settings=settings_for(tmp_path))
        assert outcome.complete
        assert outcome[0].ok
        assert outcome[0].attempts == 2
        assert outcome.stats.retried == 1

    def test_serial_exhausted_retries_record_the_failure(self, tmp_path, chaos_spec):
        chaos_spec([{"match": "database", "mode": "raise", "times": 99}])
        outcome = run_sweep(
            [fast_task()], settings=settings_for(tmp_path, retries=1)
        )
        assert not outcome.complete
        assert outcome.stats.failed == 1
        (failed,) = outcome.failed_results()
        assert failed.attempts == 2
        assert "ChaosError" in failed.error
        assert failed.values == {}

    def test_one_bad_task_does_not_sink_the_sweep(self, tmp_path, chaos_spec):
        chaos_spec([{"match": "database", "mode": "raise", "times": 99}])
        tasks = [fast_task("array-insert"), fast_task("database"), fast_task("median-kernel")]
        outcome = run_sweep(tasks, settings=settings_for(tmp_path, retries=0))
        assert outcome[0].ok and outcome[2].ok
        assert not outcome[1].ok
        assert outcome.stats.failed == 1

    def test_pooled_raise_is_captured_per_task(self, tmp_path, chaos_spec):
        chaos_spec([{"match": "database", "mode": "raise", "times": 99}])
        tasks = [fast_task("array-insert"), fast_task("database")]
        outcome = run_sweep(
            tasks, settings=settings_for(tmp_path, jobs=2, retries=0)
        )
        assert outcome[0].ok
        assert not outcome[1].ok
        assert "ChaosError" in outcome[1].error

    def test_failed_result_getitem_raises_keyerror(self, tmp_path, chaos_spec):
        chaos_spec([{"match": "database", "mode": "raise", "times": 99}])
        outcome = run_sweep(
            [fast_task()], settings=settings_for(tmp_path, retries=0)
        )
        with pytest.raises(KeyError, match="database"):
            outcome[0]["speedup"]

    def test_notes_itemize_failures(self, tmp_path, chaos_spec):
        chaos_spec([{"match": "database", "mode": "raise", "times": 99}])
        outcome = run_sweep(
            [fast_task()], settings=settings_for(tmp_path, retries=0)
        )
        notes = "\n".join(outcome.notes())
        assert "FAILED" in notes
        assert "database@2" in notes
        assert "ChaosError" in notes


class TestCrashedWorkers:
    def test_killed_worker_is_retried_in_a_fresh_pool(self, tmp_path, chaos_spec):
        chaos_spec([{"match": "database", "mode": "crash", "times": 1}])
        tasks = [fast_task("database"), fast_task("array-insert")]
        outcome = run_sweep(tasks, settings=settings_for(tmp_path, jobs=2))
        assert outcome.complete
        assert all(r.ok for r in outcome)
        assert outcome.stats.retried >= 1

    def test_persistent_crasher_fails_alone(self, tmp_path, chaos_spec):
        chaos_spec([{"match": "database", "mode": "crash", "times": 99}])
        tasks = [fast_task("database"), fast_task("array-insert")]
        outcome = run_sweep(
            tasks, settings=settings_for(tmp_path, jobs=2, retries=1)
        )
        assert not outcome[0].ok
        assert "died" in outcome[0].error
        assert outcome[1].ok  # the innocent bystander still completes

    def test_crash_recovered_values_match_a_clean_run(self, tmp_path, chaos_spec):
        clean = run_sweep(
            [fast_task()], settings=settings_for(tmp_path, use_cache=False)
        )
        chaos_spec([{"match": "database", "mode": "crash", "times": 1}])
        chaotic = run_sweep(
            [fast_task(), fast_task("array-insert")],
            settings=settings_for(tmp_path, jobs=2, use_cache=False),
        )
        assert chaotic[0].values == clean[0].values  # bit-for-bit reproducible


class TestHungWorkers:
    def test_hang_is_preempted_by_the_task_timeout(self, tmp_path, chaos_spec):
        chaos_spec(
            [{"match": "database", "mode": "hang", "times": 1, "hang_s": 300.0}]
        )
        tasks = [fast_task("database"), fast_task("array-insert")]
        outcome = run_sweep(
            tasks, settings=settings_for(tmp_path, jobs=2, task_timeout_s=3.0)
        )
        assert outcome.complete  # retry after the timeout succeeded
        assert outcome.stats.retried >= 1

    def test_persistent_hang_fails_with_timeout_error(self, tmp_path, chaos_spec):
        chaos_spec(
            [{"match": "database", "mode": "hang", "times": 99, "hang_s": 300.0}]
        )
        outcome = run_sweep(
            [fast_task("database"), fast_task("array-insert")],
            settings=settings_for(
                tmp_path, jobs=2, task_timeout_s=1.0, retries=1
            ),
        )
        assert not outcome[0].ok
        assert "timed out after 1s" in outcome[0].error
        assert outcome[1].ok


class TestFailedResultsAndCache:
    def test_failed_results_are_never_cached(self, tmp_path, chaos_spec):
        chaos_spec([{"match": "database", "mode": "raise", "times": 99}])
        settings = settings_for(tmp_path, retries=0)
        run_sweep([fast_task()], settings=settings)
        assert ResultCache(settings.resolve_cache_dir()).entries() == []

    def test_store_refuses_failed_results(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.store(
            TaskResult(task=fast_task(), values={}, wall_s=0.0, error="boom")
        )
        assert cache.entries() == []

    def test_recovered_task_is_cached_normally(self, tmp_path, chaos_spec):
        chaos_spec([{"match": "database", "mode": "raise", "times": 1}])
        settings = settings_for(tmp_path)
        run_sweep([fast_task()], settings=settings)
        # One entry per leg: conventional and RADram.
        assert len(ResultCache(settings.resolve_cache_dir()).entries()) == 2
        warm = run_sweep([fast_task()], settings=settings)
        assert warm.stats.hits == 1


class TestAtomicStore:
    def test_tmp_files_are_invisible_to_entries_and_load(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = fast_task()
        key = task.key()
        final = cache.path_for(key)
        final.parent.mkdir(parents=True)
        # A writer died between write and rename: only the tmp remains.
        final.with_suffix(".tmp.12345").write_text('{"values": {"speedup"')
        assert cache.entries() == []
        assert cache.load(task) is None

    def test_writer_killed_mid_store_leaves_no_entry(self, tmp_path):
        """SIGKILL a real writer between fsync and rename."""
        cache_dir = tmp_path / "cache"
        script = textwrap.dedent(
            """
            import os, signal
            from repro.experiments.harness import ResultCache, TaskResult, speedup_task

            # Die at the fsync - after the payload is fully written to the
            # tmp file but before os.replace publishes it.
            os.fsync = lambda fd: os.kill(os.getpid(), signal.SIGKILL)
            cache = ResultCache({cache_dir!r})
            task = speedup_task("database", 2.0, page_bytes=65536)
            cache.store(TaskResult(task=task, values={{"speedup": 1.5}}, wall_s=0.1))
            raise SystemExit("store should have died mid-write")
            """
        ).format(cache_dir=str(cache_dir))
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd="/root/repo", env=env
        )
        assert proc.returncode == -signal.SIGKILL
        cache = ResultCache(cache_dir)
        task = speedup_task("database", 2.0, page_bytes=65536)
        assert cache.entries() == []  # no torn entry visible
        assert cache.load(task) is None
        # The same slot still works for a healthy writer afterwards.
        cache.store(TaskResult(task=task, values={"speedup": 1.5}, wall_s=0.1))
        assert cache.load(task).values == {"speedup": 1.5}

    def test_committed_entry_is_complete_json(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = fast_task()
        cache.store(TaskResult(task=task, values={"speedup": 2.0}, wall_s=0.1))
        (entry,) = cache.entries()
        payload = json.loads(entry.read_text())  # parses: not torn
        assert payload["values"] == {"speedup": 2.0}
        assert payload["key"] == task.key()


class TestChaosReproducibility:
    """Acceptance: a seeded chaos sweep completes, reports, reproduces."""

    def test_mixed_chaos_sweep_is_bit_for_bit_reproducible(
        self, tmp_path, chaos_spec
    ):
        from repro.faults.models import FaultConfig
        from repro.radram.config import RADramConfig

        rc = RADramConfig.reference().with_faults(
            FaultConfig(seed=7, bit_flip_rate=0.3, hard_fault_rate=0.2)
        )
        tasks = [
            faults_task("array-insert", 4.0, radram_config=rc, page_bytes=PAGE),
            fast_task("database"),
            fast_task("median-kernel"),
        ]
        clean = run_sweep(
            tasks, settings=settings_for(tmp_path / "a", use_cache=False)
        )
        chaos_spec(
            [
                {"match": "array-insert", "mode": "crash", "times": 1},
                {"match": "database", "mode": "hang", "times": 1, "hang_s": 300.0},
                {"match": "median-kernel", "mode": "raise", "times": 1},
            ]
        )
        chaotic = run_sweep(
            tasks,
            settings=settings_for(
                tmp_path / "b", jobs=3, use_cache=False, task_timeout_s=5.0
            ),
        )
        assert chaotic.complete
        assert chaotic.stats.retried >= 3
        for c, k in zip(clean, chaotic):
            assert c.values == k.values  # injected failures never skew results
        notes = "\n".join(chaotic.notes())
        assert "retried" in notes
