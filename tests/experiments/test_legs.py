"""Legs: the unit the sweep harness keys, caches, folds and runs.

A ``speedup``/``faults``/``constants`` task is a pure function of one
conventional and one RADram simulation.  These tests pin down which
simulations a sweep shares, that combining legs reproduces the direct
``run_conventional``/``run_radram`` calls exactly, and when legs run
in a worker pool.
"""

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.apps.base import PHASE_ACTIVATION, PHASE_POST
from repro.apps.registry import get_app
from repro.experiments.harness import (
    MODE_CONSTANTS,
    MODE_FAULTS,
    HarnessSettings,
    ResultCache,
    constants_task,
    execute_task,
    faults_task,
    run_sweep,
    speedup_task,
)
from repro.experiments.runner import run_conventional, run_radram
from repro.faults.models import FaultConfig
from repro.radram.config import RADramConfig
from repro.serve.scheduler import TaskScheduler

PAGE = 64 * 1024  # small pages keep the simulations fast


def divisor_task(divisor, app="database", pages=2.0):
    config = RADramConfig.reference().with_logic_divisor(divisor)
    return speedup_task(app, pages, page_bytes=PAGE, radram_config=config)


def settings_for(tmp_path, **kw):
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    return HarnessSettings(**kw)


def cached_modes(settings):
    """The mode of every cache entry's task, sorted."""
    cache = ResultCache(settings.resolve_cache_dir())
    return sorted(json.loads(p.read_text())["task"]["mode"] for p in cache.entries())


class TestSharedLegs:
    def test_divisor_sweep_simulates_one_conventional_leg(self, tmp_path):
        settings = settings_for(tmp_path)
        divisors = (2, 4, 10, 20)
        outcome = run_sweep([divisor_task(d) for d in divisors], settings=settings)
        assert outcome.complete
        assert outcome.stats.misses == len(divisors)
        assert outcome.stats.legs == outcome.stats.leg_misses == 1 + len(divisors)
        assert cached_modes(settings) == ["conventional"] + ["radram"] * len(divisors)

    def test_capped_sizes_share_one_conventional_leg(self, tmp_path):
        settings = settings_for(tmp_path)
        tasks = [speedup_task("database", p, page_bytes=PAGE) for p in (16, 32)]
        conventional = {task.legs()[0] for task in tasks}
        assert len(conventional) == 1
        assert next(iter(conventional)).n_pages == 8.0  # the default cap
        outcome = run_sweep(tasks, settings=settings)
        assert outcome.stats.leg_misses == 3
        assert cached_modes(settings) == ["conventional", "radram", "radram"]
        # The shared 8-page run is scaled to each task's size.
        ratio = outcome[1]["conventional_ns"] / outcome[0]["conventional_ns"]
        assert ratio == pytest.approx(2.0)

    def test_later_sweep_reuses_a_cached_leg(self, tmp_path):
        settings = settings_for(tmp_path)
        run_sweep([divisor_task(10)], settings=settings)
        outcome = run_sweep([divisor_task(4)], settings=settings)
        assert outcome.stats.misses == 1 and outcome.stats.hits == 0
        assert (outcome.stats.leg_hits, outcome.stats.leg_misses) == (1, 1)
        assert not outcome[0].cached

    def test_conventional_leg_holds_no_radram_state(self):
        faults = RADramConfig.reference().with_faults(
            FaultConfig(seed=3, bit_flip_rate=0.1)
        )
        legs = [
            divisor_task(2).legs()[0],
            divisor_task(50).legs()[0],
            faults_task("database", 2.0, radram_config=faults, page_bytes=PAGE).legs()[0],
        ]
        assert len({leg.key() for leg in legs}) == 1
        assert legs[0].radram_config is None and legs[0].cap_pages is None

    def test_integral_and_float_sizes_key_alike(self):
        assert speedup_task("database", 8).key() == speedup_task("database", 8.0).key()
        capped, _ = speedup_task("database", 32).legs()
        at_cap, _ = speedup_task("database", 8).legs()
        assert capped.key() == at_cap.key()


def reference_values(task):
    """The values of ``task`` from direct runner calls (the reference)."""
    app = get_app(task.app_name)
    common = dict(
        page_bytes=task.page_bytes,
        machine_config=task.machine_config,
        seed=task.seed,
        params=task.params_dict(),
    )
    conv = run_conventional(app, task.n_pages, cap_pages=task.cap_pages, **common)
    rad = run_radram(app, task.n_pages, radram_config=task.radram_config, **common)
    if task.mode == MODE_CONSTANTS:
        activations = max(1, rad.stats.activations)
        return {
            "t_a_us": rad.stats.phase_mean_ns(PHASE_ACTIVATION) / 1e3,
            "t_p_us": rad.stats.phase_mean_ns(PHASE_POST, exclude_wait=True) / 1e3,
            "t_c_us": rad.mean_page_busy_ns / 1e3,
            "t_conv_per_activation_us": conv.total_ns / activations / 1e3,
            "activations": float(rad.stats.activations),
        }
    values = {
        "conventional_ns": conv.total_ns,
        "radram_ns": rad.total_ns,
        "speedup": conv.total_ns / rad.total_ns,
        "stall_fraction": rad.stall_fraction,
    }
    if task.mode == MODE_FAULTS:
        values.update({f"faults.{k}": v for k, v in rad.fault_counters.items()})
    return values


FAULTY = RADramConfig.reference().with_faults(
    FaultConfig(seed=7, bit_flip_rate=0.3, hard_fault_rate=0.2)
)

REFERENCE_TASKS = {
    "speedup": speedup_task("array-insert", 2.0, page_bytes=PAGE),
    "speedup-capped": speedup_task("database", 12.0, page_bytes=PAGE),
    "speedup-params": speedup_task(
        "database",
        2.0,
        page_bytes=PAGE,
        params={"selectivity": 0.5},
        generator="database/v1",
    ),
    "faults": faults_task("array-insert", 4.0, radram_config=FAULTY, page_bytes=PAGE),
    "constants": constants_task("database", 12.0, page_bytes=PAGE),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_TASKS))
def test_execute_task_matches_direct_runner_calls(name):
    task = REFERENCE_TASKS[name]
    values = execute_task(task)
    expected = reference_values(task)
    assert list(values) == list(expected)
    assert values == expected  # bit-identical floats


@pytest.mark.parametrize("name", sorted(REFERENCE_TASKS))
def test_sweep_through_the_cache_matches_execute_task(tmp_path, name):
    task = REFERENCE_TASKS[name]
    settings = settings_for(tmp_path)
    cold = run_sweep([task], settings=settings)
    warm = run_sweep([task], settings=settings)
    assert warm[0].cached
    assert cold[0].values == warm[0].values == execute_task(task)


class TestPooling:
    def test_pooled_results_equal_serial_results(self):
        tasks = [divisor_task(d) for d in (2, 10)] + [
            speedup_task("database", p, page_bytes=PAGE) for p in (16, 32)
        ]
        serial = run_sweep(tasks, settings=HarnessSettings(jobs=1, use_cache=False))
        pooled = run_sweep(tasks, settings=HarnessSettings(jobs=2, use_cache=False))
        assert [r.values for r in pooled] == [r.values for r in serial]

    def test_one_task_sweep_stays_in_process(self, tmp_path):
        def no_pool(**_kwargs):
            raise AssertionError("a one-task sweep must not start a pool")

        settings = settings_for(tmp_path, jobs=2)
        outcome = TaskScheduler(settings, pool_factory=no_pool).run_sweep(
            [divisor_task(10)] * 2
        )
        assert outcome.complete and outcome.stats.leg_misses == 2

    def test_sweep_with_one_uncached_task_stays_in_process(self, tmp_path):
        def no_pool(**_kwargs):
            raise AssertionError("one task's legs must not start a pool")

        settings = settings_for(tmp_path, jobs=2)
        cache = ResultCache(settings.resolve_cache_dir())
        TaskScheduler(settings, cache=cache).run_sweep([divisor_task(10)])
        outcome = TaskScheduler(settings, cache=cache, pool_factory=no_pool).run_sweep(
            [divisor_task(10), divisor_task(4, pages=4.0)]
        )
        assert outcome.complete and outcome.stats.leg_misses == 2

    def test_two_task_sweep_pools_its_legs(self, tmp_path):
        pools = []

        def counting_pool(**kwargs):
            pools.append(kwargs)
            return ProcessPoolExecutor(**kwargs)

        settings = settings_for(tmp_path, jobs=2, use_cache=False)
        outcome = TaskScheduler(settings, pool_factory=counting_pool).run_sweep(
            [divisor_task(2), divisor_task(10)]
        )
        assert outcome.complete and outcome.stats.leg_misses == 3
        assert pools == [{"max_workers": 2}]
