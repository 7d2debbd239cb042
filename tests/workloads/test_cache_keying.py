"""Cache-keying regression: generated workloads can never alias.

The sweep cache is content-addressed; a key collision between a fixed
dataset and a generated one (or between two generator versions) would
silently serve stale results.  ``SweepTask.key()`` must therefore
cover ``workload_params`` and the ``generator`` version tag.
"""

from repro.experiments import harness
from repro.experiments.harness import (
    HarnessSettings,
    SweepTask,
    run_sweep,
    speedup_task,
)
from repro.workloads import FUZZ_PAGE_BYTES, get_generator

PAGE = FUZZ_PAGE_BYTES


def test_params_change_the_key():
    plain = speedup_task("database", 2.0, page_bytes=PAGE)
    generated = speedup_task(
        "database", 2.0, page_bytes=PAGE, params={"selectivity": 0.5}
    )
    assert plain.key() != generated.key()


def test_each_param_value_keys_separately():
    a = speedup_task(
        "database", 2.0, page_bytes=PAGE, params={"selectivity": 0.25}
    )
    b = speedup_task(
        "database", 2.0, page_bytes=PAGE, params={"selectivity": 0.75}
    )
    assert a.key() != b.key()


def test_generator_tag_changes_the_key():
    v1 = speedup_task(
        "database", 2.0, page_bytes=PAGE,
        params={"selectivity": 0.5}, generator="database/v1",
    )
    v2 = speedup_task(
        "database", 2.0, page_bytes=PAGE,
        params={"selectivity": 0.5}, generator="database/v2",
    )
    assert v1.key() != v2.key()


def test_params_normalize_order_insensitively():
    a = SweepTask(
        "database", 2.0, page_bytes=PAGE,
        workload_params={"selectivity": 0.5, "records": 64},
    )
    b = SweepTask(
        "database", 2.0, page_bytes=PAGE,
        workload_params=(("records", 64.0), ("selectivity", 0.5)),
    )
    assert a.workload_params == b.workload_params
    assert a.key() == b.key()
    assert a == b


def test_cache_poisoning_regression(tmp_path):
    """A warm fixed-dataset cache must not satisfy a generated task.

    Historical hazard: before ``workload_params`` joined the key, the
    second sweep below would *hit* and return the fixed dataset's
    numbers for the generated workload.
    """
    settings = HarnessSettings(cache_dir=str(tmp_path / "cache"))
    plain = speedup_task("database", 2.0, page_bytes=PAGE)
    first = run_sweep([plain], settings=settings)
    assert first.stats.misses == 1

    generated = speedup_task(
        "database", 2.0, page_bytes=PAGE,
        params={"selectivity": 0.9}, generator=get_generator("database").tag,
    )
    second = run_sweep([generated], settings=settings)
    assert second.stats.hits == 0 and second.stats.misses == 1

    # Both tasks now own distinct cache entries (no aliasing on disk).
    assert plain.key() != generated.key()
    cache = harness.ResultCache(settings.resolve_cache_dir())
    assert len(cache.entries()) == 4  # two legs per task

    # And both entries now coexist: re-running each hits its own entry.
    warm_plain = run_sweep([plain], settings=settings)
    warm_gen = run_sweep([generated], settings=settings)
    assert warm_plain[0].cached and warm_plain[0].values == first[0].values
    assert warm_gen[0].cached and warm_gen[0].values == second[0].values


def test_generated_task_roundtrips_through_cache(tmp_path):
    settings = HarnessSettings(cache_dir=str(tmp_path / "cache"))
    gen = get_generator("matrix-boeing")
    task = gen.task(
        {"pages": 2.0, "density": 0.5, "skew": 3.0},
        seed=2,
        page_bytes=PAGE,
    )
    cold = run_sweep([task], settings=settings)
    warm = run_sweep([task], settings=settings)
    assert warm[0].cached
    assert warm[0].values == cold[0].values
