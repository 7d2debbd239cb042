"""Summary helpers: percentiles, tails, failures and self time."""

import math

import pytest

from perfbench import stats


def test_median_odd_and_even():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_percentile_interpolates_like_numpy():
    values = [float(v) for v in range(1, 11)]
    assert stats.percentile(values, 90.0) == pytest.approx(9.1)
    assert stats.percentile(values, 0.0) == 1.0
    assert stats.percentile(values, 100.0) == 10.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(99) == 50.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10000) == 99.9


def test_summarize_reports_sample_count_and_tail():
    summary = stats.summarize([float(v) for v in range(100)])
    assert summary["n"] == 100
    assert summary["median"] == pytest.approx(49.5)
    assert summary["tail_p"] == 90.0
    assert summary["tail"] == pytest.approx(89.1)
    assert "tail" not in stats.summarize([1.0] * 10)


def test_failed_requests_miss_every_limit():
    ok = [10.0] * 95
    samples = stats.latency_samples(ok, failed=5)
    assert len(samples) == 100
    assert stats.percentile(samples, 50.0) == 10.0
    assert stats.percentile(samples, 90.0) == 10.0
    samples = stats.latency_samples(ok[:85], failed=15)
    assert math.isinf(stats.percentile(samples, 90.0))


def test_self_time_subtracts_child_coverage():
    spans = [
        (1, 0.0, 10.0, None),
        (2, 1.0, 4.0, 1),
        (3, 3.0, 6.0, 1),  # overlaps span 2: covered once
        (4, 8.0, 12.0, 1),  # runs past the parent: clipped
        (5, 1.5, 2.0, 2),
    ]
    self_s = stats.self_times(spans)
    assert self_s[1] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 8.0))
    assert self_s[2] == pytest.approx(3.0 - 0.5)
    assert self_s[3] == pytest.approx(3.0)
    assert self_s[5] == pytest.approx(0.5)
    assert self_s[4] == pytest.approx(4.0)
