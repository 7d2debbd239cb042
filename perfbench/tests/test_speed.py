"""Host-speed scaling: the speed factor and how timings are scaled."""

import pytest

from perfbench import run, speed


def _samples(took_by_second, steal_by_second=None):
    """One pass per 0.1 s, each taking the given time, second by second.

    Each second holds 100 ticks, of which ``steal_by_second`` were stolen.
    """
    samples = []
    steal = total = 0
    for second, took in enumerate(took_by_second):
        for tenth in range(10):
            steal += (steal_by_second or [0] * len(took_by_second))[second] // 10
            total += 10
            samples.append((second + (tenth + 1) / 10.0, took, steal, total))
    return samples


def test_nominal_passes_give_factor_one():
    samples = _samples([speed.NOMINAL_S] * 3)
    assert speed.mean_speed(samples, 0.0, 3.0) == pytest.approx(1.0)


def test_factor_is_time_average_of_speed():
    # One second at nominal speed, one second at half speed.
    samples = _samples([speed.NOMINAL_S, 2 * speed.NOMINAL_S])
    assert speed.mean_speed(samples, 0.0, 2.0) == pytest.approx(0.75)
    assert speed.mean_speed(samples, 1.05, 2.0) == pytest.approx(0.5)


def test_short_interval_takes_nearest_passes():
    samples = _samples([speed.NOMINAL_S, 2 * speed.NOMINAL_S])
    # 0.2 s holds two passes; the ten nearest its middle all lie in the
    # slow second.
    assert speed.mean_speed(samples, 1.45, 1.65) == pytest.approx(0.5)


def test_steal_share_is_taken_out():
    # Nominal kernel speed, but a fifth of the CPU time went to other
    # tenants: a CPU-bound unit took 1.25x as long as it would have.
    samples = _samples([speed.NOMINAL_S] * 3, [20] * 3)
    assert speed.mean_speed(samples, 0.0, 3.0) == pytest.approx(0.8)


def test_too_few_passes_is_an_error():
    with pytest.raises(ValueError):
        speed.mean_speed(_samples([speed.NOMINAL_S])[:5], 0.0, 1.0)


class _FixedSampler:
    def __init__(self, factor):
        self.value = factor

    def factor(self, t0, t1):
        return self.value


def test_scale_multiplies_timings_and_keeps_raw():
    result = run.Run(seed=1)
    result.timed("wall_s", 10.0, 0.0, 10.0)
    result.sample("peak_rss_mb", 100.0)
    result.scale(_FixedSampler(0.8))
    assert result.samples["wall_s"] == [pytest.approx(8.0)]
    assert result.samples["raw.wall_s"] == [10.0]
    assert result.samples["speed.wall_s"] == [0.8]
    assert result.samples["peak_rss_mb"] == [100.0]


def test_sampler_reports_passes_and_stops():
    with speed.Sampler() as sampler:
        assert len(sampler.samples) >= 1
        proc = sampler._proc
    assert proc is not None and proc.poll() is not None
