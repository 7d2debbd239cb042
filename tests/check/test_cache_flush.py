"""``FlushRange`` and the cache-side primitives behind the sanitizer."""

import numpy as np
import pytest

from repro.sim import ops as O
from repro.sim.bus import Bus
from repro.sim.cache import Cache, build_hierarchy
from repro.sim.config import BusConfig, CacheConfig, DRAMConfig
from repro.sim.dram import DRAM
from repro.sim.machine import Machine


def make_dram(miss_ns=50.0):
    return DRAM(DRAMConfig(miss_latency_ns=miss_ns), Bus(BusConfig()))


def small_cache(size=1024, assoc=2, line=32, hit=1.0, dram=None):
    dram = dram or make_dram()
    return Cache(
        "L1",
        CacheConfig(size_bytes=size, assoc=assoc, line_bytes=line, hit_ns=hit),
        dram=dram,
    )


class TestDirtyLinesIn:
    def test_reports_only_dirty_lines_in_range(self):
        c = small_cache()
        c.access_line(0, write=True)
        c.access_line(1, write=False)
        c.access_line(2, write=True)
        c.access_line(40, write=True)  # outside the queried range
        assert c.dirty_lines_in(0, 10) == [0, 2]

    def test_no_state_change(self):
        c = small_cache()
        c.access_line(3, write=True)
        before = (c.stats.hits, c.stats.misses, c.stats.writebacks)
        c.dirty_lines_in(0, 100)
        assert (c.stats.hits, c.stats.misses, c.stats.writebacks) == before
        assert c.contains(3)

    def test_works_in_the_vectorized_regime(self):
        c = small_cache(size=8192)
        # A batch wider than _SMALL_BATCH leaves the cache in its
        # matrix representation.
        n = c._SMALL_BATCH + 32
        c.access_lines(np.arange(0, n, dtype=np.int64), write=True)
        assert c._scalar_sets is None
        assert c.dirty_lines_in(0, n - 1) == list(range(n))
        assert c.dirty_lines_in(4, 7) == [4, 5, 6, 7]

    def test_empty_cache_reports_nothing(self):
        c = small_cache()
        assert c.dirty_lines_in(0, 1000) == []


class TestFlushRange:
    def test_flush_writes_back_and_invalidates(self):
        c = small_cache()
        c.access_line(0, write=True)
        c.access_line(1, write=True)
        cost = c.flush_range(0, 1)
        assert cost > 0.0
        assert c.stats.writebacks == 2
        assert not c.contains(0) and not c.contains(1)
        assert c.dirty_lines_in(0, 100) == []

    def test_clean_lines_invalidate_for_free(self):
        c = small_cache()
        c.access_line(0, write=False)
        assert c.flush_range(0, 0) == 0.0
        assert c.stats.writebacks == 0
        assert not c.contains(0)

    def test_lines_outside_the_range_survive(self):
        c = small_cache()
        c.access_line(0, write=True)
        c.access_line(9, write=True)
        c.flush_range(0, 4)
        assert c.contains(9)
        assert c.dirty_lines_in(0, 100) == [9]

    def test_flush_cascades_into_l2(self):
        dram = make_dram()
        l1d, _, l2 = build_hierarchy(
            CacheConfig(size_bytes=64, assoc=1, line_bytes=32, hit_ns=1.0),
            CacheConfig(size_bytes=1024, assoc=4, line_bytes=32, hit_ns=6.0),
            dram,
        )
        # Dirty line 0 out of L1 into L2, leaving a stale dirty copy
        # below the L1; the flush must sweep both levels.
        l1d.access_line(0, write=True)
        l1d.access_line(2, write=False)  # evicts dirty 0 into L2
        assert l2.dirty_lines_in(0, 0) == [0]
        l1d.flush_range(0, 0)
        assert l2.dirty_lines_in(0, 0) == []

    def test_flush_after_vectorized_batch(self):
        c = small_cache(size=8192)
        n = c._SMALL_BATCH + 32
        c.access_lines(np.arange(0, n, dtype=np.int64), write=True)
        assert c._scalar_sets is None
        # Narrow span (fewer lines than sets), then a wide one.
        assert n // 2 < c.config.n_sets <= n
        c.flush_range(0, n // 2 - 1)
        assert c._scalar_sets is not None  # flushing runs on the dict regime
        assert c.stats.writebacks == n // 2
        c.flush_range(n // 2, n + c.config.n_sets)
        assert c.dirty_lines_in(0, 10 * n) == []
        assert c.resident_lines() == 0
        assert c.stats.writebacks == n


class TestFlushRangeOp:
    def test_processor_flush_charges_memory_time(self):
        machine = Machine()
        line = machine.l1d.config.line_bytes
        machine.run(iter([O.MemWrite(0, 4 * line), O.FlushRange(0, 4 * line)]))
        assert machine.l1d.stats.writebacks == 4
        assert machine.l1d.dirty_lines_in(0, 100) == []
        assert machine.processor.stats.mem_ns > 0.0

    def test_zero_byte_flush_is_a_noop(self):
        machine = Machine()
        stats = machine.run(iter([O.FlushRange(0, 0)]))
        assert machine.l1d.stats.writebacks == 0
        assert stats.total_ns == 0.0

    def test_flush_is_deterministic_in_both_regimes(self):
        def run(ops):
            m = Machine()
            m.run(iter(ops))
            return m.l1d.stats.writebacks

        line = 32
        ops = [O.MemWrite(0, 8 * line), O.FlushRange(0, 8 * line)]
        assert run(ops) == run(list(ops))
