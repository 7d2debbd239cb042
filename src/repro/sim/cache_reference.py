"""Scalar reference model for the cache hierarchy.

This is the original per-line cache timing model (one Python call per
line, ``list``-based LRU bookkeeping), retained verbatim — plus the
writeback-install fix — as the *oracle* for the vectorized engine in
:mod:`repro.sim.cache`.  The differential test suite drives both models
with identical access streams and demands bit-identical hit/miss/
writeback decisions, latencies, and residency state.

Semantics (shared contract with the vectorized engine)
------------------------------------------------------
* Set-associative, write-back, write-allocate, exact LRU.
* A demand miss fills from the next level (as a read), then — if the
  set is full — evicts the LRU victim.  A dirty victim is *posted* to
  the next level: the processor is charged only the next level's hit
  time (or the DRAM line-write bus time at the last level), but the
  victim line **is installed dirty** in the next level, where it may
  cascade further evictions off the critical path.
* Posted installs allocate without fetching (the upper level holds the
  whole line) and never count as demand hits/misses; cascaded dirty
  evictions do count in the evicting level's ``writebacks``.

Keep this module boring: it is developed for obviousness, not speed,
and every behavioural change here must be mirrored in ``cache.py`` (the
differential suite enforces that).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.sim.config import CacheConfig
from repro.sim.dram import DRAM


class CacheStats:
    """Hit/miss/writeback counters for one cache level."""

    __slots__ = ("hits", "misses", "writebacks")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writebacks = 0


class ScalarCache:
    """One set-associative cache level (scalar reference model).

    ``next_level`` is either another :class:`ScalarCache` or ``None``,
    in which case ``dram`` must be provided and services misses.
    """

    def __init__(
        self,
        name: str,
        config: CacheConfig,
        next_level: Optional["ScalarCache"] = None,
        dram: Optional[DRAM] = None,
    ) -> None:
        if next_level is None and dram is None:
            raise ValueError(f"cache {name!r} needs a next level or DRAM")
        self.name = name
        self.config = config
        self.next_level = next_level
        self.dram = dram
        self.stats = CacheStats()
        n_sets = config.n_sets
        # Per set: list of tags in LRU order (index 0 = most recent) and
        # a parallel list of dirty bits.
        self._tags: List[List[int]] = [[] for _ in range(n_sets)]
        self._dirty: List[List[bool]] = [[] for _ in range(n_sets)]
        self._n_sets = n_sets

    def line_of(self, byte_addr: int) -> int:
        """Line address containing ``byte_addr``."""
        return byte_addr // self.config.line_bytes

    def access_line(self, line_addr: int, write: bool) -> float:
        """Access one line; returns latency in ns (includes lower levels)."""
        set_idx = line_addr % self._n_sets
        tag = line_addr // self._n_sets
        tags = self._tags[set_idx]
        dirty = self._dirty[set_idx]
        latency = self.config.hit_ns

        try:
            pos = tags.index(tag)
        except ValueError:
            pos = -1

        if pos >= 0:
            self.stats.hits += 1
            # Move to MRU position.
            if pos != 0:
                tags.insert(0, tags.pop(pos))
                dirty.insert(0, dirty.pop(pos))
            if write:
                dirty[0] = True
            return latency

        self.stats.misses += 1
        # Fill from below.
        if self.next_level is not None:
            latency += self.next_level.access_line(line_addr, write=False)
        else:
            assert self.dram is not None
            latency += self.dram.read_line(self.config.line_bytes)

        # Evict LRU if the set is full.
        if len(tags) >= self.config.assoc:
            evicted_dirty = dirty.pop()
            evicted_tag = tags.pop()
            if evicted_dirty:
                self.stats.writebacks += 1
                latency += self._writeback(evicted_tag * self._n_sets + set_idx)
        tags.insert(0, tag)
        dirty.insert(0, write)
        return latency

    def _writeback(self, victim_line: int) -> float:
        """Post a dirty victim to the level below; returns the posted cost.

        The victim is *installed* (dirty) in the next level so its data
        stays architecturally visible there.  Writebacks are posted, so
        only the next level's hit time (or the DRAM line-write bus
        time) lands on the critical path — deeper traffic cascades off
        it.
        """
        if self.next_level is not None:
            self.next_level.install_line(victim_line)
            return self.next_level.config.hit_ns
        assert self.dram is not None
        return self.dram.write_line(self.config.line_bytes)

    def install_line(self, line_addr: int) -> None:
        """Accept a posted dirty victim from the level above.

        Allocates without fetching (the upper level held the full
        line); never counts as a demand hit/miss.  A cascaded dirty
        eviction counts in this level's ``writebacks`` and its traffic
        is accounted, but no latency is charged (off critical path).
        """
        set_idx = line_addr % self._n_sets
        tag = line_addr // self._n_sets
        tags = self._tags[set_idx]
        dirty = self._dirty[set_idx]

        try:
            pos = tags.index(tag)
        except ValueError:
            pos = -1

        if pos >= 0:
            if pos != 0:
                tags.insert(0, tags.pop(pos))
                dirty.insert(0, dirty.pop(pos))
            dirty[0] = True
            return

        if len(tags) >= self.config.assoc:
            evicted_dirty = dirty.pop()
            evicted_tag = tags.pop()
            if evicted_dirty:
                self.stats.writebacks += 1
                self._writeback(evicted_tag * self._n_sets + set_idx)
        tags.insert(0, tag)
        dirty.insert(0, True)

    def access_lines(self, line_addrs: Iterable[int], write: bool) -> float:
        """Access a sequence of lines; returns total latency in ns."""
        total = 0.0
        for line in line_addrs:
            total += self.access_line(int(line), write)
        return total

    def flush_range(self, lo_line: int, hi_line: int) -> float:
        """Write back and drop all lines in ``[lo_line, hi_line]``.

        Sets are swept in ascending order, each from its LRU end.  A
        dirty line is posted to the level below (counted in this
        level's ``writebacks``, posted cost returned); a clean one is
        dropped.  The flush then cascades to the next level.
        """
        total = 0.0
        for set_idx in range(self._n_sets):
            tags = self._tags[set_idx]
            dirty = self._dirty[set_idx]
            for pos in range(len(tags) - 1, -1, -1):
                line = tags[pos] * self._n_sets + set_idx
                if lo_line <= line <= hi_line:
                    tags.pop(pos)
                    if dirty.pop(pos):
                        self.stats.writebacks += 1
                        total += self._writeback(line)
        if self.next_level is not None:
            total += self.next_level.flush_range(lo_line, hi_line)
        return total

    def contains(self, line_addr: int) -> bool:
        """True if ``line_addr`` is currently resident (no state change)."""
        set_idx = line_addr % self._n_sets
        tag = line_addr // self._n_sets
        return tag in self._tags[set_idx]

    def lru_contents(self, set_idx: int) -> List[Tuple[int, bool]]:
        """``[(line_addr, dirty), ...]`` of one set, MRU first."""
        return [
            (tag * self._n_sets + set_idx, bool(d))
            for tag, d in zip(self._tags[set_idx], self._dirty[set_idx])
        ]

    def invalidate_all(self) -> None:
        """Drop all lines (without writeback) — used between runs."""
        for tags in self._tags:
            tags.clear()
        for dirty in self._dirty:
            dirty.clear()

    def resident_lines(self) -> int:
        """Number of lines currently cached."""
        return sum(len(tags) for tags in self._tags)

    def reset_stats(self) -> None:
        self.stats.reset()


def build_scalar_hierarchy(
    l1d_cfg: CacheConfig,
    l2_cfg: CacheConfig,
    dram: DRAM,
    l1i_cfg: Optional[CacheConfig] = None,
) -> tuple:
    """Scalar-model twin of :func:`repro.sim.cache.build_hierarchy`."""
    l2 = ScalarCache("L2", l2_cfg, dram=dram)
    l1d = ScalarCache("L1D", l1d_cfg, next_level=l2)
    l1i = (
        ScalarCache("L1I", l1i_cfg, next_level=l2) if l1i_cfg is not None else None
    )
    return l1d, l1i, l2
