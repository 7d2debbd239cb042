"""Host speed: a fixed reference kernel, sampled while the workload runs.

The reference host is a VM shared with other tenants, and each vCPU's
speed moves by itself, in phases of seconds to minutes and by up to
1.7x, with next to no steal time (README.md).  A run's raw timings
follow the host as much as the program.  So while a workload runs, a
sampler process (``Sampler``) wakes every ``PERIOD_S``, times one pass
of ``kernel()`` and goes back to sleep; a timed unit is then scaled by
the host's mean speed over the unit's own interval (``factor``), which
gives the time the unit would have taken on a host that runs the kernel
in ``NOMINAL_S``.  A change to the program moves the scaled time; a slow
phase of the host slows the kernel with it and cancels out.

Pass times are CPU times, and the kernel counts the time the hypervisor
gave to other tenants (steal) to no task, so the factor also takes the
steal share of the sampled CPUs over the interval (``/proc/stat``) out:
it is the mean kernel speed times ``1 - steal share``.

The kernel is none of the program's code, only work of the same kinds:
small NumPy array operations (sort, compare, select, cumulative sum)
and an interpreted loop of calls, attribute and dict access.  That mix
matters: on the reference host a pure interpreter loop slowed in other
phases than the simulator and widened the spread of report times, while
this mix narrowed it (README.md).

A sampler pinned to the CPU of a single-threaded workload preempts it
for one pass at a time and so times the very CPU the workload runs on;
unpinned beside a workload that keeps every CPU busy, its passes land
on each CPU in turn.

Usage as a script (what ``Sampler`` runs): ``speed.py PARENT_PID
PERIOD_S [CPU ...]``; it prints ``<time.monotonic()> <pass CPU seconds>
<steal ticks> <all ticks>`` per pass, the ticks summed over the given
CPUs (all CPUs when none is given), and exits when its parent is gone.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from typing import Iterable, List, Optional, Tuple

#: Kernel pass time (seconds) that scaled timings are expressed against;
#: about a sampled pass on the reference host in a calm phase.
NOMINAL_S = 0.0041

#: Seconds between two sampled kernel passes.
PERIOD_S = 0.1

#: Fewest passes behind a speed factor.
MIN_SAMPLES = 10

_ADDRS = None


class _Cell:
    __slots__ = ("tag", "hits")

    def __init__(self) -> None:
        self.tag = -1
        self.hits = 0

    def touch(self, tag: int) -> bool:
        if self.tag == tag:
            self.hits += 1
            return True
        self.tag = tag
        return False


def kernel() -> float:
    """One pass of fixed work: array ops over a hashed address stream, then a loop."""
    import numpy as np

    global _ADDRS
    if _ADDRS is None:
        _ADDRS = np.random.default_rng(7).integers(0, 1 << 22, 1 << 14, dtype=np.int64)
    acc = 0.0
    for i in range(4):
        addrs = _ADDRS[i::4]
        order = np.argsort(addrs & 511, kind="stable")
        sets = (addrs & 511)[order]
        first = np.concatenate(([True], sets[1:] != sets[:-1]))
        latency = np.where(((addrs >> 9)[order] & 3) == 0, 100.0, 2.0)
        latency[first] += 10.0
        acc += float(np.cumsum(latency)[-1]) + int(np.nonzero(first)[0].shape[0])

    cells = [_Cell() for _ in range(256)]
    seen = {}
    for i in range(3000):
        addr = (i * 2654435761) & 0xFFFFF
        if cells[(addr >> 4) & 255].touch(addr >> 12):
            acc += 1
        else:
            seen[addr & 4095] = seen.get(addr & 4095, 0) + 1
    return acc + len(seen)


#: One sampled pass: end (``time.monotonic()``), pass CPU seconds, and
#: the cumulative steal and total ticks of the sampled CPUs at its end.
Sample = Tuple[float, float, int, int]


def mean_speed(samples: List[Sample], t0: float, t1: float) -> float:
    """Host speed over ``[t0, t1]`` against nominal, from the passes that best cover it.

    The mean of ``NOMINAL_S / pass time`` over the passes that ended in
    the interval, times one minus the steal share between the first and
    the last of them.  The passes are evenly spaced in time, so their
    mean speed is the time average of the host's speed, which is what
    stretches or shrinks a unit timed over the same interval.  An
    interval holding fewer than ``MIN_SAMPLES`` passes takes the
    ``MIN_SAMPLES`` passes nearest its middle instead.
    """
    inside = [s for s in samples if t0 <= s[0] <= t1]
    if len(inside) < MIN_SAMPLES:
        if len(samples) < MIN_SAMPLES:
            raise ValueError(f"{len(samples)} speed samples, need {MIN_SAMPLES}")
        middle = (t0 + t1) / 2.0
        inside = sorted(sorted(samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES])
    speed = sum(NOMINAL_S / s[1] for s in inside) / len(inside)
    ticks = inside[-1][3] - inside[0][3]
    steal = (inside[-1][2] - inside[0][2]) / ticks if ticks > 0 else 0.0
    return speed * (1.0 - steal)


def cpu_ticks(cpus: Iterable[int] = ()) -> Tuple[int, int]:
    """Cumulative ``(steal, total)`` ticks of ``cpus`` (all CPUs when empty)."""
    wanted = {f"cpu{c}" for c in cpus} or {"cpu"}
    steal = total = 0
    with open("/proc/stat") as fh:
        for line in fh:
            fields = line.split()
            if fields and fields[0] in wanted:
                ticks = [int(v) for v in fields[1:9]]
                steal += ticks[7]
                total += sum(ticks)
    return steal, total


class Sampler:
    """Kernel passes, one every ``PERIOD_S``, in a child process.

    ``cpus`` pins the sampler (``None``: any CPU).
    """

    def __init__(self, cpus: Optional[Iterable[int]] = None) -> None:
        self.samples: List[Sample] = []
        pinned = sorted(cpus) if cpus is not None else []
        self._proc: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(os.getpid()), repr(PERIOD_S), *map(str, pinned)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        if pinned:
            os.sched_setaffinity(self._proc.pid, set(pinned))
        self._first = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        # The first pass ends after the sampler's imports, which then
        # stay out of the timed section.
        if not self._first.wait(60.0):
            self.stop()
            raise RuntimeError("speed sampler did not start")

    def _read(self) -> None:
        assert self._proc is not None and self._proc.stdout is not None
        for line in self._proc.stdout:
            end, took, steal, total = line.split()
            self.samples.append((float(end), float(took), int(steal), int(total)))
            self._first.set()
        self._first.set()

    def factor(self, t0: float, t1: float) -> float:
        """Host speed over ``[t0, t1]`` (``time.monotonic()``) against nominal."""
        return mean_speed(list(self.samples), t0, t1)

    def stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.kill()
        proc.wait()
        self._reader.join(10.0)

    def __enter__(self) -> "Sampler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def main() -> int:
    parent, period_s = int(sys.argv[1]), float(sys.argv[2])
    cpus = [int(c) for c in sys.argv[3:]]
    kernel()
    while os.getppid() == parent:
        time.sleep(period_s)
        # CPU time, not wall time: a pass that shares its CPU with the
        # workload is preempted by it now and then, and the workload's
        # share of the interval must not count as the kernel's.
        t0 = time.thread_time()
        kernel()
        took = time.thread_time() - t0
        steal, total = cpu_ticks(cpus)
        try:
            sys.stdout.write(f"{time.monotonic()!r} {took!r} {steal} {total}\n")
            sys.stdout.flush()
        except (BrokenPipeError, ValueError):
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
