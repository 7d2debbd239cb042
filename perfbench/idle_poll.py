"""Keep the CPUs from halting while a serve workload runs.

On a virtual machine an idle vCPU halts, and waking it again goes
through the hypervisor; on a shared host that wake-up can wait behind
other tenants, which the guest sees as steal time.  A serve request is
a chain of wake-ups across the client threads, the server's event loop
and its worker thread, so without this its latency followed the host's
steal (20-40% steal doubled a segment's time) rather than the program.

``polling()`` starts one busy-loop process per CPU under ``SCHED_IDLE``
(``nice 19`` where that policy is refused): such a process runs only
when nothing else wants the CPU and yields to any thread that wakes, so
the vCPUs stay awake without taking time from the program.  Each poller
exits by itself if the benchmark dies without stopping it.

Usage as a script (what ``polling()`` runs): ``idle_poll.py PARENT_PID``.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
from typing import Iterator, List


@contextlib.contextmanager
def polling() -> Iterator[None]:
    """Run one idle poller per CPU for the duration of the block."""
    pollers: List[subprocess.Popen] = []
    try:
        for _ in range(os.cpu_count() or 1):
            pollers.append(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), str(os.getpid())],
                stdin=subprocess.DEVNULL,
            ))
        yield
    finally:
        for poller in pollers:
            poller.kill()
        for poller in pollers:
            poller.wait()


def main() -> int:
    parent = int(sys.argv[1])
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)
    while os.getppid() == parent:
        for _ in range(100_000):
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
