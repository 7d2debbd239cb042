"""One cold serial ``report --quick`` in a fresh process.

Run by ``run.py`` with the program on ``PYTHONPATH`` and an empty
``REPRO_CACHE_DIR``.  Prints ``ready <time.monotonic()>`` once the
report modules are imported (the end of set-up), runs the report
in-process with its output captured, and writes a JSON result to
``--out``: report wall time and its ``time.monotonic()`` start and end,
peak RSS, exit code and the digest of the
rendered report with its volatile ``harness:`` and ``[report complete``
lines removed.

``--setup-only`` exits after ``ready``.  ``--trace FILE`` installs the
layer wrappers first and writes their spans and totals to ``FILE``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def report_digest(text: str) -> str:
    kept = [
        line
        for line in text.splitlines()
        if "harness:" not in line and not line.startswith("[report complete")
    ]
    return hashlib.sha256(("\n".join(kept) + "\n").encode("utf-8")).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from repro.experiments import report

    tracer = None
    if args.trace is not None:
        from perfbench.tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    print("ready", time.monotonic(), flush=True)
    if args.setup_only:
        return 0

    buffer = io.StringIO()
    start = time.monotonic()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = report.main(["--quick"])
    wall_s = time.perf_counter() - t0
    end = time.monotonic()
    text = buffer.getvalue()
    result = {
        "code": code,
        "wall_s": wall_s,
        "start": start,
        "end": end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": report_digest(text),
        "lines": len(text.splitlines()),
    }
    if tracer is not None:
        tracer.dump(args.trace, {"wall_s": wall_s})
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
