"""Traced ``repro serve``: install the layer wrappers, then serve.

Usage: ``serve_launcher.py SPANS_FILE [serve arguments...]``.  Calls
``repro.serve.server.main`` with the remaining arguments and, once the
server has drained (SIGTERM), writes the spans and totals to
``SPANS_FILE``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main() -> int:
    from perfbench.tracer import Tracer, install
    from repro.serve import server

    out = Path(sys.argv[1])
    tracer = Tracer()
    install(tracer, serve=True)
    code = server.main(sys.argv[2:])
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
