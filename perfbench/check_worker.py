"""Reference values for the serve output check.

Reads a JSON list of ``{"app", "pages", "seed"}`` specs on stdin and
writes the JSON list of their ``harness.execute_task`` values (of the
``speedup_task`` each spec names) to stdout.
"""

from __future__ import annotations

import json
import sys


def main() -> int:
    from repro.experiments import harness

    specs = json.load(sys.stdin)
    values = [
        harness.execute_task(harness.speedup_task(s["app"], float(s["pages"]), seed=int(s["seed"])))
        for s in specs
    ]
    json.dump(values, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
