"""Seeded request streams for the serve workloads.

A stream is a pure function of its seed: ``items(seed)`` yields the
same endless sequence of request descriptors on every call, and the
server only ever receives requests built from them.  Each item carries
a ``cls`` naming its role in the traffic mix:

``new``
    an ``app`` request for a key no earlier item asked for;
``hit``
    a repeat of an earlier item's key (a cache hit, or a coalesce when
    the earlier job is still running);
``tasks``
    a multi-spec ``tasks`` request of new keys (the process-pool path);
``pair``
    two adjacent items with the same new key, so that request-level
    single-flight coalescing fires when two clients send them together;
``resume``
    re-attach to the job of an earlier item, which the client waits to
    see finished (a journal replay beside journal writes).

The declared shares (``SHARES``) are per item; ``pair`` items come two
at a time.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List

#: Applications the streams draw from.  ``median-total`` is left out:
#: one leg of it costs 0.3-0.6 s against 3-70 ms for every other app,
#: so a handful of draws would decide the latency tail on its own.
APPS = (
    "array-delete",
    "array-find",
    "array-insert",
    "database",
    "dynamic-prog",
    "matrix-boeing",
    "matrix-simplex",
    "median-kernel",
    "mpeg-mmx",
)

#: Problem sizes (pages) of new keys: small, so a miss costs tens of ms.
PAGES = (1.0, 1.25, 1.5, 1.75, 2.0)

#: One block of the serve-mixed stream, in units (a ``pair`` unit is
#: two items): 40 items whose order is shuffled per block, so every 40
#: items hold exactly the declared shares.
MIXED_BLOCK = {"new": 14, "hit": 10, "tasks": 4, "pair": 3, "resume": 6}

#: Declared per-item traffic shares of each workload.
SHARES: Dict[str, Dict[str, float]] = {
    "serve-mixed": {
        cls: units * (2 if cls == "pair" else 1) / 40.0 for cls, units in MIXED_BLOCK.items()
    },
}

#: Specs per ``tasks`` request, alternating (each a distinct app, so
#: result events map back to their spec by the ``app@pages`` label).
TASKS_SPECS = (2, 3)


class _Cycle:
    """Endless draws that visit every value once per pass, in seeded order.

    Drawing apps and sizes this way keeps the simulated work of a stream
    prefix nearly the same for every seed; only the order and the data
    seeds change.
    """

    def __init__(self, rng: random.Random, values) -> None:
        self.rng = rng
        self.values = list(values)
        self.pending: List = []

    def next(self):
        if not self.pending:
            self.pending = list(self.values)
            self.rng.shuffle(self.pending)
        return self.pending.pop()


def _spec(rng: random.Random, app: str, pages: float) -> Dict[str, object]:
    return {"app": app, "pages": pages, "seed": rng.randrange(1, 2**31)}


def items(workload: str, seed: int) -> Iterator[Dict[str, object]]:
    """The endless request stream of ``workload`` for ``seed``."""
    if workload == "serve-mixed":
        return _mixed_items(seed)
    raise ValueError(f"no request stream for workload {workload!r}")


def take(workload: str, seed: int, n: int) -> List[Dict[str, object]]:
    return list(itertools.islice(items(workload, seed), n))


def _mixed_items(seed: int) -> Iterator[Dict[str, object]]:
    rng = random.Random(f"serve-mixed:{seed}")
    combos = _Cycle(rng, itertools.product(APPS, PAGES))
    apps = _Cycle(rng, APPS)
    pages = _Cycle(rng, PAGES)
    sizes = itertools.cycle(TASKS_SPECS)
    index = 0
    #: earlier single-app keys (targets of ``hit``) and earlier
    #: submit items (targets of ``resume``).
    seen_specs: List[Dict[str, object]] = []
    submits: List[int] = []
    first = True
    while True:
        units = [cls for cls, n in MIXED_BLOCK.items() for _ in range(n)]
        rng.shuffle(units)
        if first:
            # Something must exist before the first hit or resume.
            units.remove("new")
            units.insert(0, "new")
            first = False
        for cls in units:
            if cls == "pair":
                spec = _spec(rng, *combos.next())
                seen_specs.append(spec)
                for _ in range(2):
                    submits.append(index)
                    yield {"cls": "pair", "kind": "app", "spec": dict(spec)}
                    index += 1
                continue
            if cls == "new":
                spec = _spec(rng, *combos.next())
                seen_specs.append(spec)
                item = {"cls": "new", "kind": "app", "spec": dict(spec)}
            elif cls == "hit":
                item = {"cls": "hit", "kind": "app", "spec": dict(rng.choice(seen_specs))}
            elif cls == "tasks":
                chosen: List[str] = []
                k = next(sizes)
                while len(chosen) < k:
                    app = apps.next()
                    if app not in chosen:
                        chosen.append(app)
                item = {"cls": "tasks", "kind": "tasks", "specs": [_spec(rng, a, pages.next()) for a in chosen]}
            else:
                item = {
                    "cls": "resume",
                    "kind": "resume",
                    "target": rng.choice(submits),
                    # after_seq = floor(after_frac * the target's last seq)
                    "after_frac": rng.choice((0.0, 0.0, 0.5)),
                }
            if cls != "resume":
                submits.append(index)
            yield item
            index += 1
