"""Summary helpers: medians, tail percentiles, latency with failures, self time.

Every timing the benchmark prints goes through these functions, so the
rules they encode hold for every metric:

* a timing is summarized by its median and by the highest percentile
  that still has at least ten samples beyond it;
* a request that failed counts as missing any latency limit (it enters
  the latency distribution as ``+inf``);
* a span's self time is its duration minus the part of its interval
  that its child spans cover.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it is reported.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) with linear interpolation.

    Matches ``numpy.percentile``'s default method.  ``+inf`` values
    (failed requests) sort last; a percentile that lands on or next to
    one is ``+inf``.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    a, b = ordered[lo], ordered[hi]
    if math.isinf(a) or math.isinf(b):
        return math.inf
    return a + (b - a) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with >= 10 samples beyond it.

    ``None`` when even the median has fewer than ten samples beyond it
    (fewer than 20 samples).
    """
    best = None
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 + 1e-9 >= TAIL_MIN_BEYOND:
            best = p
    return best


def latency_samples(latencies_ms: Iterable[float], failed: int) -> List[float]:
    """Completed latencies plus one ``+inf`` per failed request."""
    return list(latencies_ms) + [math.inf] * failed


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, tail percentile and sample count of one timing."""
    n = len(values)
    out: Dict[str, object] = {"n": n, "median": median(values) if n else None}
    p = tail_percentile(n)
    if p is not None:
        out["tail_p"] = p
        out["tail"] = percentile(values, p)
    return out


def self_times(
    spans: Sequence[Tuple[int, float, float, Optional[int]]]
) -> Dict[int, float]:
    """Self time of each span: duration minus what its children cover.

    ``spans`` holds ``(span_id, start, end, parent_id)`` tuples.  Child
    intervals are clipped to the parent's interval and merged before
    they are subtracted, so overlapping children (spans from several
    threads under one parent) are not subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    bounds = {sid: (start, end) for sid, start, end, _ in spans}
    for sid, start, end, parent in spans:
        if parent is not None and parent in bounds:
            children.setdefault(parent, []).append((start, end))
    out: Dict[int, float] = {}
    for sid, (start, end) in bounds.items():
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out
