"""Arithmetic behind the benchmark's reported figures.

Kept free of numpy and of the package under test so that its own tests
run in a bare interpreter.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

# the tail percentile is the highest one with at least this many samples beyond it
MIN_BEYOND = 10
# reference times on each side of an operation that scale its latency
REF_WINDOW = 4


def median(values) -> float:
    return float(statistics.median(values))


def tail_latency(latencies) -> tuple[float, float, int]:
    """Latency at the highest nearest-rank percentile with MIN_BEYOND samples above it.

    The nearest-rank p-th percentile of n sorted samples is the one at
    rank ceil(p n / 100), with n - rank samples beyond it.  The highest p
    leaving MIN_BEYOND beyond is p = 100 (n - MIN_BEYOND) / n, whose value
    is the (MIN_BEYOND + 1)-th largest sample.  Returns (value, p, n).
    """
    xs = sorted(float(v) for v in latencies)
    n = len(xs)
    if n <= MIN_BEYOND:
        raise ValueError(f"need more than {MIN_BEYOND} samples for a tail, got {n}")
    rank = n - MIN_BEYOND
    return xs[rank - 1], 100.0 * rank / n, n


def scaled_latencies(latencies, refs, nominal: float) -> list:
    """Each latency times nominal / the median reference time within
    REF_WINDOW places of it; refs[i] was measured right after latency i."""
    if len(refs) != len(latencies):
        raise ValueError(f"{len(refs)} reference times for {len(latencies)} latencies")
    return [
        lat * nominal / median(refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
        for i, lat in enumerate(latencies)
    ]


def failed_ratio(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed out of {attempted} attempted")
    return failed / attempted


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_totals(spans) -> dict:
    """Self time and call count per span name.

    `spans` holds (name, start, end, parent) tuples, parent being the
    index of the enclosing span or -1.  A span's self time is its duration
    minus the part of its interval that its child spans cover.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict = {}
    for i, (name, start, end, _) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(i, ()) if e > start and s < end]
        entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (end - start) - _covered(clipped)
        entry["calls"] += 1
    return out
