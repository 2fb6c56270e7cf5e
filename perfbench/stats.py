"""Order statistics and interval arithmetic shared by the run and the trace."""

from __future__ import annotations

import math

TAIL_BEYOND = 10


def tail_rank(count: int) -> tuple[int, int]:
    """(percentile, 1-based nearest rank) of the highest whole percentile
    that leaves at least TAIL_BEYOND samples above it."""
    if count <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {count}")
    percentile = 100 * (count - TAIL_BEYOND) // count
    return percentile, max(1, math.ceil(percentile * count / 100))


def tail(values) -> tuple[float, int, int]:
    """(value, percentile, sample count) of the tail latency of `values`."""
    ordered = sorted(values)
    percentile, rank = tail_rank(len(ordered))
    return ordered[rank - 1], percentile, len(ordered)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of `intervals` (pairs start, end)."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(start: float, end: float, children) -> float:
    """Span duration minus the part of it that child spans cover."""
    return (end - start) - covered(children, start, end)
