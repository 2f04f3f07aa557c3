"""Summaries of timing series."""

from __future__ import annotations

import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of an empty series")
    return float(statistics.median(values))


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile that
    leaves at least :data:`TAIL_BEYOND` samples beyond it.

    With fewer than ``TAIL_BEYOND + 1`` samples no such percentile
    exists, and the median stands in (percentile 50).
    """
    n = len(values)
    ordered = sorted(values)
    if n <= TAIL_BEYOND:
        return median(values), 50.0, n
    k = n - TAIL_BEYOND - 1
    return float(ordered[k]), 100.0 * (k + 1) / n, n
