"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100 * len(xs)))
    return xs[rank - 1]


def tail_percentile(samples, min_beyond: int = MIN_BEYOND):
    """Highest whole percentile with at least ``min_beyond`` samples above it.

    Returns ``(q, value)``, or ``None`` when even the median leaves fewer
    than ``min_beyond`` samples strictly above it.
    """
    xs = sorted(samples)
    for q in range(99, 49, -1):
        value = percentile(xs, q)
        if sum(1 for x in xs if x > value) >= min_beyond:
            return q, value
    return None


def median(samples) -> float:
    return statistics.median(samples)


def quartile_spread(values) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
