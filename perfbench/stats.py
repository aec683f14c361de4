"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

TAIL_MIN_BEYOND = 10


def tail_percentile(samples, min_beyond=TAIL_MIN_BEYOND):
    """Highest whole percentile with at least ``min_beyond`` samples above it.

    Uses nearest-rank percentiles: the p-th percentile of n sorted samples
    is the one at rank ceil(p * n / 100), and the samples beyond it are the
    n - rank above that rank. Returns (percentile, value, samples_beyond).
    With too few samples for any percentile to qualify, returns the maximum
    as percentile 100 with 0 samples beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= min_beyond:
            return p, xs[rank - 1], n - rank
    return 100, xs[-1], 0


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    return tuple(statistics.quantiles(values, n=4))


def quartile_spread(values):
    """(q3 - q1) / median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2
