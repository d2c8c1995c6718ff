"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile that still has `beyond` samples above it.

    Returns (value, percentile, sample count), or None when there are not
    more than `beyond` samples.  The value is the (n - beyond)-th smallest
    sample, so exactly `beyond` samples lie beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return None
    rank = n - beyond
    return xs[rank - 1], 100.0 * rank / n, n


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")
