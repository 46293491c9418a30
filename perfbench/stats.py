"""Percentiles and run-to-run spread, shared by the runner and the steadiness check."""

from __future__ import annotations

import statistics

# candidate tail percentiles, in hundredths of a percent, highest first
TAIL_LADDER = (9999, 9990, 9900, 9000, 5000)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], hundredths: int) -> tuple[float, int]:
    """Nearest-rank percentile of sorted values, and how many samples lie beyond it."""
    n = len(sorted_values)
    rank = max(1, -(-hundredths * n // 10000))
    return sorted_values[rank - 1], n - rank


def tail(values: list[float]) -> tuple[str, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    With too few samples for any rung, the maximum, labelled "max".
    """
    ordered = sorted(values)
    for hundredths in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, hundredths)
        if beyond >= TAIL_MIN_BEYOND:
            return f"p{hundredths / 100:g}", value
    return "max", ordered[-1]


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
