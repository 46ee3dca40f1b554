"""Order statistics used by every benchmark summary and comparison."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)``.

    A single value is its own quartiles (``statistics.quantiles`` needs two).
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a zero median)."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 < p <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100 * len(ordered))
    return ordered[rank - 1]


def beyond(num_samples: int, p: float) -> int:
    """How many of ``num_samples`` lie above the nearest-rank percentile."""
    return num_samples - math.ceil(p / 100 * num_samples)


def summarize(values: Sequence[float]) -> dict[str, object]:
    """Median, quartiles and the raw values of one metric's rounds."""
    q1, q3 = quartiles(values)
    return {
        "median": median(values),
        "q1": q1,
        "q3": q3,
        "values": list(values),
    }
