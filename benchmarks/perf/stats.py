"""The few statistics the benchmark reports, in one place so the child,
``compare`` and the calibration table cannot disagree."""

from __future__ import annotations

import math
import statistics
from typing import Iterable

__all__ = ["percentile", "quartiles", "spread"]


def percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` of the samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them — the driver's method; a single value is all three."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Iterable[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf
