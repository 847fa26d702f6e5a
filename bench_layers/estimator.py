"""Estimators: per-op minima over passes, exact percentiles, spreads.

Why minima: on this class of box per-pass medians wander 15-25 % between
passes of one process (CPU time wanders with them — neighbour contention,
not scheduling), while the per-op minimum over a handful of passes agrees
across processes to about 1 %.  Noise on a shared host only ever *adds*
time, so the minimum over passes is the least-contaminated sample of what
the code itself costs.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["per_op_minima", "percentile", "highest_percentile",
           "quartile_spread"]


def per_op_minima(passes: Sequence[Sequence[float]]) -> list[float]:
    """Element-wise minimum over passes of the same op list."""
    if not passes:
        raise ValueError("need at least one pass")
    length = len(passes[0])
    if any(len(p) != length for p in passes):
        raise ValueError("passes cover different op lists")
    return [min(column) for column in zip(*passes)]


def percentile(values: Sequence[float], q: float) -> float:
    """Exact order statistic: the smallest value with at least ``q`` of
    the sample at or below it (never interpolated)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def highest_percentile(samples: int) -> float:
    """The tail percentile a sample count supports.

    A tail percentile needs at least ten samples beyond it: p90 from 100
    samples, p95 from 200, p99 from 1000.  Below 100 samples no
    percentile qualifies and the tail is the largest sample (``1.0``).
    """
    if samples >= 1000:
        return 0.99
    if samples >= 200:
        return 0.95
    if samples >= 100:
        return 0.90
    return 1.0


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0
