"""Percentiles and the across-round estimators the results are built from."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence


def percentile(samples: Sequence[float], share: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``share`` at or below it."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 < share <= 1.0:
        raise ValueError(f"share must be within (0, 1], got {share}")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def drift_ratio(samples: Sequence[float]) -> float:
    """Median of a round's last quarter over the median of its first quarter."""
    quarter = max(1, len(samples) // 4)
    return statistics.median(samples[-quarter:]) / statistics.median(samples[:quarter])


def best(values: Sequence[float], better: str) -> float:
    """The best round: noise on a shared machine only ever makes a round worse."""
    return max(values) if better == "higher" else min(values)


def round_spread(values: Sequence[float], better: str) -> float:
    """Gap between the median round and the best round, as a share of the best."""
    chosen = best(values, better)
    return abs(statistics.median(values) - chosen) / chosen if chosen else 0.0


def quartile_spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (the acceptance statistic)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / median if median else 0.0
