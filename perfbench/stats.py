"""Order statistics and safe ratios used by every report line."""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Sequence


def median(values: Iterable[float]) -> float:
    data = list(values)
    if not data:
        raise ValueError("median of no values")
    return float(statistics.median(data))


def quartiles(values: Sequence[float]) -> List[float]:
    """First, second and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them (one value is its
    own quartiles)."""
    data = list(values)
    if not data:
        raise ValueError("quartiles of no values")
    if len(data) == 1:
        return [float(data[0])] * 3
    return [float(q) for q in statistics.quantiles(data, n=4)]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when the
    median is 0)."""
    q1, q2, q3 = quartiles(values)
    return ratio(q3 - q1, q2)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when the base is 0 (e.g. the
    backtracks of a run that never backtracked)."""
    if not denominator:
        return 0.0
    return float(numerator) / float(denominator)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    q1, q2, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": ratio(q3 - q1, q2),
    }
