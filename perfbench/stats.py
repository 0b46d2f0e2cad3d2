"""Order statistics shared by the runner and the comparison tool."""

from __future__ import annotations

import statistics
from typing import List, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return [value, value, value]
    return statistics.quantiles(values, n=4)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``.  With ``n`` samples that is
    the ``(n - 10)``-th smallest, the ``100 * (n - 10) / n``-th
    percentile.  With twenty or fewer samples that percentile would lie
    at or below the median and so would be no tail: the maximum is
    reported instead, as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 20:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n
