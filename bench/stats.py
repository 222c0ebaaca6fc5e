"""Small statistics helpers shared by the benchmark's own files.

Percentiles are exact nearest-rank (no interpolation), so a reported
p95 is always a latency that was actually observed.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least *q* %
    of the sample at or below it.  ``q`` is in (0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank out of range: {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def sha256_lines(lines: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()
