"""Order statistics shared by the harness, the report and ``compare``."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: A percentile is only reported when at least this many samples lie
#: beyond it; with fewer, one outlier decides the value.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``samples`` (``0 < q < 1``).

    Raises ``ValueError`` when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond the requested rank, so a p999 is never read off
    a sample too small to hold one.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    beyond = len(samples) * (1.0 - q)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q * 100:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; "
            f"{len(samples)} samples leave {beyond:.1f}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of repeated measurements.

    Quartiles follow :func:`statistics.quantiles` with ``n=4``; a single
    value is its own quartiles.
    """
    if not values:
        raise ValueError("cannot summarize an empty sample")
    if len(values) == 1:
        q1 = median = q3 = float(values[0])
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    summary = summarize(values)
    if summary["median"] == 0:
        return 0.0 if summary["q3"] == summary["q1"] else math.inf
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])
