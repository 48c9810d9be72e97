"""Single-pass streaming statistics.

The simulator processes reference strings of hundreds of thousands of
elements; all aggregate statistics (hit ratios per window, interarrival
moments, queue lengths) are computed in one pass with O(1) state using
Welford's online algorithm.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Tuple


class StreamingMoments:
    """Online mean/variance via Welford's algorithm.

    Numerically stable for long streams; supports merging partial results
    from independent repetitions (Chan et al. parallel variant).
    """

    __slots__ = ("_count", "_mean", "_m2")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Fold one observation into the running moments."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def extend(self, values: Iterable[float]) -> None:
        """Fold many observations."""
        for value in values:
            self.add(value)

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Combine two independent streams into a fresh accumulator."""
        merged = StreamingMoments()
        if self._count == 0:
            merged._count, merged._mean, merged._m2 = (
                other._count, other._mean, other._m2)
            return merged
        if other._count == 0:
            merged._count, merged._mean, merged._m2 = (
                self._count, self._mean, self._m2)
            return merged
        count = self._count + other._count
        delta = other._mean - self._mean
        merged._count = count
        merged._mean = self._mean + delta * other._count / count
        merged._m2 = (self._m2 + other._m2
                      + delta * delta * self._count * other._count / count)
        return merged

    def state(self) -> Tuple[int, float, float]:
        """The raw ``(count, mean, m2)`` accumulator state (what a
        metrics registry snapshot copies)."""
        return (self._count, self._mean, self._m2)

    @property
    def count(self) -> int:
        """Number of observations folded in."""
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance; 0.0 with fewer than two observations."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def stddev(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def stderr(self) -> float:
        """Standard error of the mean; 0.0 when empty."""
        if self._count == 0:
            return 0.0
        return self.stddev / math.sqrt(self._count)

    def __repr__(self) -> str:
        return (f"StreamingMoments(count={self._count}, mean={self._mean:.6g}, "
                f"stddev={self.stddev:.6g})")


class StreamingMinMax:
    """Track the extremes of a stream in O(1) state."""

    __slots__ = ("_minimum", "_maximum", "_count")

    def __init__(self) -> None:
        self._minimum: Optional[float] = None
        self._maximum: Optional[float] = None
        self._count = 0

    def add(self, value: float) -> None:
        """Fold one observation."""
        self._count += 1
        if self._minimum is None or value < self._minimum:
            self._minimum = value
        if self._maximum is None or value > self._maximum:
            self._maximum = value

    @property
    def count(self) -> int:
        """Number of observations folded in."""
        return self._count

    @property
    def minimum(self) -> Optional[float]:
        """Smallest observation, or None when empty."""
        return self._minimum

    @property
    def maximum(self) -> Optional[float]:
        """Largest observation, or None when empty."""
        return self._maximum

    @property
    def span(self) -> float:
        """max - min; 0.0 when fewer than one observation."""
        if self._minimum is None or self._maximum is None:
            return 0.0
        return self._maximum - self._minimum
