"""Histograms for interarrival-time and queue-length distributions.

Two flavours:

- :class:`Histogram` — fixed uniform bins over a known range, used for
  bounded quantities such as hit ratios and queue lengths.
- :class:`IntervalHistogram` — geometric (power-of-two) bins over the
  positive integers, used for reference interarrival times, which span many
  orders of magnitude (the whole point of LRU-K is that interarrival times
  differ by factors of hundreds between page pools).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Tuple

from ..errors import ConfigurationError


class Histogram:
    """Fixed-width binned counts over ``[low, high)``.

    Out-of-range observations are clamped into the first/last bin so that
    totals are preserved (important when the histogram feeds a quantile
    estimate).
    """

    def __init__(self, low: float, high: float, bins: int) -> None:
        if not (high > low):
            raise ConfigurationError("histogram range must be non-empty")
        if bins <= 0:
            raise ConfigurationError("histogram needs at least one bin")
        self.low = low
        self.high = high
        self.bins = bins
        self._width = (high - low) / bins
        self._counts = [0] * bins
        self._total = 0

    def add(self, value: float) -> None:
        """Count one observation, clamping into range."""
        index = int((value - self.low) / self._width)
        index = max(0, min(self.bins - 1, index))
        self._counts[index] += 1
        self._total += 1

    @property
    def total(self) -> int:
        """Total observations counted."""
        return self._total

    @property
    def counts(self) -> List[int]:
        """A copy of the per-bin counts."""
        return list(self._counts)

    def merge_counts(self, counts: List[int]) -> None:
        """Fold another same-shaped histogram's per-bin counts into this one.

        Bin counts are sums, so the merge is exact and order-independent
        — how a metrics registry reading rebuilds its bins for quantiles.
        """
        if len(counts) != self.bins:
            raise ConfigurationError(
                f"cannot merge {len(counts)} bins into {self.bins}")
        for index, count in enumerate(counts):
            if count < 0:
                raise ConfigurationError("bin counts cannot be negative")
            self._counts[index] += count
            self._total += count

    def bin_edges(self) -> List[float]:
        """The bins+1 edges of the histogram."""
        return [self.low + i * self._width for i in range(self.bins + 1)]

    def quantile(self, q: float) -> float:
        """Approximate the q-quantile by linear interpolation within a bin."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must be in [0, 1]")
        if self._total == 0:
            return self.low
        target = q * self._total
        cumulative = 0
        for i, count in enumerate(self._counts):
            if cumulative + count >= target and count > 0:
                within = (target - cumulative) / count
                return self.low + (i + within) * self._width
            cumulative += count
        return self.high


class IntervalHistogram:
    """Geometric histogram over positive integer intervals.

    Bin ``k`` covers ``[2**k, 2**(k+1))``; interval 0 values (correlated
    references collapsed to an instant) get a dedicated bin.
    """

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._zero = 0
        self._total = 0

    def add(self, interval: int) -> None:
        """Count one interarrival interval (non-negative)."""
        if interval < 0:
            raise ConfigurationError("intervals cannot be negative")
        self._total += 1
        if interval == 0:
            self._zero += 1
            return
        bucket = interval.bit_length() - 1
        self._counts[bucket] = self._counts.get(bucket, 0) + 1

    @property
    def total(self) -> int:
        """Total observations counted."""
        return self._total

    @property
    def zero_count(self) -> int:
        """How many intervals were exactly zero (collapsed correlated refs)."""
        return self._zero

    def buckets(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(low, high, count)`` per non-empty geometric bucket."""
        for bucket in sorted(self._counts):
            low = 1 << bucket
            high = (1 << (bucket + 1)) - 1
            yield low, high, self._counts[bucket]

    def fraction_at_most(self, interval: int) -> float:
        """Fraction of observations with interval <= the given value.

        Conservative: a bucket counts only when its *upper* edge is within
        the bound, so the result is a lower bound on the true CDF. Used by
        the Five Minute Rule census, where under-counting resident-worthy
        pages is the safe direction.
        """
        if self._total == 0:
            return 0.0
        covered = self._zero
        for low, high, count in self.buckets():
            if high <= interval:
                covered += count
        return covered / self._total

    def mean(self) -> float:
        """Approximate mean using bucket geometric midpoints."""
        if self._total == 0:
            return 0.0
        acc = 0.0
        for low, high, count in self.buckets():
            acc += math.sqrt(low * high) * count
        return acc / self._total
