"""Detailed run metrics beyond the hit ratio.

The paper's tables report hit ratios; diagnosing *why* a policy wins
needs more: which misses were compulsory (first touch ever) versus
capacity (page was resident before and got evicted), how long pages stay
resident, and how old evicted pages' last references were. The
:class:`MetricsCollector` gathers these from any simulator run via the
:class:`~repro.types.AccessOutcome` stream, with O(1) work per access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..stats import IntervalHistogram, StreamingMoments
from ..types import AccessOutcome, PageId


@dataclass
class MissBreakdown:
    """Misses split by cause."""

    compulsory: int = 0   # first reference to the page, ever
    capacity: int = 0     # page was resident earlier and was evicted

    @property
    def total(self) -> int:
        """All misses."""
        return self.compulsory + self.capacity

    def capacity_fraction(self) -> float:
        """Share of misses a better policy could have avoided."""
        if self.total == 0:
            return 0.0
        return self.capacity / self.total


class MetricsCollector:
    """Accumulate per-access metrics from AccessOutcome records.

    Usage::

        collector = MetricsCollector()
        for ref in workload.references(n, seed):
            collector.record(simulator.access(ref))
        print(collector.misses.capacity_fraction())
    """

    def __init__(self) -> None:
        self.misses = MissBreakdown()
        self.hits = 0
        #: Residency duration (references) of evicted pages.
        self.residency = StreamingMoments()
        self.residency_histogram = IntervalHistogram()
        #: Time since last reference of evicted pages ("eviction age"):
        #: small values mean the policy discards pages it just used.
        self.eviction_age = StreamingMoments()
        self._ever_seen: Set[PageId] = set()
        self._admitted: Dict[PageId, int] = {}
        self._last_reference: Dict[PageId, int] = {}

    def record(self, outcome: AccessOutcome) -> None:
        """Fold one access outcome into the metrics."""
        page = outcome.reference.page
        now = outcome.time
        if outcome.hit:
            self.hits += 1
        else:
            if page in self._ever_seen:
                self.misses.capacity += 1
            else:
                self.misses.compulsory += 1
                self._ever_seen.add(page)
            self._admitted[page] = now
        if outcome.evicted is not None:
            victim = outcome.evicted
            admitted = self._admitted.pop(victim, now)
            duration = max(0, now - admitted)
            self.residency.add(float(duration))
            self.residency_histogram.add(duration)
            last = self._last_reference.get(victim, admitted)
            self.eviction_age.add(float(max(0, now - last)))
        self._last_reference[page] = now

    @property
    def references(self) -> int:
        """Total accesses recorded."""
        return self.hits + self.misses.total

    @property
    def hit_ratio(self) -> float:
        """Hit ratio over everything recorded."""
        if self.references == 0:
            return 0.0
        return self.hits / self.references

    def summary(self) -> Dict[str, float]:
        """A flat dict of the headline metrics (for tables/reports)."""
        return {
            "references": float(self.references),
            "hit_ratio": self.hit_ratio,
            "compulsory_misses": float(self.misses.compulsory),
            "capacity_misses": float(self.misses.capacity),
            "capacity_miss_fraction": self.misses.capacity_fraction(),
            "mean_residency": self.residency.mean,
            "mean_eviction_age": self.eviction_age.mean,
        }
