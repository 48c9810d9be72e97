"""CLOCK and GCLOCK.

The paper (Section 1.2) groups GCLOCK with the "more sophisticated
LFU-based buffering algorithms that employ aging schemes based on
reference counters" and criticizes its dependence on "a careful choice of
various workload-dependent parameters". Both are implemented here so the
lineage benchmark (A8) can quantify that comparison.

- CLOCK (second chance): a circular sweep clears per-page reference bits;
  the first page found with a clear bit is the victim. A classical O(1)
  LRU approximation.
- GCLOCK (generalized CLOCK): each page carries a counter, incremented on
  hit (by ``hit_increment``) and initialized on admission (to
  ``initial_count``); the sweep decrements counters and evicts the first
  page found at zero. The two knobs are exactly the workload-dependent
  parameters the paper objects to.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from ..errors import ConfigurationError, NoEvictableFrameError
from ..types import PageId
from .base import NO_EXCLUSIONS, ReplacementPolicy, register_policy


class _SweepBuffer:
    """A circular buffer of pages with a sweep hand (shared CLOCK machinery)."""

    def __init__(self) -> None:
        self.pages: List[Optional[PageId]] = []
        self.slot_of: Dict[PageId, int] = {}
        self.hand = 0

    def add(self, page: PageId) -> None:
        self.slot_of[page] = len(self.pages)
        self.pages.append(page)

    def remove(self, page: PageId) -> None:
        slot = self.slot_of.pop(page)
        self.pages[slot] = None  # tombstone; compaction happens lazily

    def compact_if_needed(self) -> None:
        """Drop tombstones when they dominate the ring."""
        live = len(self.slot_of)
        if live * 2 >= len(self.pages):
            return
        self.pages = [p for p in self.pages if p is not None]
        self.slot_of = {p: i for i, p in enumerate(self.pages)}
        self.hand %= max(1, len(self.pages))

    def clear(self) -> None:
        self.pages.clear()
        self.slot_of.clear()
        self.hand = 0


@register_policy("clock")
class ClockPolicy(ReplacementPolicy):
    """Second-chance CLOCK replacement."""

    def __init__(self) -> None:
        super().__init__()
        self._ring = _SweepBuffer()
        self._referenced: Dict[PageId, bool] = {}

    def on_hit(self, page: PageId, now: int) -> None:
        super().on_hit(page, now)
        self._referenced[page] = True

    def on_admit(self, page: PageId, now: int) -> None:
        super().on_admit(page, now)
        self._ring.add(page)
        self._referenced[page] = True

    def on_evict(self, page: PageId, now: int) -> None:
        super().on_evict(page, now)
        self._ring.remove(page)
        del self._referenced[page]
        self._ring.compact_if_needed()

    def choose_victim(self, now: int,
                      incoming: Optional[PageId] = None,
                      exclude: FrozenSet[PageId] = NO_EXCLUSIONS) -> PageId:
        self._check_candidates(exclude)
        ring = self._ring
        # Two full sweeps suffice: the first clears bits, the second must
        # find a victim among unexcluded pages.
        for _ in range(2 * len(ring.pages) + 1):
            if not ring.pages:
                break
            ring.hand %= len(ring.pages)
            page = ring.pages[ring.hand]
            ring.hand += 1
            if page is None or page in exclude:
                continue
            if self._referenced[page]:
                self._referenced[page] = False
                continue
            return page
        raise NoEvictableFrameError("CLOCK sweep found no evictable page")

    def reset(self) -> None:
        super().reset()
        self._ring.clear()
        self._referenced.clear()


@register_policy("gclock")
class GClockPolicy(ReplacementPolicy):
    """Generalized CLOCK with reference counters and aging-by-sweep."""

    def __init__(self, initial_count: int = 1, hit_increment: int = 1,
                 max_count: int = 8) -> None:
        super().__init__()
        if initial_count < 0 or hit_increment <= 0 or max_count <= 0:
            raise ConfigurationError("GCLOCK counters must be positive")
        self.initial_count = initial_count
        self.hit_increment = hit_increment
        self.max_count = max_count
        self._ring = _SweepBuffer()
        self._count: Dict[PageId, int] = {}

    def on_hit(self, page: PageId, now: int) -> None:
        super().on_hit(page, now)
        self._count[page] = min(self.max_count,
                                self._count[page] + self.hit_increment)

    def on_admit(self, page: PageId, now: int) -> None:
        super().on_admit(page, now)
        self._ring.add(page)
        self._count[page] = self.initial_count

    def on_evict(self, page: PageId, now: int) -> None:
        super().on_evict(page, now)
        self._ring.remove(page)
        del self._count[page]
        self._ring.compact_if_needed()

    def choose_victim(self, now: int,
                      incoming: Optional[PageId] = None,
                      exclude: FrozenSet[PageId] = NO_EXCLUSIONS) -> PageId:
        self._check_candidates(exclude)
        ring = self._ring
        # Bounded sweep: max_count full revolutions guarantee some counter
        # reaches zero among unexcluded pages.
        limit = (self.max_count + 1) * (len(ring.pages) + 1)
        for _ in range(limit):
            if not ring.pages:
                break
            ring.hand %= len(ring.pages)
            page = ring.pages[ring.hand]
            ring.hand += 1
            if page is None or page in exclude:
                continue
            if self._count[page] > 0:
                self._count[page] -= 1
                continue
            return page
        raise NoEvictableFrameError("GCLOCK sweep found no evictable page")

    def reset(self) -> None:
        super().reset()
        self._ring.clear()
        self._count.clear()
