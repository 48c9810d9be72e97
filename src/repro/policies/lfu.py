"""LFU — Least Frequently Used — and an aged variant.

The paper's Section 4.3 compares LRU-2 against LFU and pinpoints LFU's
"inherent drawback": "it never 'forgets' any previous references when it
compares the priorities of pages". We implement exactly that policy —
reference counts accumulate for the *lifetime of the run*, including while
a page is not resident — as :class:`LFUPolicy`. Ties break by recency
(evict the least recently used among the least frequently used), the
standard convention.

:class:`AgedLFUPolicy` adds the periodic-halving aging scheme of the
GCLOCK/LRD family, whose ``aging_period`` knob is precisely the kind of
"workload-dependent parameter" the paper criticizes; ablation A8 sweeps it.

Victim selection uses a lazy min-heap keyed ``(count, last_access)``: each
access pushes a fresh entry; stale entries are discarded when popped, and
the heap is rebuilt from the live resident entries once stale ones
dominate, as LRU-K's is. This gives O(log B) amortized victim choice even
though counts only grow. The same loop runs fused over a whole compact
trace in :func:`repro.policies.kernel.make_lfu_kernel`.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..errors import ConfigurationError, NoEvictableFrameError
from ..types import PageId
from .base import (
    HEAP_COMPACT_SLACK,
    NO_EXCLUSIONS,
    ReplacementPolicy,
    register_policy,
)


@register_policy("lfu")
class LFUPolicy(ReplacementPolicy):
    """Never-forgetting LFU, the paper's Table 4.3 comparator."""

    def __init__(self) -> None:
        super().__init__()
        # Counts survive eviction: the policy "never forgets".
        self._count: Dict[PageId, int] = {}
        self._last_access: Dict[PageId, int] = {}
        self._heap: List[Tuple[int, int, PageId]] = []

    def _bump(self, page: PageId, now: int) -> None:
        self._count[page] = self._count.get(page, 0) + 1
        self._last_access[page] = now
        heapq.heappush(self._heap, (self._count[page], now, page))
        # Every reference supersedes the page's previous entry; rebuild
        # once stale entries dominate, so the heap stays O(B), not O(T).
        if len(self._heap) > 2 * len(self._resident) + HEAP_COMPACT_SLACK:
            self._heap = [(self._count[p], self._last_access[p], p)
                          for p in self._resident]
            heapq.heapify(self._heap)

    def on_hit(self, page: PageId, now: int) -> None:
        super().on_hit(page, now)
        self._bump(page, now)

    def on_admit(self, page: PageId, now: int) -> None:
        super().on_admit(page, now)
        self._bump(page, now)

    def choose_victim(self, now: int,
                      incoming: Optional[PageId] = None,
                      exclude: FrozenSet[PageId] = NO_EXCLUSIONS) -> PageId:
        self._check_candidates(exclude)
        skipped: List[Tuple[int, int, PageId]] = []
        victim: Optional[PageId] = None
        while self._heap:
            count, last, page = heapq.heappop(self._heap)
            stale = (page not in self._resident
                     or count != self._count.get(page)
                     or last != self._last_access.get(page))
            if stale:
                continue
            if page in exclude:
                skipped.append((count, last, page))
                continue
            victim = page
            # The popped entry was this page's only live entry; re-add so a
            # subsequent (unconfirmed) choose_victim still sees it.
            skipped.append((count, last, page))
            break
        for entry in skipped:
            heapq.heappush(self._heap, entry)
        if victim is None:
            raise NoEvictableFrameError("all resident pages are excluded")
        return victim

    def reference_count(self, page: PageId) -> int:
        """Lifetime reference count of a page (0 if never seen)."""
        return self._count.get(page, 0)

    def make_kernel(self, capacity: int):
        from .kernel import make_lfu_kernel
        return make_lfu_kernel(self, capacity)

    def reset(self) -> None:
        super().reset()
        self._count.clear()
        self._last_access.clear()
        self._heap.clear()


@register_policy("lfu-aged")
class AgedLFUPolicy(LFUPolicy):
    """LFU with periodic halving of all counts.

    Every ``aging_period`` references, every count is halved (integer
    division), bounding the memory of ancient references. The heap is
    rebuilt at each aging step, so choose the period large enough to
    amortize (the default halves every 5000 references).
    """

    def __init__(self, aging_period: int = 5000) -> None:
        super().__init__()
        if aging_period <= 0:
            raise ConfigurationError("aging_period must be positive")
        self.aging_period = aging_period
        self._last_aged = 0

    def _maybe_age(self, now: int) -> None:
        if now - self._last_aged < self.aging_period:
            return
        self._last_aged = now
        self._count = {p: c // 2 for p, c in self._count.items() if c // 2 > 0}
        self._heap = [(self._count.get(p, 0), self._last_access[p], p)
                      for p in self._resident]
        heapq.heapify(self._heap)
        # Resident pages must keep a live count entry for staleness checks.
        for page in self._resident:
            self._count.setdefault(page, 0)

    def on_hit(self, page: PageId, now: int) -> None:
        self._maybe_age(now)
        super().on_hit(page, now)

    def on_admit(self, page: PageId, now: int) -> None:
        self._maybe_age(now)
        super().on_admit(page, now)

    def make_kernel(self, capacity: int) -> None:
        """No kernel: the LFU loop does not replicate periodic halving."""
        return None

    def reset(self) -> None:
        super().reset()
        self._last_aged = 0
