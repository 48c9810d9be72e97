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

Victim selection uses a min-heap keyed ``(count, last_access)`` with one
entry per resident page, pushed on admission, as LRU-K's is. A hit only
bumps the count and the last access, so the entry's key may fall behind;
selection re-keys an out-of-date top in place and drops entries whose page
has left the buffer. A resident page's key rises on every reference, so
the first up-to-date top is the minimum, and victim choice is O(log B)
amortized. The same loop runs fused over a whole compact trace in
:func:`repro.policies.kernel.make_lfu_kernel`.
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
        # Victim heap of (count, last access, page) entries, and each
        # resident page's live entry in it; an entry that is no page's
        # live entry is an orphan, dropped when it surfaces.
        self._heap: List[Tuple[int, int, PageId]] = []
        self._live: Dict[PageId, Tuple[int, int, PageId]] = {}

    def _bump(self, page: PageId, now: int) -> None:
        self._count[page] = self._count.get(page, 0) + 1
        self._last_access[page] = now

    def on_hit(self, page: PageId, now: int) -> None:
        super().on_hit(page, now)
        self._bump(page, now)

    def on_admit(self, page: PageId, now: int) -> None:
        super().on_admit(page, now)
        self._bump(page, now)
        entry = (self._count[page], now, page)
        heapq.heappush(self._heap, entry)
        self._live[page] = entry
        # Orphans come only from evictions whose entry was not the heap
        # top (exclusions, driver-chosen victims); rebuild from the
        # residents should they pile up.
        if len(self._heap) > 2 * len(self._resident) + HEAP_COMPACT_SLACK:
            self._rebuild_heap()

    def on_evict(self, page: PageId, now: int) -> None:
        super().on_evict(page, now)
        # The victim's entry leaves the heap only when it is the top, as
        # after an unobstructed selection; otherwise it is an orphan.
        entry = self._live.pop(page, None)
        if self._heap and self._heap[0] is entry:
            heapq.heappop(self._heap)

    def _rebuild_heap(self) -> None:
        """One fresh entry per resident page, and the live map to match."""
        count = self._count
        last_access = self._last_access
        self._live = {p: (count[p], last_access[p], p)
                      for p in self._resident}
        self._heap = list(self._live.values())
        heapq.heapify(self._heap)

    def choose_victim(self, now: int,
                      incoming: Optional[PageId] = None,
                      exclude: FrozenSet[PageId] = NO_EXCLUSIONS) -> PageId:
        """Leaves the victim's entry on the heap; :meth:`on_evict` drops it."""
        self._check_candidates(exclude)
        heap = self._heap
        live = self._live
        skipped: List[Tuple[int, int, PageId]] = []
        victim: Optional[PageId] = None
        while heap:
            entry = heap[0]
            _, last, page = entry
            if live.get(page) is not entry:
                heapq.heappop(heap)  # orphan: its page left the buffer
                continue
            if last != self._last_access[page]:
                # Out of date: every reference moves the last access.
                fresh = (self._count[page], self._last_access[page], page)
                heapq.heapreplace(heap, fresh)
                live[page] = fresh
                continue
            if page in exclude:
                skipped.append(heapq.heappop(heap))
                continue
            victim = page
            break
        for entry in skipped:
            heapq.heappush(heap, entry)
        if victim is None:
            raise NoEvictableFrameError("all resident pages are excluded")
        return victim

    def reference_count(self, page: PageId) -> int:
        """Lifetime reference count of a page (0 if never seen)."""
        return self._count.get(page, 0)

    def make_kernel(self, capacity: int):
        from .kernel import make_lfu_kernel
        return make_lfu_kernel(self, capacity)

    def stack_hits(self, pages, warmup: int, next_write=None,
                   capacities=None):
        """A fresh run's totals at each of ``capacities``, from one pass.

        The victim key (count, last access, page) never depends on the
        buffer size, so LFU is a stack algorithm and one
        :func:`~repro.policies.kernel.stack_pass` answers every table
        row. Returns None for ``capacities=None`` (every size): only the
        sizes asked for are answered.
        """
        if capacities is None:
            return None
        from .kernel import stack_pass

        def key_of(page, t, previous):
            return (1 if previous is None else previous[0] + 1, t, page)
        return stack_pass(pages, warmup, next_write, capacities, key_of)

    def reset(self) -> None:
        super().reset()
        self._count.clear()
        self._last_access.clear()
        self._heap.clear()
        self._live.clear()


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
        # Resident pages keep a count entry, which re-keying reads.
        for page in self._resident:
            self._count.setdefault(page, 0)
        # Halving lowers keys, which re-keying cannot follow: rebuild.
        self._rebuild_heap()

    def on_hit(self, page: PageId, now: int) -> None:
        self._maybe_age(now)
        super().on_hit(page, now)

    def on_admit(self, page: PageId, now: int) -> None:
        self._maybe_age(now)
        super().on_admit(page, now)

    def make_kernel(self, capacity: int) -> None:
        """No kernel: the LFU loop does not replicate periodic halving."""
        return None

    #: No stack pass either: halving lowers keys, and the pass, like
    #: the kernel, relies on keys that never fall.
    stack_hits = None

    def reset(self) -> None:
        super().reset()
        self._last_aged = 0
