"""Classical LRU — the paper's LRU-1 baseline.

"When a new buffer is needed, the LRU policy drops the page from buffer
that has not been accessed for the longest time" (Section 1.1). The
recency order is an :class:`collections.OrderedDict` used as an intrusive
list: hits move the page to the MRU end, the victim is taken from the LRU
end, all O(1).

Note that :class:`repro.core.lruk.LRUKPolicy` with ``k=1`` and a zero
Correlated Reference Period makes identical decisions; a property test
asserts that equivalence.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import FrozenSet, Optional

from ..errors import NoEvictableFrameError
from ..types import PageId
from .base import NO_EXCLUSIONS, ReplacementPolicy, register_policy


@register_policy("lru")
class LRUPolicy(ReplacementPolicy):
    """Least Recently Used replacement (the paper's LRU-1)."""

    def __init__(self) -> None:
        super().__init__()
        self._order: "OrderedDict[PageId, None]" = OrderedDict()

    def on_hit(self, page: PageId, now: int) -> None:
        super().on_hit(page, now)
        self._order.move_to_end(page)

    def on_admit(self, page: PageId, now: int) -> None:
        super().on_admit(page, now)
        self._order[page] = None

    def on_evict(self, page: PageId, now: int) -> None:
        super().on_evict(page, now)
        del self._order[page]

    def choose_victim(self, now: int,
                      incoming: Optional[PageId] = None,
                      exclude: FrozenSet[PageId] = NO_EXCLUSIONS) -> PageId:
        self._check_candidates(exclude)
        for page in self._order:
            if page not in exclude:
                return page
        raise NoEvictableFrameError("all resident pages are excluded")

    def make_kernel(self, capacity: int):
        from .kernel import make_lru_kernel
        return make_lru_kernel(self, capacity)

    def stack_hits(self, pages, warmup: int, next_write=None,
                   capacities=None):
        """Every total of a fresh run at every capacity, from one pass.

        LRU is a stack algorithm, so one Mattson pass over a trace's
        columns yields what a fresh run would report at each buffer
        size: measured and warm-up hits, evictions and write-backs (a
        :class:`~repro.policies.kernel.StackCurve`; see
        :func:`repro.policies.kernel.lru_stack_hits`). It answers every
        capacity, so ``capacities`` is ignored: the B(1) search
        (:mod:`repro.sim.equi_effective`) probes sizes that are no
        table row. A :class:`~repro.sim.trace_cache.TraceCache` keeps
        the curves; the B(1) search and the measurement protocol's
        ``stack`` tier (:func:`repro.sim.run_paper_protocol`) read
        capacities off them instead of simulating each one.
        """
        from .kernel import lru_stack_hits
        return lru_stack_hits(pages, warmup, next_write)

    def reset(self) -> None:
        super().reset()
        self._order.clear()

    def recency_order(self) -> list:
        """Pages from least- to most-recently used (testing/diagnostics)."""
        return list(self._order)
