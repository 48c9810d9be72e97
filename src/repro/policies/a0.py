"""The A0 oracle — optimal replacement with known probabilities.

Definition 3.1 of the paper (after [COFFDENN] Theorem 6.3): "A0 ... replaces
the buffered page p in memory whose expected value I_p is a maximum, i.e.,
the page for which beta_p is smallest." Under the Independent Reference
Model A0 is the optimal strategy *without* an oracle over the future, and
the paper uses it as the yardstick every LRU-K column is compared against
(Tables 4.1 and 4.2).

A0 requires the true reference-probability vector, which only a synthetic
workload can supply; workload generators expose theirs via a
``reference_probabilities()`` method and the experiment runner wires it in.

Victim selection keeps resident pages in a min-heap keyed by probability.
Probabilities are static, so entries never go stale except through
eviction (lazy deletion). The same loop runs fused over a whole compact
trace in :func:`repro.policies.kernel.make_a0_kernel`.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..errors import NoEvictableFrameError, OracleError
from ..types import PageId
from .base import NO_EXCLUSIONS, ReplacementPolicy, register_policy


@register_policy("a0")
class A0Policy(ReplacementPolicy):
    """Optimal-with-probabilities replacement (paper Definition 3.1)."""

    def __init__(self, probabilities: Mapping[PageId, float]) -> None:
        super().__init__()
        if not probabilities:
            raise OracleError("A0 needs a non-empty probability vector")
        bad = [p for p, b in probabilities.items() if b < 0]
        if bad:
            raise OracleError(f"negative probabilities for pages {bad[:5]}")
        self._beta: Dict[PageId, float] = dict(probabilities)
        self._heap: List[Tuple[float, PageId]] = []
        self._live: Dict[PageId, float] = {}

    def beta(self, page: PageId) -> float:
        """True reference probability of a page (unknown pages get 0)."""
        return self._beta.get(page, 0.0)

    def on_admit(self, page: PageId, now: int) -> None:
        super().on_admit(page, now)
        beta = self.beta(page)
        self._live[page] = beta
        heapq.heappush(self._heap, (beta, page))

    def on_evict(self, page: PageId, now: int) -> None:
        super().on_evict(page, now)
        del self._live[page]

    def choose_victim(self, now: int,
                      incoming: Optional[PageId] = None,
                      exclude: FrozenSet[PageId] = NO_EXCLUSIONS) -> PageId:
        self._check_candidates(exclude)
        skipped: List[Tuple[float, PageId]] = []
        victim: Optional[PageId] = None
        while self._heap:
            beta, page = heapq.heappop(self._heap)
            if self._live.get(page) != beta:
                continue  # stale (evicted) entry
            skipped.append((beta, page))
            if page in exclude:
                continue
            victim = page
            break
        for entry in skipped:
            heapq.heappush(self._heap, entry)
        if victim is None:
            raise NoEvictableFrameError("all resident pages are excluded")
        return victim

    def make_kernel(self, capacity: int):
        from .kernel import make_a0_kernel
        return make_a0_kernel(self, capacity)

    def stack_hits(self, pages, warmup: int, next_write=None,
                   capacities=None):
        """A fresh run's totals at each of ``capacities``, from one pass.

        The victim key (beta, page) is fixed for the run, so A0 is a
        stack algorithm and one :func:`~repro.policies.kernel.stack_pass`
        answers every table row. Returns None for ``capacities=None``
        (every size): only the sizes asked for are answered.
        """
        if capacities is None:
            return None
        from .kernel import stack_pass
        beta = self._beta.get

        def key_of(page, t, previous):
            return (beta(page, 0.0), page) if previous is None else previous
        return stack_pass(pages, warmup, next_write, capacities, key_of)

    @property
    def stack_key(self) -> frozenset:
        """What tells this policy's stack pass from another A0's: its
        probabilities (a trace cache keys passes by it)."""
        return frozenset(self._beta.items())

    def reset(self) -> None:
        super().reset()
        self._heap.clear()
        self._live.clear()
