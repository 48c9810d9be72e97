"""The LRU-K page replacement algorithm (paper Section 2, Figure 2.1).

LRU-K drops the resident page whose *Backward K-distance* — the distance
back to its K-th most recent uncorrelated reference — is largest
(Definition 2.2), thereby estimating each page's reference interarrival
time from its last K references instead of only its last one (classical
LRU = LRU-1).

This implementation is a faithful rendering of the Figure 2.1 pseudo-code
with the two Section 2.1 refinements:

- **Correlated Reference Period (CRP)** — references within ``crp``
  logical time units of LAST(p) are treated as correlated: they advance
  LAST(p) but do not create history entries, and when the burst ends its
  duration is subtracted out of the interarrival estimate (the Figure 2.1
  ``correlation_period_of_referenced_page`` shift). Pages inside their CRP
  are also *ineligible* for replacement ("the system should not drop a
  page immediately after its first reference").
- **Retained Information Period (RIP)** — HIST blocks survive eviction
  for ``retained_information_period`` time units past LAST(p) and are then
  purged by the demon in :class:`~repro.core.history.HistoryStore`.

Victim selection
----------------
``selection="scan"`` is the literal Figure 2.1 loop: O(B) over resident
pages, choosing the minimum HIST(q, K) among eligible pages.

``selection="heap"`` (default) is the production path the paper alludes to
("finding the page with the maximum Backward K-distance would actually be
based on a search tree"): a min-heap keyed by ``(HIST(q,K), HIST(q,1), q)``
that holds one entry per resident page, pushed when the page is admitted.
A hit only updates the page's history block, so the entry's key may fall
behind; selection re-keys an out-of-date top in place (``heapreplace``)
and drops entries whose page has left the buffer. That is exact because
a resident page's key only grows — an uncorrelated reference raises both
HIST(q,K) and HIST(q,1), a correlated one changes neither — so the first
up-to-date top is the minimum. The two selectors are decision-equivalent
(property-tested) because they share the same total order:

- primary key HIST(q, K): 0 (= infinite backward distance) sorts first,
  exactly Definition 2.2's "maximum Backward K-distance";
- secondary key HIST(q, 1): among the infinite-distance pages this is the
  paper's suggested "classical LRU ... as a subsidiary policy", applied to
  uncorrelated reference times.

When *no* resident page is eligible (every page is inside its CRP — only
possible when the buffer is small relative to the burst working set), the
algorithm must still free a frame; we fall back to evicting the page with
the smallest LAST(q), i.e. the page whose correlated burst has been idle
longest, and count the event in :class:`LRUKStats.forced_evictions`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..errors import ConfigurationError, NoEvictableFrameError
from ..obs.events import EvictionDecisionEvent, PurgeEvent
from ..obs.provenance import (
    CandidateInfo,
    EvictionDecision,
    ProvenanceRecorder,
)
from ..policies.base import (
    HEAP_COMPACT_SLACK,
    NO_EXCLUSIONS,
    ReplacementPolicy,
    register_policy_factory,
)
from ..types import PageId
from .history import HistoryBlock, HistoryStore, INFINITE_DISTANCE


@dataclass
class LRUKStats:
    """Bookkeeping counters exposed for analysis and ablation benches."""

    uncorrelated_references: int = 0
    correlated_references: int = 0
    admissions: int = 0
    evictions: int = 0
    infinite_distance_evictions: int = 0
    forced_evictions: int = 0
    heap_compactions: int = 0

    @property
    def history_informed_evictions(self) -> int:
        """Evictions of pages that had a full K-history."""
        return self.evictions - self.infinite_distance_evictions


class LRUKPolicy(ReplacementPolicy):
    """LRU-K replacement (Definition 2.2 + Figure 2.1).

    Parameters
    ----------
    k:
        History depth. ``k=1`` is classical LRU; the paper advocates
        ``k=2`` "as a generally efficient policy".
    correlated_reference_period:
        CRP in logical references; 0 disables time-out correlation (every
        reference is uncorrelated), matching the Section 3 analysis and
        the synthetic experiments.
    retained_information_period:
        RIP in logical references; None retains history forever.
    selection:
        ``"heap"`` (default, O(log B)) or ``"scan"`` (literal Figure 2.1).
    max_history_blocks:
        Optional hard bound on retained HIST blocks (the paper's Section 5
        "open issue" of history memory); oldest-LAST blocks of non-resident
        pages are dropped beyond the bound.
    """

    name = "lru-k"

    def __init__(self, k: int = 2,
                 correlated_reference_period: int = 0,
                 retained_information_period: Optional[int] = None,
                 selection: str = "heap",
                 max_history_blocks: Optional[int] = None,
                 distinguish_processes: bool = False) -> None:
        super().__init__()
        if k <= 0:
            raise ConfigurationError("K must be a positive integer")
        if correlated_reference_period < 0:
            raise ConfigurationError("CRP cannot be negative")
        if selection not in ("heap", "scan"):
            raise ConfigurationError("selection must be 'heap' or 'scan'")
        if max_history_blocks is not None and max_history_blocks <= 0:
            raise ConfigurationError("max_history_blocks must be positive")
        self.k = k
        self.crp = correlated_reference_period
        self.selection = selection
        self.max_history_blocks = max_history_blocks
        # Section 2.1.1: "It is clearly possible to distinguish processes
        # making page references; for simplicity, however, we will assume
        # ... references are not distinguished by process." The paper's
        # simple mode is the default; with distinguish_processes=True a
        # reference within the CRP only counts as correlated when it comes
        # from the same process as the page's previous reference
        # (inter-process re-references — pair type (4) — stay independent).
        self.distinguish_processes = distinguish_processes
        # observe() only stashes the issuing process id; on metadata-free
        # streams there is nothing to stash, so drivers' fast paths may
        # skip the hook unless process-aware correlation is on.
        self.observe_optional = not distinguish_processes
        self._last_process: Dict[PageId, Optional[int]] = {}
        self._current_process: Optional[int] = None
        self.history = HistoryStore(
            k, retained_information_period=retained_information_period)
        self.stats = LRUKStats()
        #: Eviction decision provenance, opt-in: the un-instrumented
        #: victim-selection path pays exactly this one None-check (see
        #: :mod:`repro.obs.provenance`).
        self.provenance: Optional[ProvenanceRecorder] = None
        #: page -> residency began from a retained HIST block (Section
        #: 2.1.2); maintained only while provenance is attached.
        self._retained_admissions: Dict[PageId, bool] = {}
        # Victim heap of (HIST(q,K), HIST(q,1), page) entries, and each
        # resident page's live entry in it; an entry that is no page's
        # live entry is an orphan, dropped when it surfaces.
        self._heap: List[Tuple[int, int, PageId]] = []
        self._live: Dict[PageId, Tuple[int, int, PageId]] = {}
        # Bounded-memory mode: LRU order of history blocks (by LAST).
        self._block_lru: List[Tuple[int, PageId]] = []

    # -- reference processing (Figure 2.1) -------------------------------------

    def observe(self, reference, now: int) -> None:
        """Stash the issuing process for process-aware correlation."""
        self._current_process = reference.process_id

    def _is_correlated(self, page: PageId, block: HistoryBlock,
                       now: int) -> bool:
        """Time-Out Correlation test, optionally process-aware."""
        if now - block.last > self.crp:
            return False
        if not self.distinguish_processes:
            return True
        previous = self._last_process.get(page)
        return (previous is not None
                and previous == self._current_process)

    def on_hit(self, page: PageId, now: int) -> None:
        """The "p is already in the buffer" branch of Figure 2.1."""
        super().on_hit(page, now)
        block = self.history.get(page)
        if block is None:
            # Cannot happen through the public protocol (resident pages
            # always have blocks), but recover defensively.
            block, _ = self.history.get_or_create(page)
            block.record_uncorrelated(now)
            self._push(page, block)
        elif not self._is_correlated(page, block, now):
            # "a new, uncorrelated reference": the key grows, and victim
            # selection re-keys the page's heap entry when it surfaces.
            block.record_uncorrelated(now)
            self.stats.uncorrelated_references += 1
        else:
            # "a correlated reference"
            block.record_correlated(now)
            self.stats.correlated_references += 1
        if self.distinguish_processes:
            self._last_process[page] = self._current_process
        self._after_touch(page, block)

    def on_admit(self, page: PageId, now: int) -> None:
        """The fetch path of Figure 2.1 (after the victim was dropped)."""
        super().on_admit(page, now)
        block, created = self.history.get_or_create(page)
        if created:
            # "initialize history control block": HIST(p,i)=0 for i>=2.
            block.hist[0] = now
            block.last = now
        else:
            # "else for i := 2 to K do HIST(p,i) := HIST(p,i-1)"
            block.record_readmission(now)
        self.stats.admissions += 1
        self.stats.uncorrelated_references += 1
        if self.provenance is not None:
            self._retained_admissions[page] = not created
        if self.distinguish_processes:
            self._last_process[page] = self._current_process
        self._push(page, block)
        self._after_touch(page, block)

    def on_evict(self, page: PageId, now: int) -> None:
        super().on_evict(page, now)
        self.stats.evictions += 1
        # The victim's entry leaves the heap only when it is the top, as
        # after an unobstructed heap selection; otherwise it is an orphan.
        entry = self._live.pop(page, None)
        heap = self._heap
        if heap and heap[0] is entry:
            heapq.heappop(heap)
        block = self.history.get(page)
        if block is not None and block.kth_time() == 0:
            self.stats.infinite_distance_evictions += 1
        # The HIST block deliberately survives: Retained Information.

    # -- victim selection -------------------------------------------------------

    def choose_victim(self, now: int,
                      incoming: Optional[PageId] = None,
                      exclude: FrozenSet[PageId] = NO_EXCLUSIONS) -> PageId:
        self._check_candidates(exclude)
        if self.provenance is not None:
            return self._choose_with_provenance(now, incoming, exclude)
        if self.selection == "scan":
            victim = self._choose_by_scan(now, exclude)
        else:
            victim = self._choose_by_heap(now, exclude)
        if victim is None:
            victim = self._forced_choice(now, exclude)
        return victim

    def _choose_by_scan(self, now: int,
                        exclude: FrozenSet[PageId]) -> Optional[PageId]:
        """The literal Figure 2.1 selection loop (reference implementation)."""
        victim: Optional[PageId] = None
        best: Tuple[float, float] = (INFINITE_DISTANCE, INFINITE_DISTANCE)
        for q in self._resident:
            if q in exclude:
                continue
            block = self.history.get(q)
            if block is None:
                continue
            if now - block.last <= self.crp:
                continue  # inside its Correlated Reference Period
            key = (float(block.kth_time()), float(block.hist[0]))
            if key < best or victim is None:
                best = key
                victim = q
        return victim

    def _choose_by_heap(self, now: int,
                        exclude: FrozenSet[PageId]) -> Optional[PageId]:
        """Search-tree selection: min-heap over (HIST(q,K), HIST(q,1)).

        Leaves the victim's entry on the heap; :meth:`on_evict` drops it.
        """
        heap = self._heap
        live = self._live
        get = self.history.get
        set_aside: List[Tuple[int, int, PageId]] = []
        victim: Optional[PageId] = None
        while heap:
            entry = heap[0]
            _, first, page = entry
            if live.get(page) is not entry:
                heapq.heappop(heap)  # orphan: its page left the buffer
                continue
            block = get(page)
            if block is None:
                # The history went from under a resident page, which the
                # protocol never does; on_hit pushes a fresh entry.
                heapq.heappop(heap)
                del live[page]
                continue
            if block.hist[0] != first:
                # Out of date: any history change records a new HIST(q,1).
                fresh = (block.hist[-1], block.hist[0], page)
                heapq.heapreplace(heap, fresh)
                live[page] = fresh
                continue
            if page in exclude or now - block.last <= self.crp:
                # Excluded, or protected by the Correlated Reference Period.
                set_aside.append(heapq.heappop(heap))
                continue
            victim = page
            break
        for entry in set_aside:
            heapq.heappush(heap, entry)
        return victim

    def _choose_with_provenance(self, now: int,
                                incoming: Optional[PageId],
                                exclude: FrozenSet[PageId]) -> PageId:
        """Enumerating victim selection with a full decision record.

        Decision-identical to both production selectors: all three share
        the (HIST(q,K), HIST(q,1)) total order, and uncorrelated
        reference times are unique so ties cannot occur. Only runs while
        a :class:`~repro.obs.provenance.ProvenanceRecorder` is attached.
        """
        recorder = self.provenance
        assert recorder is not None
        eligible: List[Tuple[int, int, PageId]] = []
        crp_protected: List[PageId] = []
        excluded_total = 0
        for q in self._resident:
            if q in exclude:
                excluded_total += 1
                continue
            block = self.history.get(q)
            if block is None:
                continue
            if now - block.last <= self.crp:
                crp_protected.append(q)
                continue
            eligible.append((block.kth_time(), block.hist[0], q))
        forced = not eligible
        if forced:
            victim = self._forced_choice(now, exclude)
        else:
            victim = min(eligible)[2]

        eligible.sort()
        candidates: List[CandidateInfo] = []
        for kth, first, page in eligible[:recorder.top_candidates]:
            candidates.append(CandidateInfo(
                page=page, kth_time=kth, last_uncorrelated=first,
                backward_k_distance=(None if kth == 0
                                     else float(now - kth)),
                chosen=page == victim))
        if not any(info.chosen for info in candidates):
            block = self.history.get(victim)
            kth = block.kth_time() if block is not None else 0
            first = block.hist[0] if block is not None else 0
            candidates.append(CandidateInfo(
                page=victim, kth_time=kth, last_uncorrelated=first,
                backward_k_distance=(None if kth == 0
                                     else float(now - kth)),
                crp_protected=victim in crp_protected, chosen=True))

        victim_block = self.history.get(victim)
        decision = EvictionDecision(
            time=now,
            victim=victim,
            victim_distance=(None if victim_block is None
                             or victim_block.kth_time() == 0
                             else float(now - victim_block.kth_time())),
            victim_hist=(list(victim_block.hist) if victim_block is not None
                         else [0] * self.k),
            victim_last=victim_block.last if victim_block is not None else 0,
            candidates=candidates,
            considered=len(eligible),
            crp_excluded=sorted(crp_protected)[:recorder.top_candidates],
            crp_excluded_total=len(crp_protected),
            excluded_total=excluded_total,
            forced=forced,
            retained_history=self._retained_admissions.get(victim, False),
            incoming=incoming,
        )
        recorder.record(decision, resident=self._resident, exclude=exclude)
        obs = self.observability
        if obs is not None and obs.has_sinks:
            obs.emit(EvictionDecisionEvent.from_decision(decision))
        return victim

    def _forced_choice(self, now: int, exclude: FrozenSet[PageId]) -> PageId:
        """Every candidate is CRP-protected: evict the stalest burst."""
        victim: Optional[PageId] = None
        best_last = None
        for q in self._resident:
            if q in exclude:
                continue
            block = self.history.get(q)
            last = block.last if block is not None else 0
            if best_last is None or last < best_last:
                best_last = last
                victim = q
        if victim is None:
            raise NoEvictableFrameError("all resident pages are excluded")
        self.stats.forced_evictions += 1
        return victim

    # -- introspection ------------------------------------------------------------

    def backward_k_distance(self, page: PageId, now: int) -> float:
        """b_t(page, K) per Definition 2.1 (infinity when unknown)."""
        block = self.history.get(page)
        if block is None:
            return INFINITE_DISTANCE
        return block.backward_distance(now)

    def history_block(self, page: PageId) -> Optional[HistoryBlock]:
        """The page's HIST/LAST block, if retained."""
        return self.history.get(page)

    @property
    def retained_blocks(self) -> int:
        """Number of history control blocks currently in memory."""
        return len(self.history)

    def export_metrics(self, registry, prefix: str = "lruk") -> None:
        """Publish :class:`LRUKStats` and history occupancy as gauges.

        The gauges are callable-backed so they keep reading the *live*
        counters even across :meth:`reset` (which replaces the stats
        object). Registered names: every ``LRUKStats`` field plus
        ``history_informed_evictions``, ``retained_history_blocks`` and
        ``purged_history_blocks``, all under ``{prefix}.``.
        """
        for spec in fields(LRUKStats):
            registry.gauge(f"{prefix}.{spec.name}",
                           lambda name=spec.name: getattr(self.stats, name))
        registry.gauge(f"{prefix}.history_informed_evictions",
                       lambda: self.stats.history_informed_evictions)
        registry.gauge(f"{prefix}.retained_history_blocks",
                       lambda: len(self.history))
        registry.gauge(f"{prefix}.purged_history_blocks",
                       lambda: self.history.purged_blocks)

    @property
    def stack_hits(self):
        """The stack pass hook, declared only where LRU-K is a stack
        algorithm; None otherwise.

        With CRP 0 a hit and a readmission shift the history alike, so
        every buffer size sees the same history, and with it the same
        victim key (HIST(q,K), HIST(q,1), q). The hook is declared only
        for that configuration with unlimited retention, heap selection,
        no process awareness, unbounded history and no provenance
        recorder; any of those makes history or selection depend on the
        run.
        """
        if (self.crp or self.history.retained_information_period is not None
                or self.selection != "heap" or self.distinguish_processes
                or self.max_history_blocks is not None
                or self.provenance is not None):
            return None
        return self._stack_pass

    @property
    def stack_key(self) -> int:
        """What tells this policy's stack pass from another LRU-K's: K
        (a trace cache keys passes by it)."""
        return self.k

    def _stack_pass(self, pages, warmup: int, next_write=None,
                    capacities=None):
        """A fresh run's totals and :class:`LRUKStats` at each of
        ``capacities``, from one :func:`~repro.policies.kernel.stack_pass`.

        Returns None for ``capacities=None`` (every size): only the
        sizes asked for are answered. Each size's stats equal a kernel
        run's: every reference is uncorrelated, every miss admits, and
        correlated references, forced evictions and heap compactions
        cannot occur.
        """
        if capacities is None:
            return None
        from ..policies.kernel import stack_pass
        k = self.k
        blank = (0,) * k
        history: Dict[PageId, Tuple[int, ...]] = {}

        def key_of(page, t, previous):
            # HIST(p,1..K) after a reference at t: the times shift.
            times = history[page] = (t,) + history.get(page, blank)[:-1]
            return (times[-1], t, page)
        result = stack_pass(pages, warmup, next_write, capacities, key_of)
        stats = []
        for capacity, infinite in zip(result.capacities,
                                      result.zero_key_evictions):
            totals = result.at(capacity)
            stats.append(LRUKStats(
                uncorrelated_references=result.references,
                admissions=totals.warmup_misses + totals.misses,
                evictions=totals.evictions,
                infinite_distance_evictions=infinite))
        return replace(result, stats=tuple(stats))

    def make_kernel(self, capacity: int):
        """Fused whole-trace kernel (see :mod:`repro.core.kernel`).

        Offered only for configurations the fused loop replicates
        bit-identically: heap selection, no process-aware correlation, no
        bounded history memory, no provenance recorder, and a fresh
        (no-residents) policy. Everything else returns None and is driven
        through the object path.
        """
        from .kernel import make_lruk_kernel
        return make_lruk_kernel(self, capacity)

    # -- internals ------------------------------------------------------------------

    def _push(self, page: PageId, block: HistoryBlock) -> None:
        heap = self._heap
        entry = (block.kth_time(), block.hist[0], page)
        heapq.heappush(heap, entry)
        self._live[page] = entry
        # Orphans come only from evictions whose entry was not the heap
        # top (CRP set-asides, exclusions, forced or driver-chosen
        # victims); rebuild from the residents should they pile up.
        if len(heap) > 2 * len(self._resident) + HEAP_COMPACT_SLACK:
            self._compact_heap()

    def _compact_heap(self) -> None:
        """Rebuild the victim heap with one fresh entry per resident page."""
        get = self.history.get
        live: Dict[PageId, Tuple[int, int, PageId]] = {}
        for page in self._resident:
            block = get(page)
            if block is not None:
                live[page] = (block.kth_time(), block.hist[0], page)
        heap = list(live.values())
        heapq.heapify(heap)
        self._heap = heap
        self._live = live
        self.stats.heap_compactions += 1

    def _after_touch(self, page: PageId, block: HistoryBlock) -> None:
        purged = self.history.touch(page, self._resident.__contains__)
        if purged:
            obs = self.observability
            if obs is not None and obs.has_sinks:
                obs.emit(PurgeEvent(time=block.last, dropped=purged,
                                    retained=len(self.history)))
        if self.max_history_blocks is not None:
            heapq.heappush(self._block_lru, (block.last, page))
            self._enforce_block_bound()

    def _enforce_block_bound(self) -> None:
        bound = self.max_history_blocks
        assert bound is not None
        set_aside: List[Tuple[int, PageId]] = []
        while len(self.history) > bound and self._block_lru:
            last, page = heapq.heappop(self._block_lru)
            block = self.history.get(page)
            if block is None or block.last != last:
                continue  # stale
            if page in self._resident:
                set_aside.append((last, page))
                continue
            self.history.drop(page)
        for entry in set_aside:
            heapq.heappush(self._block_lru, entry)

    def reset(self) -> None:
        super().reset()
        self.history.clear()
        self.stats = LRUKStats()
        self._heap.clear()
        self._live.clear()
        self._block_lru.clear()
        self._last_process.clear()
        self._current_process = None
        self._retained_admissions.clear()


def _make_lruk(**kwargs) -> LRUKPolicy:
    return LRUKPolicy(**kwargs)


register_policy_factory("lru-k", _make_lruk)
register_policy_factory("lru-2", lambda **kw: LRUKPolicy(k=2, **kw))
register_policy_factory("lru-3", lambda **kw: LRUKPolicy(k=3, **kw))
