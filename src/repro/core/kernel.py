"""The fused LRU-K simulation kernel.

This is the hot path behind every sweep cell the harness runs with the
default policy family: one function that plays a compact page-id trace,
one protocol window per call, through the full Figure 2.1 algorithm —
CRP-aware hit handling, history shifts, heap victim selection, the
forced-eviction fallback, and the Retained Information purge demon —
with every data structure bound to a local and zero per-reference
allocation. Like every kernel (see :mod:`repro.policies.kernel`) it
keeps its state between calls, counts write-backs from the trace's
write column, and returns hits, write-backs and residents; it also
keeps the policy's :class:`~repro.core.lruk.LRUKStats`, deriving
admissions and evictions from the hits and the change in residents.

Where :class:`~repro.core.lruk.LRUKPolicy` driven through
:meth:`~repro.sim.CacheSimulator.access_page` pays, per reference, a
clock tick, an ``observe``-skippability check, two or three policy-hook
dispatches, and a method-chained ``HistoryStore.touch``, the kernel pays
one dict hit and, on a hit, the history update alone. Heap work happens
only on a miss: the admitted page's entry is pushed, and victim
selection re-keys out-of-date tops in place (see :mod:`repro.core.lruk`).
The K=2 history shifts are specialized to branchless two-slot updates
(see :meth:`~repro.core.history.HistoryBlock.record_uncorrelated`);
general K falls back to the block methods but keeps the fused loop.

The kernel is *decision-identical* to the object path — same hit/miss
sequence, same evictions, same final :class:`~repro.core.lruk.LRUKStats`,
same retained-history population, same heap multiset — which is
property-tested against the object path in ``tests/sim/test_kernels.py``.
Where the policy keeps a map from each resident page to its live heap
entry, the kernel tells a live entry by the page's admission time (an
orphan left by an earlier residency is older) and rebuilds the map on
return. Configurations the fused loop does not replicate (the literal
Figure 2.1 scan selector, process-aware correlation, bounded history
memory, an attached provenance recorder, or a policy that already holds
residents or heap entries) yield no kernel, and the driver falls back to
the object path.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import NoEvictableFrameError
from ..policies.base import HEAP_COMPACT_SLACK
from ..policies.kernel import KernelTotals, SimulationKernel
from ..types import PageId
from .history import HistoryBlock

__all__ = ["make_lruk_kernel"]


def make_lruk_kernel(policy, capacity: int) -> Optional[SimulationKernel]:
    """Build the fused trace runner for one LRU-K policy instance.

    Returns None whenever the configuration carries a feature the fused
    loop does not replicate — the driver then uses the object path:

    - ``selection="scan"``: the literal Figure 2.1 loop is the reference
      implementation; its heap bookkeeping diverges from the production
      selector's, so the kernel (which fuses the heap selector) would not
      leave bit-identical state behind.
    - ``distinguish_processes``: correlation then depends on per-reference
      process ids, which the page and write columns do not carry.
    - ``max_history_blocks``: bounded history memory maintains a second
      block-LRU heap the kernel does not fuse.
    - an attached :class:`~repro.obs.provenance.ProvenanceRecorder`:
      kernels are observability-free by contract.
    - pre-existing residency or heap entries: the kernel cannot
      reconstruct mid-run driver state.
    """
    if (policy.selection != "heap" or policy.distinguish_processes
            or policy.max_history_blocks is not None
            or policy.provenance is not None or policy._resident
            or policy._heap):
        return None

    k = policy.k
    crp = policy.crp
    store = policy.history
    compact_slack = HEAP_COMPACT_SLACK
    resident: Dict[PageId, int] = {}

    def kernel(pages: Iterable[PageId], t: int,
               next_write: Optional[Sequence[int]]) -> KernelTotals:
        # -- locals-bound policy state ------------------------------------
        stats = policy.stats
        blocks = store._blocks
        get_block = blocks.get
        expiry = store._expiry
        touches = store._touches_since_purge
        rip = store.retained_information_period
        purge_interval = store.purge_interval
        heap = policy._heap
        k2 = k == 2
        # -- locals-accumulated counters, flushed once at the end ---------
        # Misses, admissions and evictions follow from these, the
        # number of references and the change in residents.
        hits = writebacks = correlated = infinite = forced = 0
        compactions = purged = 0
        start, residents_before = t, len(resident)

        for t, page in enumerate(pages, t + 1):
            block = get_block(page)
            if page in resident:
                # -- Figure 2.1, "p is already in the buffer" -------------
                # Resident pages always have blocks, and the key grows
                # in place: selection re-keys the heap entry later.
                hits += 1
                if t - block.last > crp:
                    # A new, uncorrelated reference.
                    if k2:
                        # HIST(p,1) is set while resident, so
                        # `hist[0] and block.last` is LAST(p).
                        hist = block.hist
                        hist[1] = block.last
                        hist[0] = t
                        block.last = t
                    else:
                        block.record_uncorrelated(t)
                else:
                    # A correlated reference: only LAST moves.
                    block.last = t
                    correlated += 1
            else:
                # -- Figure 2.1, the fetch path ---------------------------
                if len(resident) >= capacity:
                    # Victim selection: an entry is up to date while
                    # its HIST(q,1) is, since any history change
                    # records a new HIST(q,1).
                    if crp:
                        victim = None
                        set_aside: Optional[List[Tuple[int, int,
                                                       PageId]]] = None
                        while heap:
                            entry = heap[0]
                            _, first, q = entry
                            admitted_at = resident.get(q)
                            if admitted_at is None or first < admitted_at:
                                heappop(heap)  # orphan
                                continue
                            b = get_block(q)
                            if b.hist[0] != first:
                                heapreplace(heap, (b.hist[-1], b.hist[0], q))
                                continue
                            if t - b.last <= crp:
                                # CRP-protected.
                                if set_aside is None:
                                    set_aside = []
                                set_aside.append(heappop(heap))
                                continue
                            victim = q
                            break
                        if set_aside:
                            for entry in set_aside:
                                heappush(heap, entry)
                        if victim is None:
                            # Forced choice: evict the stalest burst.
                            best_last = None
                            for q in resident:
                                q_last = get_block(q).last
                                if best_last is None or q_last < best_last:
                                    best_last = q_last
                                    victim = q
                            if victim is None:
                                raise NoEvictableFrameError(
                                    "no resident pages to evict")
                            forced += 1
                        # The top is a live entry; it goes with its
                        # page (LRUKPolicy.on_evict).
                        if heap and heap[0][2] == victim:
                            heappop(heap)
                    else:
                        # CRP disabled: nothing is protected and no
                        # orphan ever forms, so the heap holds exactly
                        # the residents and the first up-to-date top
                        # is the victim.
                        while True:
                            _, first, victim = heap[0]
                            hist = get_block(victim).hist
                            if hist[0] == first:
                                break
                            heapreplace(heap, (hist[-1], hist[0], victim))
                        heappop(heap)
                    if next_write is None:
                        del resident[victim]
                    elif next_write[resident.pop(victim) - 1] < t:
                        writebacks += 1
                    if get_block(victim).hist[-1] == 0:
                        infinite += 1
                    # The HIST block survives: Retained Information.
                # Admission (LRUKPolicy.on_admit).
                if block is None:
                    # "initialize history control block"
                    block = HistoryBlock(k)
                    blocks[page] = block
                    block.hist[0] = t
                    block.last = t
                    key = block.hist[-1]
                elif k2:
                    hist = block.hist
                    hist[1] = hist[0]
                    hist[0] = t
                    block.last = t
                    key = hist[1]
                else:
                    block.record_readmission(t)
                    key = block.hist[-1]
                resident[page] = t
                heappush(heap, (key, t, page))
                if len(heap) > 2 * len(resident) + compact_slack:
                    heap = _compact(resident, get_block)
                    compactions += 1
            # -- HistoryStore.touch: the amortized purge demon ------------
            if rip is not None:
                heappush(expiry, (t, page))
                touches += 1
                if touches >= purge_interval:
                    touches = 0
                    postponed = None
                    while expiry and expiry[0][0] + rip < t:
                        entry = heappop(expiry)
                        last, q = entry
                        b = get_block(q)
                        if b is None or b.last != last:
                            continue  # stale: the page was touched again
                        if q in resident:
                            # Resident blocks are always retained.
                            if postponed is None:
                                postponed = []
                            postponed.append(entry)
                            continue
                        del blocks[q]
                        purged += 1
                    if postponed:
                        for entry in postponed:
                            heappush(expiry, entry)

        # -- flush locals back into the policy's bookkeeping --------------
        misses = t - start - hits
        policy._resident = set(resident)
        policy._heap = heap
        # Live entries are no older than their page's admission.
        policy._live = {entry[2]: entry for entry in heap
                        if entry[2] in resident
                        and entry[1] >= resident[entry[2]]}
        store._touches_since_purge = touches
        store.purged_blocks += purged
        # Every miss is an uncorrelated reference that admits a page.
        stats.uncorrelated_references += misses + hits - correlated
        stats.correlated_references += correlated
        stats.admissions += misses
        stats.evictions += misses - (len(resident) - residents_before)
        stats.infinite_distance_evictions += infinite
        stats.forced_evictions += forced
        stats.heap_compactions += compactions
        return hits, writebacks, resident

    return kernel


def _compact(resident: Dict[PageId, int], get_block) -> list:
    """Rebuild the victim heap with one fresh entry per resident page.

    Mirrors ``LRUKPolicy._compact_heap``; iteration order differs from
    the policy's set but heapify over the same entry multiset yields the
    same pop sequence, so decisions are unaffected.
    """
    heap = []
    append = heap.append
    for page in resident:
        hist = get_block(page).hist
        append((hist[-1], hist[0], page))
    heapify(heap)
    return heap
