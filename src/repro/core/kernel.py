"""The fused LRU-K simulation kernel.

This is the hot path behind every sweep cell the harness runs with the
default policy family: one function that plays an entire compact page-id
trace through the full Figure 2.1 algorithm — CRP-aware hit handling,
history shifts, lazy-heap victim selection, the forced-eviction fallback,
and the Retained Information purge demon — with every data structure
bound to a local and zero per-reference allocation.

Where :class:`~repro.core.lruk.LRUKPolicy` driven through
:meth:`~repro.sim.CacheSimulator.access_page` pays, per reference, a
clock tick, an ``observe``-skippability check, two or three policy-hook
dispatches, and two method-chained pushes (``LRUKPolicy._push`` +
``HistoryStore.touch``), the kernel pays one dict hit plus at most one
``heappush``. The K=2 history shifts are specialized to branchless
two-slot updates (see :meth:`~repro.core.history.HistoryBlock.
record_uncorrelated`); general K falls back to the block methods but
keeps the fused loop.

The kernel is *decision-identical* to the object path — same hit/miss
sequence, same evictions, same final :class:`~repro.core.lruk.LRUKStats`,
same retained-history population, same heap multiset — which is
property-tested against the object path in ``tests/sim/test_kernels.py``.
Configurations the fused loop does not replicate (the literal Figure 2.1
scan selector, process-aware correlation, bounded history memory, an
attached provenance recorder, or a policy that already holds residents)
yield no kernel, and the driver falls back to the object path.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import NoEvictableFrameError
from ..policies.kernel import KernelResult, SimulationKernel
from ..types import PageId
from .history import HistoryBlock

__all__ = ["make_lruk_batch_kernel", "make_lruk_kernel"]


def make_lruk_kernel(policy, capacity: int) -> Optional[SimulationKernel]:
    """Build the fused trace runner for one LRU-K policy instance.

    Returns None whenever the configuration carries a feature the fused
    loop does not replicate — the driver then uses the object path:

    - ``selection="scan"``: the literal Figure 2.1 loop is the reference
      implementation; its heap bookkeeping diverges from the production
      selector's, so the kernel (which fuses the heap selector) would not
      leave bit-identical state behind.
    - ``distinguish_processes``: correlation then depends on per-reference
      process ids, which a bare page-id stream cannot carry.
    - ``max_history_blocks``: bounded history memory maintains a second
      block-LRU heap the kernel does not fuse.
    - an attached :class:`~repro.obs.provenance.ProvenanceRecorder`:
      kernels are observability-free by contract.
    - pre-existing residency: the kernel cannot reconstruct mid-run
      driver state.
    """
    from .lruk import HEAP_COMPACT_SLACK  # local: avoids import cycle

    if (policy.selection != "heap" or policy.distinguish_processes
            or policy.max_history_blocks is not None
            or policy.provenance is not None or policy._resident):
        return None

    k = policy.k
    crp = policy.crp
    store = policy.history
    compact_slack = HEAP_COMPACT_SLACK

    def kernel(pages: Sequence[PageId], warmup: int) -> KernelResult:
        # -- locals-bound policy state ------------------------------------
        stats = policy.stats
        blocks = store._blocks
        get_block = blocks.get
        expiry = store._expiry
        touches = store._touches_since_purge
        rip = store.retained_information_period
        purge_interval = store.purge_interval
        heap = policy._heap
        resident: Dict[PageId, int] = {}
        k2 = k == 2
        # -- locals-accumulated counters, flushed once at the end ---------
        warmup_hits = warmup_misses = hits = misses = 0
        evictions = infinite = forced = admissions = 0
        uncorrelated = correlated = compactions = purged = 0
        t = 0

        for boundary, segment in enumerate((pages[:warmup], pages[warmup:])):
            for page in segment:
                t += 1
                block = get_block(page)
                if page in resident:
                    # -- Figure 2.1, "p is already in the buffer" ---------
                    hits += 1
                    if block is None:
                        # Defensive parity with LRUKPolicy.on_hit: resident
                        # pages always have blocks through this entry point,
                        # but recover identically if not.
                        block = HistoryBlock(k)
                        blocks[page] = block
                        block.record_uncorrelated(t)
                        heappush(heap, (block.hist[-1], t, page))
                        if len(heap) > 2 * len(resident) + compact_slack:
                            heap = _compact(resident, get_block)
                            compactions += 1
                    elif t - block.last > crp:
                        # A new, uncorrelated reference.
                        if k2:
                            hist = block.hist
                            hist[1] = hist[0] and block.last
                            hist[0] = t
                            block.last = t
                            key = hist[1]
                        else:
                            block.record_uncorrelated(t)
                            key = block.hist[-1]
                        uncorrelated += 1
                        heappush(heap, (key, t, page))
                        if len(heap) > 2 * len(resident) + compact_slack:
                            heap = _compact(resident, get_block)
                            compactions += 1
                    else:
                        # A correlated reference: only LAST moves.
                        block.last = t
                        correlated += 1
                else:
                    # -- Figure 2.1, the fetch path -----------------------
                    misses += 1
                    if len(resident) >= capacity:
                        # Victim selection over the lazy heap.
                        victim = None
                        if crp:
                            set_aside: Optional[List[Tuple[int, int,
                                                           PageId]]] = None
                            while heap:
                                entry = heappop(heap)
                                kth, first, q = entry
                                b = get_block(q)
                                if (q not in resident or b is None
                                        or b.hist[-1] != kth
                                        or b.hist[0] != first):
                                    continue  # stale entry
                                if set_aside is None:
                                    set_aside = []
                                set_aside.append(entry)
                                if t - b.last <= crp:
                                    continue  # CRP-protected
                                victim = q
                                break
                            if set_aside:
                                for entry in set_aside:
                                    heappush(heap, entry)
                        else:
                            # CRP disabled: nothing is protected, so the
                            # first live entry wins and can stay in place
                            # (the object path pops it and pushes it back;
                            # the heap multiset is identical either way).
                            while heap:
                                kth, first, q = heap[0]
                                b = get_block(q)
                                if (q not in resident or b is None
                                        or b.hist[-1] != kth
                                        or b.hist[0] != first):
                                    heappop(heap)
                                    continue
                                victim = q
                                break
                        if victim is None:
                            # Forced choice: evict the stalest burst.
                            best_last = None
                            for q in resident:
                                b = get_block(q)
                                q_last = b.last if b is not None else 0
                                if best_last is None or q_last < best_last:
                                    best_last = q_last
                                    victim = q
                            if victim is None:
                                raise NoEvictableFrameError(
                                    "no resident pages to evict")
                            forced += 1
                        del resident[victim]
                        evictions += 1
                        b = get_block(victim)
                        if b is not None and b.hist[-1] == 0:
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
                    admissions += 1
                    uncorrelated += 1
                    resident[page] = t
                    heappush(heap, (key, t, page))
                    if len(heap) > 2 * len(resident) + compact_slack:
                        heap = _compact(resident, get_block)
                        compactions += 1
                # -- HistoryStore.touch: the amortized purge demon --------
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
            if boundary == 0:
                warmup_hits, warmup_misses = hits, misses
                hits = misses = 0
                warmup_ended = perf_counter_ns()

        # -- flush locals back into the policy's bookkeeping --------------
        policy._resident.update(resident)
        policy._heap = heap
        store._touches_since_purge = touches
        store.purged_blocks += purged
        stats.uncorrelated_references += uncorrelated
        stats.correlated_references += correlated
        stats.admissions += admissions
        stats.evictions += evictions
        stats.infinite_distance_evictions += infinite
        stats.forced_evictions += forced
        stats.heap_compactions += compactions
        return KernelResult(warmup_hits, warmup_misses, hits, misses,
                            evictions, resident, t, warmup_ended)

    return kernel


def make_lruk_batch_kernel(policy, capacity: int) -> Optional[SimulationKernel]:
    """Run-skipping batch runner for LRU-K (see ``repro.policies.kernel``).

    Between two misses the resident set is frozen, so a whole window of
    references can be classified with one numpy bitmap gather. For a hit
    run the per-reference work collapses to vector arithmetic:

    - *recency* (``HistoryBlock.last``) lives in a dense int64 array
      during the run; each distinct page's final value is its last
      occurrence time, one scatter per run, with ``block.last`` flushed
      from the array once at the end;
    - *correlation* splits the run vectorially — a stable argsort groups
      occurrences by page, the gap to the previous touch (in-run
      predecessor, or the recency array for the first occurrence) against
      CRP marks each hit correlated or uncorrelated;
    - the rare *uncorrelated* hits are then replayed scalar, in global
      time order, applying exactly the scalar kernel's history shifts,
      heap pushes, and compaction checks, so the heap multiset and
      ``heap_compactions`` stay bit-identical.

    Misses run the scalar kernel's victim/admission logic verbatim, with
    ``block.last`` reads replaced by the recency array (the in-run
    authority). Declines everything the scalar kernel declines, plus a
    configured Retained Information purge demon (its amortized expiry
    heap is inherently per-touch) — the driver then falls back to the
    scalar kernel.
    """
    from ..policies import kernel as _policy_kernels
    from ..policies.kernel import (_MAX_SCAN, _MIN_SCAN, _batch_guard,
                                   batch_trace_view)
    from ..workloads.vectorized import numpy_or_none
    from .lruk import HEAP_COMPACT_SLACK

    if (policy.selection != "heap" or policy.distinguish_processes
            or policy.max_history_blocks is not None
            or policy.provenance is not None or policy._resident
            or policy.history.retained_information_period is not None):
        return None
    if numpy_or_none() is None:
        return None

    k = policy.k
    crp = policy.crp
    store = policy.history
    compact_slack = HEAP_COMPACT_SLACK

    def kernel(pages: Sequence[PageId],
               warmup: int) -> Optional[KernelResult]:
        if warmup < 0:
            return None  # scalar slicing semantics; not worth replicating
        view = batch_trace_view(pages)
        if view is None:
            return None
        np, trace = view
        universe = _batch_guard(np, trace, capacity)
        if universe is None:
            return None
        n = len(trace)
        probe = _policy_kernels.BATCH_PROBE_REFS
        if probe and n > probe and crp:
            # Estimate the uncorrelated-hit fraction on the prefix: each
            # one replays scalar bookkeeping inside the batch loop, so a
            # trace dominated by them batches at a loss.
            head_seg = trace[:probe]
            order = np.argsort(head_seg, kind="stable")
            times = order.astype(np.int64, copy=False)
            sp = head_seg[order]
            gaps = np.empty(probe, dtype=np.int64)
            gaps[0] = crp + 1
            np.subtract(times[1:], times[:-1], out=gaps[1:])
            gaps[1:][sp[1:] != sp[:-1]] = crp + 1  # first touches
            fraction = float(np.count_nonzero(gaps > crp)) / probe
            if fraction > _policy_kernels.BATCH_MAX_UNCORRELATED_FRACTION:
                return None

        stats = policy.stats
        blocks = store._blocks
        get_block = blocks.get
        heap = policy._heap
        resident: Dict[PageId, int] = {}
        resident_map = np.zeros(universe, dtype=bool)
        # The in-run authority for ``block.last``; seeded from retained
        # history, flushed back once at the end. Blocks for pages outside
        # this trace's universe are untouchable by the run and keep
        # their own ``last``.
        last_arr = np.zeros(universe, dtype=np.int64)
        for pg, blk in blocks.items():
            if 0 <= pg < universe:
                last_arr[pg] = blk.last
        k2 = k == 2
        warmup_hits = warmup_misses = hits = misses = 0
        evictions = infinite = forced = admissions = 0
        uncorrelated = correlated = compactions = 0

        def record_uncorrelated_hit(page: PageId, now: int,
                                    prev_last: int) -> None:
            """The scalar kernel's uncorrelated-hit path, history+heap."""
            nonlocal heap, compactions
            block = get_block(page)
            if block is None:
                # Unreachable from a fresh policy (every resident page
                # was admitted by this kernel); mirrors the scalar
                # recovery branch anyway.
                block = HistoryBlock(k)
                blocks[page] = block
                block.record_uncorrelated(now)
                key = block.hist[-1]
            elif k2:
                hist = block.hist
                hist[1] = hist[0] and prev_last
                hist[0] = now
                key = hist[1]
            else:
                # record_uncorrelated derives the correlation period
                # from ``self.last``, which the batch loop defers to
                # last_arr — restore the authoritative value first.
                block.last = prev_last
                block.record_uncorrelated(now)
                key = block.hist[-1]
            heappush(heap, (key, now, page))
            if len(heap) > 2 * len(resident) + compact_slack:
                heap = _compact(resident, get_block)
                compactions += 1

        def apply_run(s: int, e: int) -> None:
            """Book a pure hit run ``trace[s:e]`` (times ``s+1 .. e``)."""
            nonlocal heap, hits, uncorrelated, correlated, compactions
            m = e - s
            hits += m
            seg = trace[s:e]
            if m < 32:
                now = s
                for page in seg.tolist():
                    now += 1
                    prev_last = int(last_arr[page])
                    last_arr[page] = now
                    if now - prev_last > crp:
                        uncorrelated += 1
                        block = get_block(page)
                        if k2 and block is not None:
                            hist = block.hist
                            hist[1] = hist[0] and prev_last
                            hist[0] = now
                            heappush(heap, (hist[1], now, page))
                            if len(heap) > (2 * len(resident)
                                            + compact_slack):
                                heap = _compact(resident, get_block)
                                compactions += 1
                        else:
                            record_uncorrelated_hit(page, now, prev_last)
                    else:
                        correlated += 1
                return
            order = np.argsort(seg, kind="stable")
            sp = seg[order]
            times = order.astype(np.int64, copy=False) + (s + 1)
            head = np.empty(m, dtype=bool)
            head[0] = True
            np.not_equal(sp[1:], sp[:-1], out=head[1:])
            prev = np.empty(m, dtype=np.int64)
            prev[1:] = times[:-1]
            prev[head] = last_arr[sp[head]]
            uncorr = (times - prev) > crp
            ucount = int(uncorr.sum())
            correlated += m - ucount
            uncorrelated += ucount
            head_idx = np.nonzero(head)[0]
            tail_idx = np.empty_like(head_idx)
            tail_idx[:-1] = head_idx[1:] - 1
            tail_idx[-1] = m - 1
            last_arr[sp[head_idx]] = times[tail_idx]
            if not ucount:
                return
            sel = np.nonzero(uncorr)[0]
            # Replay history/heap effects in global time order so heap
            # growth (and therefore compaction points) matches scalar.
            sel = sel[np.argsort(times[sel], kind="stable")]
            threshold = 2 * len(resident) + compact_slack
            for now, page, prev_last in zip(times[sel].tolist(),
                                            sp[sel].tolist(),
                                            prev[sel].tolist()):
                block = get_block(page)
                if k2 and block is not None:
                    # The closure's k=2 branch inlined: this loop runs
                    # once per uncorrelated hit and dominates the batch
                    # path on burst-heavy traces.
                    hist = block.hist
                    hist[1] = hist[0] and prev_last
                    hist[0] = now
                    heappush(heap, (hist[1], now, page))
                    if len(heap) > threshold:
                        heap = _compact(resident, get_block)
                        compactions += 1
                else:
                    record_uncorrelated_hit(page, now, prev_last)

        scan = _MIN_SCAN
        boundary = min(warmup, n)
        for index, (lo, hi) in enumerate(((0, boundary), (boundary, n))):
            pos = lo
            while pos < hi:
                end = min(hi, pos + scan)
                window = trace[pos:end]
                member = resident_map[window]
                first_miss = int(member.argmin())
                if member[first_miss]:
                    first_miss = end - pos  # whole window resident
                if first_miss:
                    apply_run(pos, pos + first_miss)
                if first_miss == end - pos:
                    pos = end
                    if scan < _MAX_SCAN:
                        scan *= 2
                    continue
                if first_miss < scan // 4 and scan > _MIN_SCAN:
                    scan //= 2
                # -- the scalar kernel's fetch path, verbatim, with
                #    block.last reads replaced by last_arr ---------------
                j = pos + first_miss
                t = j + 1
                page = int(trace[j])
                misses += 1
                block = get_block(page)
                if len(resident) >= capacity:
                    victim = None
                    if crp:
                        set_aside: Optional[List[Tuple[int, int,
                                                       PageId]]] = None
                        while heap:
                            entry = heappop(heap)
                            kth, first, q = entry
                            b = get_block(q)
                            if (q not in resident or b is None
                                    or b.hist[-1] != kth
                                    or b.hist[0] != first):
                                continue  # stale entry
                            if set_aside is None:
                                set_aside = []
                            set_aside.append(entry)
                            if t - int(last_arr[q]) <= crp:
                                continue  # CRP-protected
                            victim = q
                            break
                        if set_aside:
                            for entry in set_aside:
                                heappush(heap, entry)
                    else:
                        while heap:
                            kth, first, q = heap[0]
                            b = get_block(q)
                            if (q not in resident or b is None
                                    or b.hist[-1] != kth
                                    or b.hist[0] != first):
                                heappop(heap)
                                continue
                            victim = q
                            break
                    if victim is None:
                        best_last = None
                        for q in resident:
                            b = get_block(q)
                            q_last = int(last_arr[q]) if b is not None else 0
                            if best_last is None or q_last < best_last:
                                best_last = q_last
                                victim = q
                        if victim is None:
                            raise NoEvictableFrameError(
                                "no resident pages to evict")
                        forced += 1
                    del resident[victim]
                    resident_map[victim] = False
                    evictions += 1
                    b = get_block(victim)
                    if b is not None and b.hist[-1] == 0:
                        infinite += 1
                if block is None:
                    block = HistoryBlock(k)
                    blocks[page] = block
                    block.hist[0] = t
                    key = block.hist[-1]
                elif k2:
                    hist = block.hist
                    hist[1] = hist[0]
                    hist[0] = t
                    key = hist[1]
                else:
                    block.record_readmission(t)
                    key = block.hist[-1]
                last_arr[page] = t
                admissions += 1
                uncorrelated += 1
                resident[page] = t
                resident_map[page] = True
                heappush(heap, (key, t, page))
                if len(heap) > 2 * len(resident) + compact_slack:
                    heap = _compact(resident, get_block)
                    compactions += 1
                pos = j + 1
            if index == 0:
                warmup_hits, warmup_misses = hits, misses
                hits = misses = 0
                warmup_ended = perf_counter_ns()

        # -- flush: recency array back into the blocks, locals into the
        #    policy — exactly the scalar kernel's final state ------------
        for pg, blk in blocks.items():
            if 0 <= pg < universe:
                blk.last = int(last_arr[pg])
        policy._resident.update(resident)
        policy._heap = heap
        stats.uncorrelated_references += uncorrelated
        stats.correlated_references += correlated
        stats.admissions += admissions
        stats.evictions += evictions
        stats.infinite_distance_evictions += infinite
        stats.forced_evictions += forced
        stats.heap_compactions += compactions
        return KernelResult(warmup_hits, warmup_misses, hits, misses,
                            evictions, resident, n, warmup_ended)

    return kernel


def _compact(resident: Dict[PageId, int], get_block) -> list:
    """Rebuild the lazy victim heap from the live resident population.

    Mirrors ``LRUKPolicy._compact_heap``; iteration order differs from
    the policy's set but heapify over the same entry multiset yields the
    same pop sequence, so decisions are unaffected.
    """
    heap = []
    append = heap.append
    for page in resident:
        block = get_block(page)
        if block is not None:
            append((block.hist[-1], block.hist[0], page))
    heapify(heap)
    return heap
