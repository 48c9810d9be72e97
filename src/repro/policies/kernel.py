"""Fused per-policy simulation kernels.

The object-path hot loop (:meth:`repro.sim.CacheSimulator.access_page`)
pays per reference for what is, algorithmically, a handful of dict and
heap operations: a clock method call, two or three policy-hook dispatches,
attribute lookups on the policy's bookkeeping structures, and the
observability guards. On a plain page-id stream none of that dispatch
carries information — the reference is a bare integer and the policy's
decision procedure is fixed for the whole run.

A *simulation kernel* removes the dispatch. A policy may override
:meth:`~repro.policies.base.ReplacementPolicy.make_kernel` to return a
closure that processes an **entire compact page-id trace** (the
``array('q')`` form of :class:`repro.sim.trace_cache.CachedTrace`) in one
fused loop with the policy's data structures bound to locals, stat
counters accumulated in plain ints, and no per-reference allocation.

The contract every kernel must honour:

- **Decision-identical.** Driving ``kernel(pages, warmup)`` from a fresh
  simulator produces the same hit/miss sequence, the same evictions, the
  same final policy state (residency, history, heap contents as a
  multiset, stats counters) as calling ``access_page(page)`` once per
  reference with ``start_measurement()`` at the warm-up boundary. This is
  property-tested in ``tests/sim/test_kernels.py``.
- **State-synchronizing.** On return the policy's own bookkeeping is
  exactly what the object path would have left behind, so introspection
  (``resident_pages``, history blocks, stats) and any further object-path
  driving work unchanged.
- **Aggregate-observable only.** Kernels never emit events and never
  record provenance; what they report is the :class:`KernelResult`
  totals plus the moment the warm-up window ended, from which the
  measurement protocol records the run's ``warmup``/``measure`` spans
  and counters. Simulators must bypass them whenever a *per-reference*
  channel is attached — an event sink that takes access/eviction
  events, an eviction-decision provenance recorder, the simulator's
  eviction log, or hook profiling (whose wrapper offers no kernel). An
  ambient tracer, metrics, and run-level sinks such as progress
  narration do not. :meth:`~repro.sim.cache.CacheSimulator.run_fused`
  enforces this and falls back to the object path.
- **Fresh-state only.** Factories return None when the policy already
  holds resident pages (a kernel cannot reconstruct mid-run driver
  state), or when the configuration has features the fused loop does not
  replicate — then the driver silently falls back.

``make_kernel(capacity)`` returns either ``None`` (no kernel for this
configuration) or a callable ``kernel(pages, warmup) -> KernelResult``.

Batch kernels
-------------

On hot traces even the fused scalar loop spends most of its time
re-discovering that a reference is a hit. A *batch kernel*
(``make_batch_kernel(capacity)``) exploits that: it scans **runs of
references between misses** with a numpy bitmap membership test over the
page universe, books the whole run's hits (and recency/history effects)
in bulk, and drops to scalar kernel logic only around misses and
evictions. Between two misses the resident set cannot change, so the
run/miss decomposition is exact, and each miss re-anchors the scan with
the post-eviction bitmap — no speculative window ever needs unwinding.

Batch kernels honour the same contract as scalar kernels, with one
extension: the *callable itself* may return None after inspecting the
trace (numpy missing, page ids unusable as array indices, or the
:data:`BATCH_PROBE_REFS` hotness probe predicting a miss-dominated run
where batching loses). Nothing is mutated in that case; the driver falls
back to the scalar kernel or the object path.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import NoEvictableFrameError
from ..types import PageId

__all__ = [
    "BATCH_DISTINCT_FACTOR",
    "BATCH_MAX_PAGE",
    "BATCH_PROBE_REFS",
    "KernelResult",
    "SimulationKernel",
    "batch_trace_view",
    "lru_stack_hits",
    "make_a0_kernel",
    "make_clock_kernel",
    "make_fifo_kernel",
    "make_lru_batch_kernel",
    "make_lru_kernel",
]

#: Largest page id batch kernels will index arrays by: the bitmap and
#: recency arrays are dense over the page universe, so pathological ids
#: (sparse 64-bit keys) must fall back to the dict-based kernels.
BATCH_MAX_PAGE = 1 << 24

#: How many leading references the hotness probe inspects, and how many
#: distinct pages (as a multiple of capacity) it tolerates before
#: declining. A prefix referencing far more distinct pages than the
#: buffer holds predicts a miss-dominated run, where per-run numpy
#: overhead loses to the scalar kernels. Tests monkeypatch these to
#: force or suppress the batch path.
BATCH_PROBE_REFS = 8192
BATCH_DISTINCT_FACTOR = 2

#: LRU-K only: decline when more than this fraction of probed hits are
#: *uncorrelated* (inter-reference gap above the CRP). Every
#: uncorrelated hit replays scalar history/heap bookkeeping inside the
#: batch loop, so a trace dominated by them gains nothing from run
#: skipping. Setting :data:`BATCH_PROBE_REFS` to 0 disables this probe
#: too.
BATCH_MAX_UNCORRELATED_FRACTION = 0.35

#: Bounds for the adaptive run-scan window (references per membership
#: gather). The scan doubles while runs fill it and shrinks when misses
#: arrive early, so hot traces amortize numpy call overhead over long
#: runs while miss-y stretches stop over-gathering.
_MIN_SCAN = 128
_MAX_SCAN = 16384


@dataclass
class KernelResult:
    """What a fused kernel hands back to the driving simulator.

    The driver folds these into its own counters and residency maps so
    the simulator object ends in the same externally visible state as an
    object-path run.
    """

    #: Hits/misses of the warm-up window (empty window: both zero).
    warmup_hits: int
    warmup_misses: int
    #: Hits/misses of the measurement window.
    hits: int
    misses: int
    #: Total evictions over both windows.
    evictions: int
    #: Surviving resident pages mapped to their admission times, in
    #: admission order — exactly the simulator's ``_admitted_at`` map.
    resident: Dict[PageId, int]
    #: Final logical time (= number of references processed).
    now: int
    #: ``time.perf_counter_ns()`` when the warm-up window ended, so the
    #: simulator can time the warm-up and measurement phases of a run it
    #: did not drive reference by reference.
    warmup_ended_ns: int


#: A fused trace runner: (compact page ids, warm-up length) -> result.
SimulationKernel = Callable[[Sequence[PageId], int], KernelResult]


def batch_trace_view(pages: Sequence[PageId]):
    """``(numpy, int64 ndarray)`` over a compact trace, or None.

    Zero-copy for the two compact forms the simulator hands kernels —
    ``array('q')`` (in-memory :class:`~repro.sim.trace_cache.CachedTrace`)
    and the little-endian ``memoryview`` of an mmap-backed columnar
    trace. Anything else is converted if cheap, declined if not.
    """
    from ..workloads.vectorized import numpy_or_none

    np = numpy_or_none()
    if np is None:
        return None
    try:
        if isinstance(pages, memoryview):
            trace = np.frombuffer(pages, dtype="<i8")
        else:
            trace = np.frombuffer(pages, dtype=np.int64) \
                if isinstance(pages, bytearray) else np.asarray(pages)
        if trace.dtype != np.int64:
            trace = trace.astype(np.int64)
    except (TypeError, ValueError, BufferError):
        return None
    return np, trace


def _batch_guard(np, trace, capacity: int):
    """Shared runtime decline checks: page-id range and hotness probe.

    Returns the page-universe size, or None to decline (ids unusable as
    dense array indices, or the leading-prefix probe predicts a
    miss-dominated trace where per-run numpy overhead loses).
    """
    if len(trace) == 0:
        return 1
    low = int(trace.min())
    high = int(trace.max())
    if low < 0 or high > BATCH_MAX_PAGE:
        return None
    probe = BATCH_PROBE_REFS
    if probe and len(trace) > probe:
        distinct = len(np.unique(trace[:probe]))
        if distinct > BATCH_DISTINCT_FACTOR * capacity:
            return None
    return high + 1


def make_lru_batch_kernel(policy, capacity: int) -> Optional[SimulationKernel]:
    """Run-skipping batch loop for classical LRU (the paper's LRU-1).

    Between two misses the resident set is constant, so membership of a
    whole window of references is one bitmap gather. A window that comes
    back all-resident is a pure hit run: the hit counter advances by the
    run length and the recency effect collapses to "each distinct page's
    recency becomes its *last* occurrence time in the run" — one
    vectorized maximum-scatter instead of ``run_length`` dict moves.
    Scalar logic runs only at misses.

    Recency lives in a dense int64 array during the run; victims come
    from a lazy min-heap of ``(last_use, page)`` entries validated
    against that array on pop (stale entries are re-pushed corrected, so
    every resident page always keeps at least one live entry). The
    policy's ``OrderedDict`` is rebuilt in recency order at the end,
    leaving exactly the object-path state.
    """
    if policy._resident:
        return None

    def kernel(pages: Sequence[PageId], warmup: int) -> Optional[KernelResult]:
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
        resident_map = np.zeros(universe, dtype=bool)
        last_used = np.zeros(universe, dtype=np.int64)
        heap: List[Tuple[int, int]] = []
        admitted: Dict[PageId, int] = {}
        offsets = np.arange(_MAX_SCAN, dtype=np.int64)
        warmup_hits = warmup_misses = hits = misses = evictions = 0
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
                    # Hit run [pos, pos + first_miss): recency of each
                    # distinct page becomes its last occurrence time.
                    # maximum.at is order-independent, and every time in
                    # this run exceeds every previously stored recency.
                    hits += first_miss
                    run = window[:first_miss]
                    np.maximum.at(last_used, run,
                                  offsets[:first_miss] + (pos + 1))
                if first_miss == end - pos:
                    pos = end
                    if scan < _MAX_SCAN:
                        scan *= 2
                    continue
                if first_miss < scan // 4 and scan > _MIN_SCAN:
                    scan //= 2
                j = pos + first_miss
                t = j + 1
                page = int(trace[j])
                misses += 1
                if len(admitted) >= capacity:
                    while True:
                        pushed_at, victim = heappop(heap)
                        if not resident_map[victim]:
                            continue  # evicted earlier; stale entry
                        actual = int(last_used[victim])
                        if actual != pushed_at:
                            heappush(heap, (actual, victim))
                            continue
                        break
                    resident_map[victim] = False
                    del admitted[victim]
                    evictions += 1
                resident_map[page] = True
                last_used[page] = t
                admitted[page] = t
                heappush(heap, (t, page))
                if len(heap) > 4 * len(admitted) + 64:
                    heap = [(int(last_used[p]), p) for p in admitted]
                    heapify(heap)
                pos = j + 1
            if index == 0:
                warmup_hits, warmup_misses = hits, misses
                hits = misses = 0
                warmup_ended = perf_counter_ns()

        order = policy._order
        for page in sorted(admitted, key=lambda p: int(last_used[p])):
            order[page] = None
        policy._resident.update(admitted)
        return KernelResult(warmup_hits, warmup_misses, hits, misses,
                            evictions, admitted, n, warmup_ended)

    return kernel


def make_lru_kernel(policy, capacity: int) -> Optional[SimulationKernel]:
    """Fused loop for classical LRU (the paper's LRU-1).

    The recency order *is* the policy's ``OrderedDict``: hits move to the
    MRU end, the victim is the first key. Everything runs on locals; the
    policy's structures are mutated in place so the final state matches
    the object path exactly.
    """
    if policy._resident:
        return None

    def kernel(pages: Sequence[PageId], warmup: int) -> KernelResult:
        order = policy._order
        move_to_end = order.move_to_end
        admitted: Dict[PageId, int] = {}
        warmup_hits = warmup_misses = hits = misses = evictions = 0
        t = 0
        for boundary, segment in enumerate((pages[:warmup], pages[warmup:])):
            for page in segment:
                t += 1
                if page in order:
                    hits += 1
                    move_to_end(page)
                else:
                    misses += 1
                    if len(order) >= capacity:
                        victim = next(iter(order))
                        del order[victim]
                        del admitted[victim]
                        evictions += 1
                    order[page] = None
                    admitted[page] = t
            if boundary == 0:
                warmup_hits, warmup_misses = hits, misses
                hits = misses = 0
                warmup_ended = perf_counter_ns()
        policy._resident.update(admitted)
        return KernelResult(warmup_hits, warmup_misses, hits, misses,
                            evictions, admitted, t, warmup_ended)

    return kernel


def lru_stack_hits(pages: Sequence[PageId], warmup: int) -> array:
    """LRU's measured hits at every buffer size, from one pass.

    LRU is a stack algorithm (Mattson et al., "Evaluation techniques for
    storage hierarchies", IBM Syst. J. 1970): a c-frame buffer always
    holds the c most recently used pages, so a reference hits exactly
    when its *stack distance* — one plus the number of distinct pages
    referenced since the page's previous reference — is at most c. A
    Fenwick tree over reference times holds a 1 at each page's most
    recent use, so counting those pages costs O(log T) per reference.

    Returns ``hits`` where ``hits[c]`` is the number of references after
    the first ``warmup`` that hit in a fresh c-frame LRU buffer, for c
    from 0 to the number of distinct pages; any larger buffer hits as
    often as ``hits[-1]``.
    """
    n = len(pages)
    tree = array("q", [0]) * (n + 1)
    # hits[d] first counts measured references at stack distance d, then
    # becomes the running total over distances up to d.
    hits = array("q", [0])
    last: Dict[PageId, int] = {}
    for t, page in enumerate(pages, 1):
        previous = last.get(page)
        if previous is None:
            hits.append(0)
        else:
            # Pages used since `previous`: every distinct page so far, less
            # the marks at or before it (its own mark included).
            i = previous
            recent = len(hits) - 1
            while i:
                recent -= tree[i]
                i &= i - 1
            if t > warmup:
                hits[recent + 1] += 1
            i = previous
            while i <= n:
                tree[i] -= 1
                i += i & -i
        last[page] = t
        i = t
        while i <= n:
            tree[i] += 1
            i += i & -i
    for capacity in range(1, len(hits)):
        hits[capacity] += hits[capacity - 1]
    return hits


def make_fifo_kernel(policy, capacity: int) -> Optional[SimulationKernel]:
    """Fused loop for FIFO: admission order, hits change nothing."""
    if policy._resident:
        return None

    def kernel(pages: Sequence[PageId], warmup: int) -> KernelResult:
        order = policy._order
        admitted: Dict[PageId, int] = {}
        warmup_hits = warmup_misses = hits = misses = evictions = 0
        t = 0
        for boundary, segment in enumerate((pages[:warmup], pages[warmup:])):
            for page in segment:
                t += 1
                if page in order:
                    hits += 1
                else:
                    misses += 1
                    if len(order) >= capacity:
                        victim = next(iter(order))
                        del order[victim]
                        del admitted[victim]
                        evictions += 1
                    order[page] = None
                    admitted[page] = t
            if boundary == 0:
                warmup_hits, warmup_misses = hits, misses
                hits = misses = 0
                warmup_ended = perf_counter_ns()
        policy._resident.update(admitted)
        return KernelResult(warmup_hits, warmup_misses, hits, misses,
                            evictions, admitted, t, warmup_ended)

    return kernel


def make_a0_kernel(policy, capacity: int) -> Optional[SimulationKernel]:
    """Fused loop for the A0 oracle: static priorities, lazy min-heap.

    A hit touches nothing. A miss on a full buffer drops stale heap tops
    with the same ``_live`` test ``A0Policy.choose_victim`` uses and
    evicts the live top in place: the object path pops that entry and
    pushes it back, so both leave the same ``(beta, page)`` heap
    multiset behind.
    """
    if policy._resident:
        return None

    def kernel(pages: Sequence[PageId], warmup: int) -> KernelResult:
        beta_of = policy._beta.get
        heap = policy._heap
        live = policy._live
        admitted: Dict[PageId, int] = {}
        warmup_hits = warmup_misses = hits = misses = evictions = 0
        t = 0
        for boundary, segment in enumerate((pages[:warmup], pages[warmup:])):
            for page in segment:
                t += 1
                if page in live:
                    hits += 1
                else:
                    misses += 1
                    if len(live) >= capacity:
                        while True:
                            beta, victim = heap[0]
                            if live.get(victim) == beta:
                                break
                            heappop(heap)  # stale (evicted) entry
                        del live[victim]
                        del admitted[victim]
                        evictions += 1
                    beta = beta_of(page, 0.0)
                    live[page] = beta
                    admitted[page] = t
                    heappush(heap, (beta, page))
            if boundary == 0:
                warmup_hits, warmup_misses = hits, misses
                hits = misses = 0
                warmup_ended = perf_counter_ns()
        policy._resident.update(admitted)
        return KernelResult(warmup_hits, warmup_misses, hits, misses,
                            evictions, admitted, t, warmup_ended)

    return kernel


def make_clock_kernel(policy, capacity: int) -> Optional[SimulationKernel]:
    """Fused loop for second-chance CLOCK.

    Inlines the ring sweep, tombstoning, and lazy compaction of
    :class:`repro.policies.clock._SweepBuffer`; the hand and the ring
    list live in locals and are flushed back on return.
    """
    if policy._resident:
        return None

    def kernel(pages: Sequence[PageId], warmup: int) -> KernelResult:
        ring = policy._ring
        ring_pages = ring.pages
        slot_of = ring.slot_of
        hand = ring.hand
        referenced = policy._referenced
        admitted: Dict[PageId, int] = {}
        warmup_hits = warmup_misses = hits = misses = evictions = 0
        t = 0
        for boundary, segment in enumerate((pages[:warmup], pages[warmup:])):
            for page in segment:
                t += 1
                if page in referenced:
                    hits += 1
                    referenced[page] = True
                else:
                    misses += 1
                    if len(referenced) >= capacity:
                        victim = None
                        for _ in range(2 * len(ring_pages) + 1):
                            if not ring_pages:
                                break
                            hand %= len(ring_pages)
                            candidate = ring_pages[hand]
                            hand += 1
                            if candidate is None:
                                continue
                            if referenced[candidate]:
                                referenced[candidate] = False
                                continue
                            victim = candidate
                            break
                        if victim is None:
                            raise NoEvictableFrameError(
                                "CLOCK sweep found no evictable page")
                        ring_pages[slot_of.pop(victim)] = None
                        del referenced[victim]
                        del admitted[victim]
                        evictions += 1
                        # _SweepBuffer.compact_if_needed, inline.
                        if len(slot_of) * 2 < len(ring_pages):
                            ring_pages = [p for p in ring_pages
                                          if p is not None]
                            slot_of.clear()
                            for slot, p in enumerate(ring_pages):
                                slot_of[p] = slot
                            hand %= max(1, len(ring_pages))
                    slot_of[page] = len(ring_pages)
                    ring_pages.append(page)
                    referenced[page] = True
                    admitted[page] = t
            if boundary == 0:
                warmup_hits, warmup_misses = hits, misses
                hits = misses = 0
                warmup_ended = perf_counter_ns()
        ring.pages = ring_pages
        ring.hand = hand
        policy._resident.update(admitted)
        return KernelResult(warmup_hits, warmup_misses, hits, misses,
                            evictions, admitted, t, warmup_ended)

    return kernel
