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
closure that plays compact page ids (the ``array('q')`` page column of
:class:`repro.sim.trace_cache.CachedTrace`) in one fused loop with the
policy's data structures bound to locals, stat counters accumulated in
plain ints, and no per-reference allocation.

A trace with writes also carries a write column, ``next_write``:
``next_write[i]`` is the time of the first write to ``pages[i]`` at or
after time ``i + 1`` (times are 1-based, so that is the reference
itself), or ``len(pages) + 1`` when none follows. A page admitted at
time ``a`` is dirty at time ``t`` exactly when it was written at some
time in ``[a, t]``, that is when ``next_write[a - 1] <= t``; a victim
evicted by the miss at ``t`` (a reference to another page) is written
back when ``next_write[a - 1] < t``. So a kernel counts write-backs with
one array read per eviction and nothing per reference, and a plain trace
passes ``None`` and pays only an ``is None`` test per eviction.

The contract every kernel must honour:

- **One window per call.** ``kernel(pages, t, next_write)`` plays only
  the page ids it is given (any iterable), numbered ``t + 1``,
  ``t + 2``, ...; ``next_write`` is the whole trace's write column (or
  None). It returns ``(hits, writebacks, resident)``: the call's hits
  and write-backs, and every resident page mapped to its admission
  time, in admission order. The kernel keeps its state in the
  factory's closure, so calls over consecutive pieces of a trace,
  carrying ``t``, decide exactly as one call over the whole trace.
  Everything else follows from those totals, and
  :meth:`~repro.sim.cache.CacheSimulator.run_fused` derives it: it
  calls the kernel once per protocol window, the one place the warm-up
  boundary is applied to a kernel run.
- **Decision-identical.** Playing a trace through a fresh policy's
  kernel produces the same hit/miss sequence, the same evictions and
  write-backs, the same final policy state (residency, history, heap
  contents as a multiset, stats counters) as calling
  ``access(reference)`` once per reference. This is property-tested in
  ``tests/sim/test_kernels.py``, on read-only and on write-bit traces,
  whole and cut into pieces at random points.
- **State-synchronizing.** On return from every call the policy's own
  bookkeeping is exactly what the object path would have left behind,
  so introspection (``resident_pages``, history blocks, stats) and any
  further object-path driving work unchanged. Between calls nothing but
  the kernel may drive the policy.
- **Aggregate-observable only.** Kernels never emit events and never
  record provenance; ``run_fused`` opens the run's ``warmup`` and
  ``measure`` spans around its calls, and the measurement protocol
  records the run's counters from the totals. Simulators must bypass
  kernels whenever a *per-reference* channel is attached — an event
  sink that takes access/eviction events, an eviction-decision
  provenance recorder, or hook profiling (whose wrapper offers no
  kernel). An ambient tracer, metrics, and run-level sinks such as
  progress narration do not. ``run_fused`` enforces this and falls
  back to the object path.
- **Fresh-state only.** Factories return None when the policy already
  holds resident pages (a kernel cannot reconstruct mid-run driver
  state), or when the configuration has features the fused loop does not
  replicate — then the driver silently falls back.

``make_kernel(capacity)`` returns either ``None`` (no kernel for this
configuration) or a :data:`SimulationKernel`. Kernels iterate what they
are given and never slice it, so a driver that splits one iterator at
the warm-up boundary allocates nothing proportional to the trace.

A kernel plays one buffer size. A *stack pass* plays one trace for
many: a policy whose victim priority does not depend on the buffer
size has the inclusion property (Mattson et al. 1970), and its
``stack_hits`` hook returns every total of a fresh run at each size
asked for — LRU's :func:`lru_stack_hits` at every size, the priority
policies' :func:`stack_pass` (LRU-K with CRP 0, LFU, A0) at the given
ones. A sweep builds one pass per column and repetition and reads its
runs off it (the measurement protocol's ``stack`` tier); a single run
keeps its kernel, which is faster for one size. Like the kernels,
passes count write-backs from ``next_write`` and emit no events; they
record ``warmup`` and ``measure`` spans around the two windows they
play.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from itertools import accumulate, islice
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ..errors import ConfigurationError
from ..obs import trace as obs_trace
from ..types import PageId
from .base import HEAP_COMPACT_SLACK

__all__ = [
    "KernelTotals",
    "PriorityKey",
    "SimulationKernel",
    "StackCurve",
    "StackPass",
    "StackTotals",
    "dirty_residents",
    "lru_stack_hits",
    "make_a0_kernel",
    "make_fifo_kernel",
    "make_lfu_kernel",
    "make_lru_kernel",
    "stack_pass",
]


#: What one kernel call returns: its hits, its write-backs, and every
#: resident page mapped to its admission time, in admission order.
KernelTotals = Tuple[int, int, Dict[PageId, int]]

#: A fused trace runner: (page ids, the time before the first of them,
#: write column or None) -> the call's totals.
SimulationKernel = Callable[
    [Iterable[PageId], int, Optional[Sequence[int]]], KernelTotals]


def dirty_residents(resident: Dict[PageId, int],
                    next_write: Optional[Sequence[int]],
                    now: int) -> List[PageId]:
    """The residents (page -> admission time) written by time ``now``."""
    if next_write is None:
        return []
    return [page for page, admitted in resident.items()
            if next_write[admitted - 1] <= now]


def make_lru_kernel(policy, capacity: int) -> Optional[SimulationKernel]:
    """Fused loop for classical LRU (the paper's LRU-1).

    The recency order *is* the policy's ``OrderedDict``: hits move to the
    MRU end, the victim is the first key. Everything runs on locals; the
    policy's structures are mutated in place so the final state matches
    the object path exactly.
    """
    if policy._resident:
        return None
    admitted: Dict[PageId, int] = {}

    def kernel(pages: Iterable[PageId], t: int,
               next_write: Optional[Sequence[int]]) -> KernelTotals:
        order = policy._order
        move_to_end = order.move_to_end
        hits = writebacks = 0
        for t, page in enumerate(pages, t + 1):
            if page in order:
                hits += 1
                move_to_end(page)
            else:
                if len(order) >= capacity:
                    victim = next(iter(order))
                    del order[victim]
                    if next_write is None:
                        del admitted[victim]
                    elif next_write[admitted.pop(victim) - 1] < t:
                        writebacks += 1
                order[page] = None
                admitted[page] = t
        policy._resident = set(admitted)
        return hits, writebacks, admitted

    return kernel


class StackTotals(NamedTuple):
    """A fresh run's totals at one buffer size, read off a stack pass."""

    warmup_hits: int
    warmup_misses: int
    hits: int
    misses: int
    evictions: int
    writebacks: int
    #: Pages resident when the trace ends.
    resident: int
    #: The stats block the policy's kernel run leaves, or None.
    stats: Optional[object] = None


def _totals(references: int, warmup: int, warmup_hits: int, hits: int,
            writebacks: int, resident: int,
            stats: Optional[object] = None) -> StackTotals:
    """A run's totals from its window hits: every miss admits a page,
    and all but the ``resident`` survivors leave again."""
    warmup_misses = warmup - warmup_hits
    misses = references - warmup - hits
    return StackTotals(warmup_hits, warmup_misses, hits, misses,
                       warmup_misses + misses - resident, writebacks,
                       resident, stats)


@dataclass(frozen=True)
class StackCurve:
    """LRU's run totals at every buffer size (see :func:`lru_stack_hits`).

    Each column is indexed by capacity, from 0 to :attr:`distinct`; a
    larger buffer runs exactly like one of :attr:`distinct` frames.
    """

    #: Length of the trace, and of its warm-up window.
    references: int
    warmup: int
    #: ``hits[c]``: the measured-window hits of a fresh c-frame buffer.
    hits: array
    #: ``warmup_hits[c]``: its warm-up-window hits.
    warmup_hits: array
    #: ``writebacks[c]``: its evictions of written pages, both windows.
    writebacks: array

    @property
    def distinct(self) -> int:
        """The number of distinct pages in the trace."""
        return len(self.hits) - 1

    def covers(self, capacity: int) -> bool:
        """True: the curve answers every buffer size."""
        return True

    def at(self, capacity: int) -> StackTotals:
        """What a fresh ``capacity``-frame LRU run of the trace reports."""
        if capacity <= 0:
            raise ConfigurationError("buffer capacity must be positive")
        frames = min(capacity, self.distinct)
        return _totals(self.references, self.warmup,
                       self.warmup_hits[frames], self.hits[frames],
                       self.writebacks[frames], frames)


def lru_stack_hits(pages: Sequence[PageId], warmup: int,
                   next_write: Optional[Sequence[int]] = None
                   ) -> StackCurve:
    """Every total of a fresh LRU run at every buffer size, in one pass.

    LRU is a stack algorithm (Mattson et al., "Evaluation techniques for
    storage hierarchies", IBM Syst. J. 1970): a c-frame buffer always
    holds the c most recently used pages, so a reference hits exactly
    when its *stack distance* — one plus the number of distinct pages
    referenced since the page's previous reference — is at most c. The
    pass keeps every page's last-use time in one ascending list, so a
    re-reference whose previous use was at ``previous`` has stack
    distance ``len(lasts) - bisect_left(lasts, previous)``. Moving the
    page to the top deletes its slot, which shifts one slot per page used
    since (the stack distance less one, a memmove in C), and appends the
    new time.

    ``pages`` and ``next_write`` are the columns of a
    :class:`~repro.sim.trace_cache.CachedTrace`. The returned
    :class:`StackCurve` holds, for every capacity c at once:

    - the measured and the warm-up hits, counted by stack distance in
      the window the reference falls in;
    - the write-backs. A page re-referenced at stack distance D, or left
      at depth D when the trace ends, was evicted since its previous
      reference at every capacity below D. That eviction wrote the page
      back exactly when c >= M, where M is the largest stack distance
      of its references since its last write (1 for the write itself):
      a miss after the write re-admitted it clean. So each such page
      adds one to the range [M, D) of a difference array.

    Evictions follow from the misses (see :meth:`StackCurve.at`). The
    curve costs O(distinct pages) integers, never one per reference.
    :class:`~repro.policies.LRUPolicy` exposes the pass as its
    ``stack_hits`` hook; the B(1) search and the measurement protocol's
    ``stack`` tier read the curves a
    :class:`~repro.sim.trace_cache.TraceCache` holds.

    Raises :class:`~repro.errors.ConfigurationError` when ``warmup``
    leaves no measurement window, as the measurement protocol does.
    """
    if warmup < 0 or warmup >= len(pages):
        raise ConfigurationError(
            "warm-up must leave a non-empty measurement window")
    # Each column first counts references (hits) or range ends
    # (write-backs) at each stack distance, then becomes a running total.
    hits = array("q", [0])
    warmup_hits = array("q", [0])
    dirty = array("q", [0])
    lasts: List[int] = []
    last: Dict[PageId, int] = {}
    # Written pages -> M, the largest stack distance since the last write.
    reach: Dict[PageId, int] = {}
    last_use = last.get
    reach_of = reach.get
    push = lasts.append
    t = 0
    remaining = iter(pages)
    for name, counts, segment, length in (
            ("warmup", warmup_hits, islice(remaining, warmup), warmup),
            ("measure", hits, remaining, len(pages) - warmup)):
        with obs_trace.maybe_span(name, references=length):
            for page in segment:
                t += 1
                previous = last_use(page)
                if previous is None:
                    hits.append(0)
                    warmup_hits.append(0)
                    dirty.append(0)
                    depth = 0
                else:
                    i = bisect_left(lasts, previous)
                    depth = len(lasts) - i
                    counts[depth] += 1
                    del lasts[i]
                push(t)
                last[page] = t
                if next_write is not None:
                    bound = reach_of(page)
                    if bound is not None and bound < depth:
                        dirty[bound] += 1
                        dirty[depth] -= 1
                        reach[page] = depth
                    if next_write[t - 1] == t:
                        reach[page] = 1
    for page, bound in reach.items():
        depth = len(lasts) - bisect_left(lasts, last[page])
        if bound < depth:
            dirty[bound] += 1
            dirty[depth] -= 1
    return StackCurve(t, warmup, array("q", accumulate(hits)),
                      array("q", accumulate(warmup_hits)),
                      array("q", accumulate(dirty)))


#: A stack pass's key update: (page, time, the page's previous key or
#: None) -> its key now, a tuple that ends with the page.
PriorityKey = Callable[[PageId, int, Optional[tuple]], tuple]


@dataclass(frozen=True)
class StackPass:
    """A stack policy's run totals at given buffer sizes (see
    :func:`stack_pass`); each column is indexed like :attr:`capacities`."""

    #: Length of the trace, and of its warm-up window.
    references: int
    warmup: int
    #: The buffer sizes answered, ascending and distinct.
    capacities: Tuple[int, ...]
    #: The number of distinct pages in the trace.
    distinct: int
    #: Measured-window and warm-up-window hits.
    hits: array
    warmup_hits: array
    #: Evictions of written pages, both windows.
    writebacks: array
    #: Evictions of a victim whose key leads with 0: for LRU-K, the
    #: pages of infinite backward K-distance.
    zero_key_evictions: array
    #: The policy's stats block at each buffer size, or None.
    stats: Optional[tuple] = None

    def covers(self, capacity: int) -> bool:
        """True when the pass answers ``capacity``."""
        return capacity in self.capacities

    def at(self, capacity: int) -> StackTotals:
        """What a fresh ``capacity``-frame run of the trace reports."""
        i = self.capacities.index(capacity)
        return _totals(self.references, self.warmup, self.warmup_hits[i],
                       self.hits[i], self.writebacks[i],
                       min(capacity, self.distinct),
                       None if self.stats is None else self.stats[i])


def stack_pass(pages: Sequence[PageId], warmup: int,
               next_write: Optional[Sequence[int]],
               capacities: Iterable[int], key_of: PriorityKey) -> StackPass:
    """Every total of a fresh run at each of ``capacities``, in one pass.

    The policy evicts the resident page of smallest key, and a page's
    key depends on the references so far, never on the buffer size:
    LRU-K with CRP 0 (HIST(q,K), HIST(q,1), q), never-forgetting LFU
    (count, last access, q), A0 (beta, q). Such a priority rule is a
    stack algorithm (Mattson et al. 1970): a page resident at one
    capacity is resident at every larger one. ``key_of(page, t,
    previous)`` gives a page's key after its reference at time ``t``; it
    is the only per-policy code.

    By inclusion the resident pages fall into bands: band i holds the
    pages resident from the i-th capacity (ascending) up but not below,
    and the pass keeps one victim heap per band and, per page, its band.
    A reference to a page of band ``low`` hits from capacity ``low`` up,
    so one lookup counts its hits, and only the capacities below miss.
    Their victims cascade up the bands: capacity 0 evicts the top of
    band 0 to admit the page; at each next capacity the page evicted
    below is also resident, so the victim there is the smaller of its
    key and band i's top. When the evicted page is smaller it is evicted
    again, without touching the band; otherwise it stays in band i and
    the band's top moves on. The last page carried lands in the band the
    referenced page left, in the first band with room, or leaves every
    buffer. As in the kernels, an out-of-date top is re-keyed in place
    until the top is the page's current key (keys never fall); a top
    whose page left the band is dropped, and a heap is rebuilt when such
    entries pile up.

    A page written at some time is dirty at capacity i exactly when no
    read since its last write missed there, so the pass keeps, for each
    written page, the highest band a read since its last write found it
    in; an eviction over capacities [i, j) writes the page back from
    that band up. That costs one ``next_write`` read per reference on a
    trace with writes, and nothing on a plain one.

    Raises :class:`~repro.errors.ConfigurationError` when ``warmup``
    leaves no measurement window or a capacity is not positive, as the
    measurement protocol does.
    """
    if warmup < 0 or warmup >= len(pages):
        raise ConfigurationError(
            "warm-up must leave a non-empty measurement window")
    sizes = tuple(sorted(set(capacities)))
    if sizes and sizes[0] <= 0:
        raise ConfigurationError("buffer capacity must be positive")
    top = len(sizes)
    heaps: List[list] = [[] for _ in sizes]
    limits = [2 * (size - below) + HEAP_COMPACT_SLACK
              for size, below in zip(sizes, (0,) + sizes)]
    # References counted by the band of their page (top: none), and
    # difference arrays over capacities of write-backs and evictions of
    # a victim whose key leads with 0.
    warmup_counts = [0] * (top + 1)
    counts = [0] * (top + 1)
    dirty = [0] * (top + 1)
    zero_key = [0] * (top + 1)
    current: Dict[PageId, tuple] = {}
    band: Dict[PageId, int] = {}
    # Written pages -> the highest band a read since the write found.
    clean_below: Dict[PageId, int] = {}
    key_now = current.get
    band_of = band.get
    clean_below_of = clean_below.get
    full = 0  # how many capacities are full

    def land(entry: tuple, start: int, level: int) -> None:
        """The page of ``entry``, evicted by capacities [start, level),
        is held from capacity ``level`` up."""
        page = entry[-1]
        band[page] = level
        if start < level:
            if not entry[0]:
                zero_key[start] += 1
                zero_key[level] -= 1
            clean = clean_below_of(page)
            if clean is not None:
                clean = max(start, clean)
                if clean < level:
                    dirty[clean] += 1
                    dirty[level] -= 1
        if level < top:
            heap = heaps[level]
            heappush(heap, entry)
            if len(heap) > limits[level]:
                members = {entry[-1] for entry in heap
                           if band_of(entry[-1]) == level}
                heaps[level] = heap = [current[member]
                                       for member in members]
                heapify(heap)

    t = 0
    remaining = iter(pages)
    for name, tally, segment, length in (
            ("warmup", warmup_counts, islice(remaining, warmup), warmup),
            ("measure", counts, remaining, len(pages) - warmup)):
        with obs_trace.maybe_span(name, references=length):
            for page in segment:
                t += 1
                previous = key_now(page)
                key = current[page] = key_of(page, t, previous)
                low = band_of(page, top)
                tally[low] += 1
                if next_write is not None:
                    if next_write[t - 1] == t:
                        clean_below[page] = 0
                    else:
                        clean = clean_below_of(page)
                        if clean is not None and clean < low:
                            clean_below[page] = low
                if not low:
                    continue
                band[page] = 0
                carried, start, level = key, 0, 0
                while level < low and level < full:
                    heap = heaps[level]
                    while True:
                        entry = heap[0]
                        victim = entry[-1]
                        fresh = current[victim]
                        if band_of(victim) != level:
                            heappop(heap)  # the page left the band
                        elif fresh is not entry:
                            heapreplace(heap, fresh)
                        else:
                            break
                    if not level or entry < carried:
                        heapreplace(heap, carried)
                        if level:
                            land(carried, start, level)
                        carried, start = entry, level
                    level += 1
                land(carried, start, level)
                if previous is None:
                    if full < top and sizes[full] == len(current):
                        full += 1
    return StackPass(t, warmup, sizes, len(current),
                     array("q", islice(accumulate(counts), top)),
                     array("q", islice(accumulate(warmup_counts), top)),
                     array("q", islice(accumulate(dirty), top)),
                     array("q", islice(accumulate(zero_key), top)))


def make_fifo_kernel(policy, capacity: int) -> Optional[SimulationKernel]:
    """Fused loop for FIFO: admission order, hits change nothing."""
    if policy._resident:
        return None
    admitted: Dict[PageId, int] = {}

    def kernel(pages: Iterable[PageId], t: int,
               next_write: Optional[Sequence[int]]) -> KernelTotals:
        order = policy._order
        hits = writebacks = 0
        for t, page in enumerate(pages, t + 1):
            if page in order:
                hits += 1
            else:
                if len(order) >= capacity:
                    victim = next(iter(order))
                    del order[victim]
                    if next_write is None:
                        del admitted[victim]
                    elif next_write[admitted.pop(victim) - 1] < t:
                        writebacks += 1
                order[page] = None
                admitted[page] = t
        policy._resident = set(admitted)
        return hits, writebacks, admitted

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
    admitted: Dict[PageId, int] = {}

    def kernel(pages: Iterable[PageId], t: int,
               next_write: Optional[Sequence[int]]) -> KernelTotals:
        beta_of = policy._beta.get
        heap = policy._heap
        live = policy._live
        hits = writebacks = 0
        for t, page in enumerate(pages, t + 1):
            if page in live:
                hits += 1
            else:
                if len(live) >= capacity:
                    while True:
                        beta, victim = heap[0]
                        if live.get(victim) == beta:
                            break
                        heappop(heap)  # stale (evicted) entry
                    del live[victim]
                    if next_write is None:
                        del admitted[victim]
                    elif next_write[admitted.pop(victim) - 1] < t:
                        writebacks += 1
                beta = beta_of(page, 0.0)
                live[page] = beta
                admitted[page] = t
                heappush(heap, (beta, page))
        policy._resident = set(admitted)
        return hits, writebacks, admitted

    return kernel


def make_lfu_kernel(policy, capacity: int) -> Optional[SimulationKernel]:
    """Fused loop for never-forgetting LFU.

    Mirrors :class:`~repro.policies.lfu.LFUPolicy`: every reference bumps
    the page's lifetime count and last access, and only an admission
    pushes a ``(count, last, page)`` entry onto the min-heap. A miss on a
    full buffer re-keys out-of-date tops in place until the top is up to
    date, and evicts that page with its entry, so the heap holds exactly
    one entry per resident page. The policy's map from each resident page
    to its live entry is rebuilt on return. A policy that already holds
    residents or heap entries gets no kernel.
    """
    if policy._resident or policy._heap:
        return None
    admitted: Dict[PageId, int] = {}

    def kernel(pages: Iterable[PageId], t: int,
               next_write: Optional[Sequence[int]]) -> KernelTotals:
        count = policy._count
        count_of = count.get
        last_access = policy._last_access
        heap = policy._heap
        hits = writebacks = 0
        for t, page in enumerate(pages, t + 1):
            # LFUPolicy._bump, inline.
            references = count_of(page, 0) + 1
            count[page] = references
            last_access[page] = t
            if page in admitted:
                hits += 1
                continue
            if len(admitted) >= capacity:
                # Nothing is excluded and no orphan ever forms, so the
                # first up-to-date top is the victim.
                while True:
                    _, last, victim = heap[0]
                    latest = last_access[victim]
                    if latest == last:
                        break
                    heapreplace(heap, (count[victim], latest, victim))
                heappop(heap)
                if next_write is None:
                    del admitted[victim]
                elif next_write[admitted.pop(victim) - 1] < t:
                    writebacks += 1
            admitted[page] = t
            heappush(heap, (references, t, page))
        policy._live = {entry[2]: entry for entry in heap}
        policy._resident = set(admitted)
        return hits, writebacks, admitted

    return kernel
