"""The buffer pool.

A fixed set of :class:`~repro.buffer.frame.Frame` objects fronting a
:class:`~repro.storage.disk.SimulatedDisk`, with:

- a page table (page id -> frame) for O(1) lookup;
- pin/unpin discipline — pinned pages are passed to the replacement
  policy as exclusions, so no policy can evict a page in use; the
  pinned set is kept as pins are taken and released, so a miss never
  scans the frames;
- the victim of the latest fetch (:attr:`BufferPool.last_victim`), so
  callers that account for residency (the sharded service) learn what
  left without comparing resident sets;
- dirty tracking and write-back on eviction (the Figure 2.1 "if victim is
  dirty then write victim back into the database" step);
- a pluggable :class:`~repro.policies.base.ReplacementPolicy` driven
  through the same event protocol as the lightweight cache simulator;
- an optional reference-trace observer so database-engine executions can
  be captured as reference strings and replayed through the policy-level
  simulator (how the TPC-A example produces its workload).

The convenience context manager :class:`PinnedPage` makes the common
"fetch, use, unpin" sequence exception-safe.

Concurrency contract: a ``BufferPool`` is **single-caller**. It shares
its policy's thread-confinement rules (see :mod:`repro.policies.base`)
and adds its own unguarded state — the page table, frame pins, the
logical clock, and the stats block. Callers that want concurrency must
serialize every method call externally; the supported way is
:class:`repro.service.ShardedBufferManager`, which confines each pool
(and its policy, clock, and disk) to one shard lock. Event sinks are
likewise single-threaded, so concurrent pools must not share an
observability dispatcher.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..clock import LogicalClock
from ..errors import (
    ConfigurationError,
    NoEvictableFrameError,
    PageNotResidentError,
)
from ..obs import runtime as obs_runtime
from ..obs.dispatcher import EventDispatcher
from ..obs.events import (
    AccessEvent,
    EvictionEvent,
    FlushEvent,
    victim_telemetry,
)
from ..policies.base import ReplacementPolicy
from ..storage.disk import SimulatedDisk
from ..storage.page import DiskPage
from ..types import AccessKind, PageId, Reference
from .frame import Frame
from .stats import BufferStats

#: Observer invoked once per logical page request.
TraceObserver = Callable[[Reference], None]


class TraceRecorder:
    """A simple observer that accumulates the reference string."""

    def __init__(self) -> None:
        self.references: List[Reference] = []

    def __call__(self, reference: Reference) -> None:
        self.references.append(reference)

    def __len__(self) -> int:
        return len(self.references)

    def pages(self) -> List[PageId]:
        """The page-id projection of the recorded string."""
        return [ref.page for ref in self.references]


class BufferPool:
    """A database buffer pool over a simulated disk."""

    def __init__(self, disk: SimulatedDisk, policy: ReplacementPolicy,
                 capacity: int,
                 observer: Optional[TraceObserver] = None,
                 observability: Optional[EventDispatcher] = None) -> None:
        if capacity <= 0:
            raise ConfigurationError("buffer pool capacity must be positive")
        self.disk = disk
        self.policy = policy
        self.capacity = capacity
        self.observer = observer
        self._obs = obs_runtime.resolve(observability)
        if self._obs is not None and hasattr(policy, "bind_observability"):
            policy.bind_observability(self._obs)
        self.clock = LogicalClock()
        self.stats = BufferStats()
        self._frames = [Frame(i) for i in range(capacity)]
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._page_table: Dict[PageId, int] = {}
        # Pages with at least one pin: added when a fetch takes the
        # first pin, removed when unpin drops the last one.
        self._pinned: Set[PageId] = set()
        #: The page the latest :meth:`fetch` evicted to make room, or
        #: ``None`` when it hit or filled a free frame.
        self.last_victim: Optional[PageId] = None
        # Session context: default process/txn annotation for references
        # issued by engine code that does not thread ids explicitly.
        self._context_process: Optional[int] = None
        self._context_txn: Optional[int] = None

    def set_context(self, process_id: Optional[int] = None,
                    txn_id: Optional[int] = None) -> None:
        """Annotate subsequent references with a process/transaction.

        Database-engine layers (heap files, B-trees) fetch pages without
        knowing who asked; the workload driver sets the session context
        around each transaction so the captured reference string carries
        the Section 2.1.1 metadata.
        """
        self._context_process = process_id
        self._context_txn = txn_id

    def clear_context(self) -> None:
        """Remove the session annotation."""
        self._context_process = None
        self._context_txn = None

    # -- inspection -------------------------------------------------------------

    @property
    def resident_pages(self) -> frozenset:
        """Snapshot of resident page ids."""
        return frozenset(self._page_table)

    @property
    def resident_count(self) -> int:
        """How many pages occupy frames, without building a snapshot."""
        return len(self._page_table)

    def is_resident(self, page_id: PageId) -> bool:
        """True when the page occupies a frame."""
        return page_id in self._page_table

    def frame_of(self, page_id: PageId) -> Frame:
        """The frame holding a resident page."""
        try:
            return self._frames[self._page_table[page_id]]
        except KeyError:
            raise PageNotResidentError(page_id) from None

    def pin_count(self, page_id: PageId) -> int:
        """Current pin count of a resident page (0 if clean of pins)."""
        return self.frame_of(page_id).pin_count

    # -- the core fetch path ------------------------------------------------------

    def fetch(self, page_id: PageId, pin: bool = True,
              kind: AccessKind = AccessKind.READ,
              process_id: Optional[int] = None,
              txn_id: Optional[int] = None) -> Frame:
        """Request a page: hit or fault it in, optionally taking a pin.

        This is the single entry point for all logical page access; it
        notifies the observer, drives the replacement policy, and performs
        physical I/O through the disk. Afterwards :attr:`last_victim`
        names the page a miss evicted (``None`` otherwise).
        """
        now = self.clock.tick()
        self.last_victim = None
        if process_id is None:
            process_id = self._context_process
        if txn_id is None:
            txn_id = self._context_txn
        reference = Reference(page=page_id, kind=kind,
                              process_id=process_id, txn_id=txn_id)
        if self.observer is not None:
            self.observer(reference)
        if kind is AccessKind.WRITE:
            self.stats.logical_writes += 1
        else:
            self.stats.logical_reads += 1

        self.policy.observe(reference, now)
        frame_index = self._page_table.get(page_id)
        if frame_index is not None:
            frame = self._frames[frame_index]
            self.stats.hits += 1
            self.policy.on_hit(page_id, now)
        else:
            frame = self._allocate_frame(page_id, now)
            frame.load(self.disk.read(page_id), now)
            self._page_table[page_id] = frame.frame_id
            self.stats.misses += 1
            self.policy.on_admit(page_id, now)

        if pin:
            frame.pin()
            self._pinned.add(page_id)
        if kind is AccessKind.WRITE:
            frame.dirty = True
        obs = self._obs
        if obs is not None and obs.takes_references:
            obs.emit(AccessEvent(time=now, page=page_id,
                                 hit=frame_index is not None,
                                 write=kind is AccessKind.WRITE))
        return frame

    def _allocate_frame(self, incoming: PageId, now: int) -> Frame:
        if self._free:
            return self._frames[self._free.pop()]
        if len(self._pinned) >= self.capacity:
            raise NoEvictableFrameError(
                "every frame is pinned; cannot fault a new page in")
        victim = self.policy.choose_victim(now, incoming=incoming,
                                           exclude=frozenset(self._pinned))
        self.last_victim = victim
        return self._evict(victim, now)

    def _evict(self, victim: PageId, now: int) -> Frame:
        frame = self.frame_of(victim)
        obs = self._obs
        if obs is not None and obs.takes_references:
            distance, informed = victim_telemetry(self.policy, victim, now)
            obs.emit(EvictionEvent(time=now, victim=victim,
                                   dirty=frame.dirty,
                                   backward_k_distance=distance,
                                   history_informed=informed))
        self.policy.on_evict(victim, now)
        del self._page_table[victim]
        self.stats.evictions += 1
        if frame.dirty:
            self.stats.dirty_evictions += 1
            page = frame.page
            assert page is not None
            self.disk.write(page)
        frame.clear()
        return frame

    # -- pins, writes, flushes ------------------------------------------------------

    def unpin(self, page_id: PageId, dirty: bool = False) -> None:
        """Release one pin on a resident page."""
        frame = self.frame_of(page_id)
        frame.unpin(dirty)
        if frame.pin_count == 0:
            self._pinned.discard(page_id)

    def write_payload(self, page_id: PageId, payload: bytes) -> None:
        """Replace a resident, pinned page's payload and mark it dirty."""
        frame = self.frame_of(page_id)
        page = frame.page
        assert page is not None
        frame.page = page.with_payload(payload)
        frame.dirty = True

    def flush(self, page_id: PageId) -> bool:
        """Write a resident page back to disk if dirty; True when written."""
        frame = self.frame_of(page_id)
        if not frame.dirty:
            return False
        page = frame.page
        assert page is not None
        self.disk.write(page)
        frame.dirty = False
        self.stats.flushes += 1
        obs = self._obs
        if obs is not None and obs.has_sinks:
            obs.emit(FlushEvent(time=self.clock.now, page=page_id))
        return True

    def flush_all(self) -> int:
        """Write back every dirty frame; returns how many were written."""
        flushed = 0
        obs = self._obs
        emit = obs is not None and obs.has_sinks
        for frame in self._frames:
            if frame.page is not None and frame.dirty:
                self.disk.write(frame.page)
                frame.dirty = False
                self.stats.flushes += 1
                flushed += 1
                if emit and frame.page_id is not None:
                    obs.emit(FlushEvent(time=self.clock.now,
                                        page=frame.page_id))
        return flushed

    def evict_page(self, page_id: PageId) -> None:
        """Force a specific (unpinned) page out, write-back included."""
        frame = self.frame_of(page_id)
        if frame.pin_count > 0:
            raise NoEvictableFrameError(
                f"page {page_id} is pinned {frame.pin_count} time(s)")
        now = self.clock.now
        evicted = self._evict(page_id, now)
        self._free.append(evicted.frame_id)

    def pinned_page(self, page_id: PageId,
                    kind: AccessKind = AccessKind.READ) -> "PinnedPage":
        """Context-managed fetch: pins on entry, unpins on exit."""
        return PinnedPage(self, page_id, kind)


class PinnedPage:
    """``with pool.pinned_page(pid) as frame: ...`` — exception-safe pinning."""

    def __init__(self, pool: BufferPool, page_id: PageId,
                 kind: AccessKind = AccessKind.READ) -> None:
        self._pool = pool
        self._page_id = page_id
        self._kind = kind
        self._frame: Optional[Frame] = None
        self.mark_dirty = False

    def __enter__(self) -> Frame:
        self._frame = self._pool.fetch(self._page_id, pin=True,
                                       kind=self._kind)
        return self._frame

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._frame is not None
        self._pool.unpin(self._page_id, dirty=self.mark_dirty)
