"""The sharded concurrent buffer manager.

:class:`repro.buffer.BufferPool` is strictly single-caller: one logical
clock, one policy, no locks. This module serves it to many concurrent
sessions the way production buffer managers do — by *sharding*:

- page ids hash onto ``shards`` independent :class:`BufferShard`\\ s
  (multiplicative hashing, so consecutive page ids spread);
- each shard owns a private :class:`~repro.buffer.BufferPool` (and with
  it a private replacement policy, clock, and stats block) behind one
  :class:`threading.Lock`;
- every pool/policy interaction for a page happens while holding that
  page's shard lock, which is exactly the thread-confinement contract
  the policies document (see :mod:`repro.policies.base`);
- a miss learns its victim from the pool
  (:attr:`~repro.buffer.pool.BufferPool.last_victim`), so the ownership
  bookkeeping done under the lock does not grow with the shard size.

Cross-shard state is limited to thread-safe accounting: the per-tenant
:class:`~repro.service.quotas.TenantLedger` and a
:class:`~repro.obs.registry.MetricsRegistry` updated under the registry
lock (``service.*`` counters, gauges, and the request-latency histogram
scraped by ``/metrics`` and rendered by ``repro top``).

Tenant admission control reuses the multi-pool quota idiom per tenant
(the buffer-management survey's per-tenant segmentation): when an
over-quota tenant misses into a *full* shard, the manager first evicts
that tenant's own least-recently-used page in the shard, so the growth
is charged to the tenant that caused it rather than to whoever the
global policy would have victimized. Under-quota tenants and non-full
shards are untouched — with no quotas configured the manager's decision
sequence is *identical* to the underlying pools' (the serial-equivalence
property in :mod:`repro.service.equivalence` proves this for the
1-shard, 1-session case).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..buffer.frame import Frame
from ..buffer.pool import BufferPool
from ..buffer.stats import BufferStats
from ..core.lruk import LRUKPolicy
from ..errors import ConfigurationError, NoEvictableFrameError
from ..obs import runtime as obs_runtime
from ..obs.dispatcher import EventDispatcher
from ..obs.registry import MetricsRegistry
from ..policies.base import ReplacementPolicy
from ..storage.disk import SimulatedDisk
from ..types import AccessKind, PageId
from .quotas import TenantId, TenantLedger
from .session import Session

#: Knuth's multiplicative hash constant (golden ratio of 2^32): spreads
#: the dense page-id ranges workload generators produce across shards.
_HASH_MULTIPLIER = 2654435761

#: Request-latency histogram binning: [0, 5) milliseconds over 500 bins
#: gives 10 microsecond resolution, enough to separate p50 from p999 for
#: in-memory requests while still capturing lock-contention tails.
LATENCY_LOW_MS = 0.0
LATENCY_HIGH_MS = 5.0
LATENCY_BINS = 500


class AutoAllocatingDisk(SimulatedDisk):
    """A simulated disk that materializes pages on first read.

    Served workloads address pages by name (``N = {1, ..., n}``) without
    an allocation step; this disk backs each shard and zero-fills any
    page the first time a fault reads it, via
    :meth:`~repro.storage.disk.SimulatedDisk.allocate_at`.
    """

    def read(self, page_id: PageId, arrival_ms: Optional[float] = None):
        self.allocate_at(page_id)
        return super().read(page_id, arrival_ms)


class BufferShard:
    """One shard: a private pool and policy behind one lock.

    All attribute access except :attr:`index` must happen while holding
    :attr:`lock`; the manager is the only caller.
    """

    __slots__ = ("index", "pool", "lock", "owner", "tenant_lru")

    def __init__(self, index: int, pool: BufferPool) -> None:
        self.index = index
        self.pool = pool
        self.lock = threading.Lock()
        #: Which tenant's fault admitted each resident page (first touch
        #: owns; a hit by another tenant does not transfer ownership).
        self.owner: Dict[PageId, TenantId] = {}
        #: Per-tenant recency order over owned resident pages — the
        #: victim order for quota enforcement (least recently used
        #: first, refreshed on every hit by the owning tenant).
        self.tenant_lru: Dict[TenantId, "OrderedDict[PageId, None]"] = {}


#: Builds one replacement policy per shard. Each shard must get a fresh
#: instance: policies are stateful and thread-confined to their shard.
PolicyFactory = Callable[[], ReplacementPolicy]


def _default_policy_factory() -> ReplacementPolicy:
    return LRUKPolicy(k=2)


class ShardedBufferManager:
    """A concurrent, multi-tenant buffer service over sharded pools.

    Parameters
    ----------
    capacity:
        Total frames across all shards (split as evenly as possible;
        must be at least ``shards`` so every shard can hold a page).
    shards:
        Number of independent pool shards (and locks).
    policy_factory:
        Zero-argument callable building one replacement policy per
        shard (default: a fresh ``LRUKPolicy(k=2)`` each).
    quotas:
        Optional per-tenant frame quotas (see
        :class:`~repro.service.quotas.TenantLedger`).
    registry:
        Optional metrics registry to publish ``service.*`` instruments
        into. When omitted a private registry is created, so latency
        percentiles and tenant counters are always available via
        :attr:`registry`.
    observability:
        Optional event dispatcher for the shard pools. Leave ``None``
        (the default) for concurrent use: sinks are single-threaded by
        contract, so the shard pools are deliberately built *unobserved*
        even when an ambient dispatcher is active (see
        :func:`repro.obs.runtime.suppress`); telemetry flows through the
        lock-protected registry instead. Pass a dispatcher only for
        single-threaded harnesses (the serial-equivalence property).

    The lock rule: a request takes its shard's lock for the pool work,
    releases it, and then takes the registry lock
    (:attr:`~repro.obs.registry.MetricsRegistry.lock`) once to record
    all of its ``service.*`` updates, so a ``/metrics`` snapshot sees a
    request's counters and latency observations together or not at all.
    A snapshot holds the registry lock while it reads the
    ``service.shard.N.resident`` gauges, which take shard locks, so no
    code here takes the registry lock while holding a shard lock.
    """

    def __init__(self, capacity: int, shards: int = 4,
                 policy_factory: Optional[PolicyFactory] = None,
                 quotas: Optional[Mapping[TenantId, int]] = None,
                 registry: Optional[MetricsRegistry] = None,
                 observability: Optional[EventDispatcher] = None) -> None:
        if shards <= 0:
            raise ConfigurationError("shard count must be positive")
        if capacity < shards:
            raise ConfigurationError(
                f"capacity {capacity} cannot give each of {shards} "
                "shard(s) at least one frame")
        factory = policy_factory or _default_policy_factory
        self.capacity = capacity
        self.ledger = TenantLedger(quotas)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._session_lock = threading.Lock()
        self._next_session_id = 0
        self._open_sessions = 0
        base, extra = divmod(capacity, shards)
        shard_list: List[BufferShard] = []
        for index in range(shards):
            shard_capacity = base + (1 if index < extra else 0)
            if observability is not None:
                pool = BufferPool(AutoAllocatingDisk(), factory(),
                                  shard_capacity,
                                  observability=observability)
            else:
                # Concurrent shards must not inherit an ambient
                # dispatcher: sinks are single-threaded by contract.
                with obs_runtime.suppress():
                    pool = BufferPool(AutoAllocatingDisk(), factory(),
                                      shard_capacity)
            shard_list.append(BufferShard(index, pool))
        self._shards: Tuple[BufferShard, ...] = tuple(shard_list)
        self._tenant_instruments: Dict[TenantId, tuple] = {}
        self._register_instruments()

    # -- metrics surface -----------------------------------------------------

    def _register_instruments(self) -> None:
        registry = self.registry
        self._requests = registry.counter("service.requests")
        self._hits = registry.counter("service.hits")
        self._misses = registry.counter("service.misses")
        self._quota_evictions = registry.counter("service.quota_evictions")
        self._latency = registry.histogram(
            "service.request_ms", LATENCY_LOW_MS, LATENCY_HIGH_MS,
            LATENCY_BINS)
        registry.gauge("service.shards", lambda: float(len(self._shards)))
        registry.gauge("service.sessions",
                       lambda: float(self._open_sessions))
        for shard in self._shards:
            prefix = f"service.shard.{shard.index}"
            pool = shard.pool

            def resident(pool=pool, lock=shard.lock) -> float:
                with lock:  # scrapes run while the shard mutates
                    return float(pool.resident_count)

            registry.gauge(f"{prefix}.resident", resident)
            registry.gauge(f"{prefix}.hits",
                           lambda pool=pool: float(pool.stats.hits))
            registry.gauge(f"{prefix}.misses",
                           lambda pool=pool: float(pool.stats.misses))
            registry.gauge(f"{prefix}.evictions",
                           lambda pool=pool: float(pool.stats.evictions))

    def register_tenant(self, tenant: TenantId) -> None:
        """Pre-create the tenant's ledger account and metric instruments.

        Sessions call this on construction so the request hot path never
        creates instruments (registry creation mutates shared dicts).
        """
        self.ledger.ensure(tenant)
        with self.registry.lock:
            if tenant in self._tenant_instruments:
                return
            registry = self.registry
            prefix = f"service.tenant.{tenant}"
            self._tenant_instruments[tenant] = (
                registry.counter(f"{prefix}.requests"),
                registry.counter(f"{prefix}.hits"),
                registry.counter(f"{prefix}.misses"),
                registry.counter(f"{prefix}.quota_evictions"),
                registry.histogram(f"{prefix}.request_ms",
                                   LATENCY_LOW_MS, LATENCY_HIGH_MS,
                                   LATENCY_BINS),
            )

    # -- sessions ------------------------------------------------------------

    def session(self, tenant: TenantId,
                session_id: Optional[int] = None) -> Session:
        """Open a session for ``tenant`` (ids assigned when omitted)."""
        with self._session_lock:
            if session_id is None:
                session_id = self._next_session_id
            self._next_session_id = max(self._next_session_id,
                                        session_id + 1)
            self._open_sessions += 1
        self.register_tenant(tenant)
        return Session(self, tenant, session_id)

    def _session_closed(self) -> None:
        with self._session_lock:
            self._open_sessions -= 1

    # -- sharding ------------------------------------------------------------

    def shard_of(self, page_id: PageId) -> int:
        """The shard index serving a page id (stable for a manager)."""
        return ((page_id * _HASH_MULTIPLIER) & 0xFFFFFFFF) % len(
            self._shards)

    @property
    def shards(self) -> Tuple[BufferShard, ...]:
        """The shard tuple (for inspection and tests)."""
        return self._shards

    # -- the request path ----------------------------------------------------

    def fetch(self, page_id: PageId, tenant: TenantId,
              session_id: Optional[int] = None,
              kind: AccessKind = AccessKind.READ,
              pin: bool = True) -> Tuple[Frame, bool]:
        """Serve one page request for a tenant; ``(frame, hit)``.

        The returned frame is pinned when ``pin`` (callers must
        :meth:`unpin`). The elapsed time of the whole request — lock
        wait included, which is the contention signal the latency
        histogram exists to expose — is recorded per tenant and
        aggregate.
        """
        shard = self._shards[self.shard_of(page_id)]
        start = time.perf_counter()
        quota_enforced = False
        with shard.lock:
            pool = shard.pool
            hit = pool.is_resident(page_id)
            if not hit:
                quota_enforced = self._enforce_quota(shard, tenant,
                                                     page_id)
                frame = pool.fetch(page_id, pin=pin, kind=kind,
                                   process_id=session_id)
                if pool.last_victim is not None:
                    self._note_eviction(shard, pool.last_victim)
                self._note_admission(shard, tenant, page_id)
            else:
                frame = pool.fetch(page_id, pin=pin, kind=kind,
                                   process_id=session_id)
                owner = shard.owner.get(page_id)
                if owner is not None:
                    shard.tenant_lru[owner].move_to_end(page_id)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        self.ledger.record_request(tenant, hit)
        self._record_request_metrics(tenant, hit, elapsed_ms,
                                     quota_enforced)
        return frame, hit

    def unpin(self, page_id: PageId, dirty: bool = False) -> None:
        """Release one pin taken by :meth:`fetch`."""
        shard = self._shards[self.shard_of(page_id)]
        with shard.lock:
            shard.pool.unpin(page_id, dirty)

    # -- quota enforcement and ownership (shard lock held) -------------------

    def _enforce_quota(self, shard: BufferShard, tenant: TenantId,
                       incoming: PageId) -> bool:
        """Make an over-quota tenant pay for its own growth.

        Only acts when the shard is full (a free frame harms nobody) and
        the tenant owns an unpinned page in this shard; returns whether
        a quota eviction happened.
        """
        if not self.ledger.over_quota(tenant):
            return False
        pool = shard.pool
        if pool.resident_count < pool.capacity:
            return False
        owned = shard.tenant_lru.get(tenant)
        if not owned:
            return False
        for victim in owned:  # least recently used first
            if victim != incoming and pool.pin_count(victim) == 0:
                pool.evict_page(victim)
                self._note_eviction(shard, victim, quota_enforced=True)
                return True
        return False

    def _note_admission(self, shard: BufferShard, tenant: TenantId,
                        page_id: PageId) -> None:
        shard.owner[page_id] = tenant
        shard.tenant_lru.setdefault(tenant, OrderedDict())[page_id] = None
        self.ledger.record_admission(tenant)

    def _note_eviction(self, shard: BufferShard, victim: PageId,
                       quota_enforced: bool = False) -> None:
        owner = shard.owner.pop(victim, None)
        if owner is None:
            return
        shard.tenant_lru[owner].pop(victim, None)
        self.ledger.record_eviction(owner, quota_enforced=quota_enforced)

    # -- metrics recording ---------------------------------------------------

    def _record_request_metrics(self, tenant: TenantId, hit: bool,
                                elapsed_ms: float,
                                quota_enforced: bool) -> None:
        instruments = self._tenant_instruments.get(tenant)
        if instruments is None:
            self.register_tenant(tenant)
            instruments = self._tenant_instruments[tenant]
        requests, hits, misses, quota_evictions, latency = instruments
        with self.registry.lock:
            self._requests.inc()
            requests.inc()
            if hit:
                self._hits.inc()
                hits.inc()
            else:
                self._misses.inc()
                misses.inc()
            if quota_enforced:
                self._quota_evictions.inc()
                quota_evictions.inc()
            self._latency.observe(elapsed_ms)
            latency.observe(elapsed_ms)

    # -- aggregate views -----------------------------------------------------

    def stats(self) -> BufferStats:
        """Sum of every shard pool's :class:`BufferStats`."""
        total = BufferStats()
        for shard in self._shards:
            with shard.lock:
                stats = shard.pool.stats
                total.logical_reads += stats.logical_reads
                total.logical_writes += stats.logical_writes
                total.hits += stats.hits
                total.misses += stats.misses
                total.evictions += stats.evictions
                total.dirty_evictions += stats.dirty_evictions
                total.flushes += stats.flushes
        return total

    def tenant_accounts(self):
        """Consistent per-tenant fairness snapshot (see the ledger)."""
        return self.ledger.snapshot()

    def flush_all(self) -> int:
        """Write back every dirty frame in every shard."""
        flushed = 0
        for shard in self._shards:
            with shard.lock:
                flushed += shard.pool.flush_all()
        return flushed

    def resident_pages(self) -> frozenset:
        """Union of every shard's resident set."""
        pages: set = set()
        for shard in self._shards:
            with shard.lock:
                pages |= shard.pool.resident_pages
        return frozenset(pages)
