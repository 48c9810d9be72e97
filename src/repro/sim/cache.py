"""Policy-level cache simulator.

This is the instrument the paper's experiments are run on: a fixed number
of buffer slots, a replacement policy, and a reference string. It tracks
residency, hit/miss counts, evictions, and (for write references) dirty
state and write-backs — but deliberately models no pins, latency, or real
page contents; that heavier machinery lives in :class:`repro.buffer.BufferPool`.
Both drivers speak the same :class:`~repro.policies.base.ReplacementPolicy`
protocol, so a policy validated here runs unmodified there.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, FrozenSet, Iterable, Optional, Sequence

from ..clock import LogicalClock
from ..errors import ConfigurationError
from ..obs import runtime as obs_runtime
from ..obs import trace as obs_trace
from ..obs.dispatcher import EventDispatcher
from ..obs.events import AccessEvent, EvictionEvent, victim_telemetry
from ..policies.base import ReplacementPolicy
from ..policies.kernel import dirty_residents
from ..types import (
    AccessOutcome,
    HitRatioCounter,
    PageId,
    Reference,
    as_reference,
)


def _needs_observe(policy: ReplacementPolicy) -> bool:
    """True when ``policy`` must see every reference through ``observe``.

    The fast integer path and the fused kernels may skip the hook: the
    base implementation is a no-op, and policies whose override only
    consumes metadata they do not act on opt out via
    ``observe_optional`` (LRU-K does, unless it is distinguishing
    processes).
    """
    return (type(policy).observe is not ReplacementPolicy.observe
            and not getattr(policy, "observe_optional", False))


def takes_every_reference(policy: ReplacementPolicy,
                          observability: Optional[EventDispatcher]) -> bool:
    """True when a run of ``policy`` must be driven reference by reference.

    That is when an event sink takes access/eviction events
    (:attr:`repro.obs.EventDispatcher.takes_references`), an
    eviction-decision provenance recorder is attached to the policy, or
    the policy reads each reference through an ``observe`` hook it does
    not declare optional. The fused kernels
    (:meth:`CacheSimulator.run_fused`) and the measurement protocol's
    ``stack`` tier (:func:`repro.sim.run_paper_protocol`) decline then.
    """
    return ((observability is not None and observability.takes_references)
            or getattr(policy, "provenance", None) is not None
            or _needs_observe(policy))


class CacheSimulator:
    """Drive a replacement policy over a reference string.

    Parameters
    ----------
    policy:
        Any :class:`~repro.policies.base.ReplacementPolicy`.
    capacity:
        Number of buffer slots ``B``.
    observability:
        An :class:`repro.obs.EventDispatcher` to emit access/eviction
        events through. Defaults to the ambient dispatcher activated via
        :func:`repro.obs.activate`, if any; with none resolved (or no
        sink taking per-reference events) the hot path pays only a
        guard per reference, and :meth:`run_fused` may use a kernel.
    """

    def __init__(self, policy: ReplacementPolicy, capacity: int,
                 observability: Optional[EventDispatcher] = None) -> None:
        if capacity <= 0:
            raise ConfigurationError("buffer capacity must be positive")
        self.policy = policy
        self.capacity = capacity
        self._wants_observe = _needs_observe(policy)
        self._obs = obs_runtime.resolve(observability)
        if self._obs is not None and hasattr(policy, "bind_observability"):
            policy.bind_observability(self._obs)
        # Eviction-decision provenance (repro.obs.provenance): resolved
        # once, so the eviction path pays a single None-check. Attach the
        # recorder to the policy *before* constructing the simulator.
        self._provenance = getattr(policy, "provenance", None)
        self.clock = LogicalClock()
        self.counter = HitRatioCounter()
        self.warmup_counter: Optional[HitRatioCounter] = None
        self.evictions = 0
        self.writebacks = 0
        self._resident: Dict[PageId, bool] = {}  # page -> dirty?
        #: The execution tier that ran: ``"object"`` (per-reference
        #: hooks), or ``"kernel"`` once :meth:`run_fused` played the
        #: trace through the policy's fused kernel. The third tier,
        #: ``"stack"``, never reaches a simulator: the measurement
        #: protocol (:func:`repro.sim.run_paper_protocol`) answers such
        #: a run from a stack pass, because a lookup cannot leave
        #: behind the policy state a kernel run leaves.
        self.tier = "object"

    # -- state inspection -------------------------------------------------------

    @property
    def resident_pages(self) -> FrozenSet[PageId]:
        """Snapshot of resident page ids."""
        return frozenset(self._resident)

    @property
    def now(self) -> int:
        """Logical time of the most recent access."""
        return self.clock.now

    def is_resident(self, page: PageId) -> bool:
        """True when the page currently occupies a buffer slot."""
        return page in self._resident

    def is_dirty(self, page: PageId) -> bool:
        """True when the page is resident and has unwritten modifications."""
        return self._resident.get(page, False)

    # -- driving ------------------------------------------------------------------

    def access(self, item: "Reference | PageId") -> AccessOutcome:
        """Process one reference and return what happened."""
        ref = as_reference(item)
        t = self.clock.tick()
        outcome = AccessOutcome(reference=ref, time=t, hit=False)

        self.policy.observe(ref, t)
        if ref.page in self._resident:
            outcome.hit = True
            self.policy.on_hit(ref.page, t)
        else:
            if len(self._resident) >= self.capacity:
                victim = self.policy.choose_victim(t, incoming=ref.page)
                self._evict(victim, t, outcome)
            self.policy.on_admit(ref.page, t)
            self._resident[ref.page] = False

        if ref.is_write:
            self._resident[ref.page] = True
        self.counter.record(outcome.hit)
        obs = self._obs
        if obs is not None and obs.takes_references:
            obs.emit(AccessEvent(time=t, page=ref.page, hit=outcome.hit,
                                 write=ref.is_write))
        return outcome

    def access_page(self, page: PageId) -> bool:
        """Fast integer path: process one plain read reference.

        Behaviourally identical to ``access(page)`` for a metadata-free
        read, but skips the :func:`~repro.types.as_reference` isinstance
        dispatch, the :class:`~repro.types.AccessOutcome` allocation,
        and (when the policy permits) the ``observe`` hook. Returns
        whether the access hit. Pre-normalized streams — the compact
        page-id form of :class:`repro.sim.trace_cache.CachedTrace` —
        are driven through here by :func:`repro.sim.measure_hit_ratio`.
        """
        t = self.clock.tick()
        policy = self.policy
        if self._wants_observe:
            policy.observe(Reference(page=page), t)
        resident = self._resident
        if page in resident:
            hit = True
            policy.on_hit(page, t)
        else:
            hit = False
            if len(resident) >= self.capacity:
                self._evict(policy.choose_victim(t, incoming=page), t)
            policy.on_admit(page, t)
            resident[page] = False
        self.counter.record(hit)
        obs = self._obs
        if obs is not None and obs.takes_references:
            obs.emit(AccessEvent(time=t, page=page, hit=hit, write=False))
        return hit

    def run_fused(self, pages: Sequence[PageId], warmup: int,
                  next_write: Optional[Sequence[int]] = None) -> bool:
        """Play a compact trace through the policy's fused kernel.

        ``pages`` and ``next_write`` are the page and write columns of a
        :class:`~repro.sim.trace_cache.CachedTrace` (``next_write`` is
        None for a trace without writes). The fused path (see
        :mod:`repro.policies.kernel`) binds the policy's structures to
        locals — no per-reference hook dispatch, no
        :class:`~repro.types.Reference`/:class:`~repro.types.AccessOutcome`
        allocation — and is decision-identical to calling :meth:`access`
        once per reference with :meth:`start_measurement` at the
        boundary, write-backs and dirty residents included.

        This is where a kernel run meets the warm-up boundary: the
        kernel is called once for the warm-up window and once for the
        measurement window, over one iterator split at the boundary,
        each call inside a ``warmup`` or ``measure`` span under an
        ambient tracer. The kernel reports hits, write-backs and the
        residents; a window's misses are its length less its hits, and
        since every miss admitted a page, the evictions are the misses
        less the pages still resident.

        Returns True when a kernel ran (the simulator's counters, clock,
        residency and :attr:`tier` then reflect the completed run), or
        False when the caller must fall back to the object path because:

        - the run :func:`takes_every_reference`: a per-reference
          observation channel is attached (kernels emit no
          per-reference record by contract), or the policy reads each
          reference through an ``observe`` hook it does not declare
          optional (kernels never call it, so such a policy would lose
          the process ids it reads);
        - the simulator already processed references (kernels replay
          whole runs from a fresh state only);
        - the policy offers no kernel for its configuration (hook
          profiling's :class:`~repro.obs.ProfiledPolicy` never does).

        Aggregate observation — an ambient tracer, metrics, run-level
        sinks such as progress narration — does not demote a run.

        Raises :class:`~repro.errors.ConfigurationError` for a warm-up
        outside ``[0, len(pages)]``, before any kernel is built.
        """
        total = len(pages)
        if not 0 <= warmup <= total:
            raise ConfigurationError("warm-up must lie within the trace")
        if (takes_every_reference(self.policy, self._obs)
                or self.clock.now != 0 or self.counter.total):
            return False
        factory = getattr(self.policy, "make_kernel", None)
        kernel = factory(self.capacity) if factory is not None else None
        if kernel is None:
            return False
        remaining = iter(pages)
        with obs_trace.maybe_span("warmup", references=warmup):
            warmup_hits, warmup_writebacks, _ = kernel(
                islice(remaining, warmup), 0, next_write)
        with obs_trace.maybe_span("measure", references=total - warmup):
            hits, writebacks, resident = kernel(remaining, warmup,
                                                next_write)
        self.tier = "kernel"
        self.clock.advance(total)
        self.warmup_counter = HitRatioCounter(hits=warmup_hits,
                                              misses=warmup - warmup_hits)
        self.counter.hits = hits
        self.counter.misses = total - warmup - hits
        self.evictions = total - warmup_hits - hits - len(resident)
        self.writebacks = warmup_writebacks + writebacks
        self._resident = dict.fromkeys(resident, False)
        self._resident.update(dict.fromkeys(
            dirty_residents(resident, next_write, total), True))
        return True

    def _evict(self, victim: PageId, t: int,
               outcome: Optional[AccessOutcome] = None) -> None:
        dirty = self._resident.pop(victim)
        if self._provenance is not None:
            # Victim choice already recorded its decision; complete it
            # with the outcome only the driver knows.
            self._provenance.annotate_eviction(victim, t, dirty)
        obs = self._obs
        if obs is not None and obs.takes_references:
            distance, informed = victim_telemetry(self.policy, victim, t)
            obs.emit(EvictionEvent(time=t, victim=victim, dirty=dirty,
                                   backward_k_distance=distance,
                                   history_informed=informed))
        self.policy.on_evict(victim, t)
        self.evictions += 1
        if dirty:
            self.writebacks += 1
        if outcome is not None:
            outcome.evicted = victim
            outcome.evicted_dirty = dirty

    def set_capacity(self, capacity: int) -> None:
        """Resize the buffer, evicting victims if it shrank.

        Supports the dynamic frame/history-block exchange of
        :class:`repro.sim.adaptive.AdaptiveCacheSimulator` (the paper's
        Section 5 future-work idea). Shrinking evicts through the policy's
        normal victim selection, so the pages sacrificed are exactly the
        ones the policy values least.
        """
        if capacity <= 0:
            raise ConfigurationError("buffer capacity must be positive")
        self.capacity = capacity
        now = self.clock.now
        while len(self._resident) > self.capacity:
            self._evict(self.policy.choose_victim(max(1, now)), max(1, now))

    def run(self, references: Iterable["Reference | PageId"]) -> HitRatioCounter:
        """Process an entire reference string; returns the live counter."""
        for item in references:
            self.access(item)
        return self.counter

    def start_measurement(self) -> None:
        """Mark the warm-up boundary: archive and reset the hit counter.

        Implements the paper's protocol of "dropping the initial set of
        references" before measuring (Section 4.1).
        """
        self.warmup_counter = HitRatioCounter(hits=self.counter.hits,
                                              misses=self.counter.misses)
        self.counter.reset()

    @property
    def hit_ratio(self) -> float:
        """Cache hit ratio C = h/T over the current measurement window."""
        return self.counter.hit_ratio
