"""Replacement-policy interface and registry.

Every buffering algorithm in the library — the paper's LRU-K, the classical
LRU it generalizes, the LFU/CLOCK/LRD family it argues against, the A0 and
Belady oracles it is measured against, and the 2Q/ARC lineage it spawned —
implements one event-driven interface:

- ``on_hit(page, now)``      — the referenced page was already resident;
- ``on_admit(page, now)``    — the referenced page was just brought in;
- ``choose_victim(now, incoming=..., exclude=...)`` — name the resident
  page to drop so ``incoming`` can be admitted (pure: does not change
  residency);
- ``on_evict(page, now)``    — the simulator confirms the eviction;
- ``prepare(trace)``         — optional oracle hook (Belady's B0 needs the
  whole future; A0 receives its probability vector at construction).

The driver (either :class:`repro.sim.CacheSimulator` or the full
:class:`repro.buffer.BufferPool`) owns the resident set and calls these
hooks; the base class mirrors residency so subclasses can index their
bookkeeping and so invariants are checkable in tests.

``now`` is the 1-based reference-string subscript ``t`` of the access being
processed, exactly the paper's notion of time.

Threading contract
------------------

Policies are **thread-confined, not thread-safe**: a policy instance
carries mutable bookkeeping (the residency mirror here, plus whatever
the subclass keeps) and takes no locks of its own. Exactly one driver
may deliver the event protocol to an instance, and concurrent drivers
must hold an external lock around *every* hook call — the hooks are not
individually atomic (``choose_victim`` followed by ``on_evict`` is one
critical section, not two). The concurrent service layer
(:mod:`repro.service.sharded`) satisfies this by giving each shard a
private policy behind the shard lock and never sharing instances; the
single-threaded simulators satisfy it trivially. Sharing one policy
between pools, or one pool between unlocked threads, is a bug even if
it happens not to crash.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, Optional, Sequence, Type

from ..errors import ConfigurationError, NoEvictableFrameError, PolicyError
from ..types import PageId

#: Empty exclusion set reused by default arguments.
NO_EXCLUSIONS: FrozenSet[PageId] = frozenset()

#: Heap rebuild slack: policies whose victim heap can hold orphans, the
#: entries of evicted pages (LRU-K, LFU), rebuild it from the residents
#: when an admission pushes it past 2x the live population plus this
#: constant (which keeps tiny buffers from rebuilding constantly).
HEAP_COMPACT_SLACK = 64


class ReplacementPolicy(abc.ABC):
    """Abstract page replacement policy. See module docstring for protocol."""

    #: Registry name; subclasses override (e.g. "lru", "lru-2", "lfu").
    name: str = "abstract"

    def __init__(self) -> None:
        self._resident: set = set()
        #: Event dispatcher bound by an observing driver, or None. Policies
        #: that emit their own telemetry (LRU-K's purge demon) check this;
        #: everything else can ignore it.
        self.observability = None

    def bind_observability(self, dispatcher) -> None:
        """Attach an :class:`repro.obs.EventDispatcher` for policy events."""
        self.observability = dispatcher

    # -- residency mirror ----------------------------------------------------

    def __contains__(self, page: PageId) -> bool:
        return page in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    @property
    def resident_pages(self) -> FrozenSet[PageId]:
        """Snapshot of the pages the policy believes are resident."""
        return frozenset(self._resident)

    # -- protocol ------------------------------------------------------------

    def observe(self, reference, now: int) -> None:
        """Receive the full :class:`~repro.types.Reference` being processed.

        Drivers call this immediately before the corresponding
        :meth:`on_hit`/:meth:`on_admit`, so policies that exploit
        reference metadata (e.g. LRU-K's process-aware Time-Out
        Correlation, Section 2.1.1) can see process/transaction ids and
        the read/write kind. The default is a no-op; the page-id-only
        hooks remain the decision surface.
        """

    def on_hit(self, page: PageId, now: int) -> None:
        """The referenced page was found resident at time ``now``."""
        if page not in self._resident:
            raise PolicyError(f"hit on non-resident page {page}")

    def on_admit(self, page: PageId, now: int) -> None:
        """The referenced page was fetched and admitted at time ``now``."""
        if page in self._resident:
            raise PolicyError(f"admitting already-resident page {page}")
        self._resident.add(page)

    def on_evict(self, page: PageId, now: int) -> None:
        """The driver evicted ``page`` (normally one we chose)."""
        if page not in self._resident:
            raise PolicyError(f"evicting non-resident page {page}")
        self._resident.discard(page)

    @abc.abstractmethod
    def choose_victim(self, now: int,
                      incoming: Optional[PageId] = None,
                      exclude: FrozenSet[PageId] = NO_EXCLUSIONS) -> PageId:
        """Return the resident page to drop.

        ``incoming`` is the page about to be admitted (policies such as the
        multi-pool baseline choose victims from the incoming page's pool).
        ``exclude`` holds pages that must not be chosen (pinned frames).
        Must raise :class:`NoEvictableFrameError` when every resident page
        is excluded, and must not mutate residency — the driver follows up
        with :meth:`on_evict`.
        """

    def prepare(self, trace: Sequence[PageId]) -> None:
        """Receive the full future reference string (oracles only)."""

    def make_kernel(self, capacity: int):
        """Return a fused simulation kernel for this policy, or None.

        A kernel is a closure ``kernel(pages, t, next_write) -> (hits,
        writebacks, resident)`` that plays the page ids it is given,
        numbered from ``t + 1``, in one loop (``next_write`` is the
        trace's write column or None), keeps its state between calls,
        and returns the call's hits and write-backs with every resident
        page mapped to its admission time. Played over a trace, it is
        decision-identical to driving
        :meth:`repro.sim.CacheSimulator.access` one reference at a time
        (see :mod:`repro.policies.kernel` for the full contract;
        :meth:`repro.sim.CacheSimulator.run_fused` calls it once per
        protocol window). The default — no kernel — keeps every policy
        on the object path; policies with a fused implementation
        override this and may still return None for configurations (or
        live state) the fused loop does not replicate.
        """
        return None

    def reset(self) -> None:
        """Forget everything (fresh run). Subclasses extend."""
        self._resident.clear()

    # -- helpers for subclasses ----------------------------------------------

    def _check_candidates(self, exclude: FrozenSet[PageId]) -> None:
        """Raise when no resident page is evictable."""
        if not self._resident:
            raise NoEvictableFrameError("no resident pages to evict")
        if exclude and self._resident <= exclude:
            raise NoEvictableFrameError("all resident pages are excluded")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(resident={len(self._resident)})"


# -- registry -----------------------------------------------------------------

_REGISTRY: Dict[str, Callable[..., ReplacementPolicy]] = {}


def register_policy(name: str) -> Callable[[Type[ReplacementPolicy]],
                                           Type[ReplacementPolicy]]:
    """Class decorator registering a policy constructor under ``name``."""
    def decorator(cls: Type[ReplacementPolicy]) -> Type[ReplacementPolicy]:
        if name in _REGISTRY:
            raise ConfigurationError(f"duplicate policy name {name!r}")
        cls.name = name
        _REGISTRY[name] = cls
        return cls
    return decorator


def register_policy_factory(name: str,
                            factory: Callable[..., ReplacementPolicy]) -> None:
    """Register a callable (e.g. a partial over LRUKPolicy) under ``name``."""
    if name in _REGISTRY:
        raise ConfigurationError(f"duplicate policy name {name!r}")
    _REGISTRY[name] = factory


def available_policies() -> Iterator[str]:
    """Iterate registered policy names in sorted order."""
    return iter(sorted(_REGISTRY))


def make_policy(name: str, **kwargs) -> ReplacementPolicy:
    """Instantiate a registered policy by name.

    Examples: ``make_policy("lru")``, ``make_policy("lru-k", k=2)``,
    ``make_policy("a0", probabilities={...})``.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown policy {name!r}; known: {known}") from None
    return factory(**kwargs)
