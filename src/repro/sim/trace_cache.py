"""Shared materialized reference strings for sweep grids.

Every cell of a paper table is a pure function of (workload spec, policy
spec, buffer size, seed) — yet materializing the reference string is the
one expensive input they all share. Before this module existed,
:func:`~repro.sim.runner.run_paper_protocol` regenerated the identical
Zipfian/OLTP trace once per policy and once more (as a full list copy)
for oracle policies that need the future. A Table 4.2 sweep over
P policies and B buffer sizes therefore sampled the same stream
``P × B`` times.

:class:`TraceCache` materializes each ``(workload, seed, total)`` string
exactly once and hands out a :class:`CachedTrace` — a compact
array-of-page-ids form when the stream carries no metadata (all reads,
no process/transaction ids), with lazy :class:`~repro.types.Reference`
reconstruction for consumers that need full reference objects. The
compact form is also what the parallel engine
(:mod:`repro.sim.parallel`) shares with forked workers copy-on-write:
one ``array('q')`` per seed instead of one Python object per reference
per process.

Oracles get :meth:`CachedTrace.page_ids` — the *same* array every
policy's victim-selection future is read from — instead of a fresh
per-policy list copy.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..types import PageId, Reference
from ..workloads.base import Workload, compact_reference_pages


class CachedTrace:
    """One materialized reference string, stored as compactly as possible.

    ``plain`` traces (every reference a metadata-free read) keep only an
    ``array('q')`` of page ids — 8 bytes per reference instead of a
    ~100-byte ``Reference`` object — and rebuild ``Reference`` objects
    lazily, only if a consumer insists on them. Traces that carry writes
    or process/transaction ids (e.g. the Section 4.3 OLTP generator)
    keep the full reference list, with the page-id array derived lazily
    for oracle consumption.

    A run reads a plain trace front to back with one iterator and never
    copies it, so forked sweep workers share the parent's page-id
    buffer instead of each holding a private copy.
    """

    __slots__ = ("_pages", "_references")

    def __init__(self, pages: Optional[Sequence[PageId]],
                 references: Optional[List[Reference]]) -> None:
        if pages is None and references is None:
            raise ValueError("a trace needs pages or references")
        self._pages = pages
        self._references = references

    @classmethod
    def from_references(cls, references: Sequence[Reference]) -> "CachedTrace":
        """Compact a materialized reference list (drops it when plain)."""
        references = list(references)
        pages = compact_reference_pages(references)
        if pages is not None:
            return cls(pages, None)  # plain: keep only the page ids
        return cls(None, references)

    @classmethod
    def materialize(cls, workload: Workload, total: int,
                    seed: int) -> "CachedTrace":
        """Expand a workload into a cached trace (no cache involved).

        Tries the workload's bulk :meth:`~repro.workloads.base.Workload.
        page_ids` materializer first — same stream, no intermediate
        ``Reference`` objects — and falls back to draining
        :meth:`~repro.workloads.base.Workload.references` when the
        workload returns None (its stream carries metadata).
        """
        pages = workload.page_ids(total, seed=seed)
        if pages is None:
            return cls.from_references(workload.references(total, seed=seed))
        return cls(pages, None)

    @property
    def plain(self) -> bool:
        """True when every reference is a metadata-free read."""
        return self._references is None

    def __len__(self) -> int:
        if self._pages is not None:
            return len(self._pages)
        return len(self._references)

    def page_ids(self, limit: Optional[int] = None) -> Sequence[PageId]:
        """The page-id sequence (shared, not a copy) — what oracles need.

        ``limit`` asks for only the first ``limit`` ids: plain traces
        hand back a slice, and reference-backed traces materialize just
        the prefix instead of compacting the whole string — `repro
        explain` replaying the head of a long trace never touches the
        tail.
        """
        if self._pages is None:
            if limit is not None and limit < len(self._references):
                return array(
                    "q", (ref.page for ref in self._references[:limit]))
            self._pages = array("q", (ref.page for ref in self._references))
        if limit is not None and limit < len(self._pages):
            return self._pages[:limit]
        return self._pages

    def references(self) -> List[Reference]:
        """Full ``Reference`` objects, reconstructed lazily for plain traces.

        For a plain trace the rebuilt list is *not* retained: caching it
        would pin ~100 bytes per reference for the rest of the sweep and
        flip :attr:`plain` off, losing the compact-array fast path for
        every later consumer. Callers that need the list repeatedly
        should keep their own reference to it.
        """
        if self._references is not None:
            return self._references
        return [Reference(page=page) for page in self._pages]


#: Cache key: (workload identity, reference count, seed).
_TraceKey = Tuple[int, int, int]


class TraceCache:
    """Materialize each (workload, seed, total) reference string once.

    The cache is keyed by workload *identity* — two distinct workload
    objects never share an entry, so differently-parameterized instances
    of the same class cannot collide. The workload is pinned for the
    cache's lifetime to keep its ``id()`` unique.

    A cache is typically scoped to one sweep/experiment; sharing it
    across the policies, capacities, and equi-effective probes of a
    table collapses ``P × B`` trace materializations into one per seed.
    """

    def __init__(self) -> None:
        self._traces: Dict[_TraceKey, CachedTrace] = {}
        self._pinned: Dict[int, Workload] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._traces)

    def get(self, workload: Workload, total: int, seed: int) -> CachedTrace:
        """The materialized trace for (workload, total, seed), cached."""
        key = (id(workload), total, seed)
        trace = self._traces.get(key)
        if trace is not None:
            self.hits += 1
            return trace
        self.misses += 1
        trace = CachedTrace.materialize(workload, total, seed)
        self._pinned[id(workload)] = workload
        self._traces[key] = trace
        return trace

    def clear(self) -> None:
        """Drop every cached trace (frees the arrays/lists)."""
        self._traces.clear()
        self._pinned.clear()


#: What the measurement loop accepts as a reference stream.
TraceLike = Union[CachedTrace, Sequence[Reference]]
