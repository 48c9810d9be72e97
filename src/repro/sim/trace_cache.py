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
exactly once and hands out a :class:`CachedTrace`: an ``array('q')``
column of page ids, a write column when the stream writes, and the full
:class:`~repro.types.Reference` list only when references carry process
or transaction ids. Those columns are what the parallel engine
(:mod:`repro.sim.parallel`) shares with forked workers copy-on-write:
one ``array('q')`` per column per seed instead of one Python object per
reference per process.

Oracles get :meth:`CachedTrace.page_ids` — the *same* array every
policy's victim-selection future is read from — instead of a fresh
per-policy list copy.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..obs import trace as obs_trace
from ..policies.base import ReplacementPolicy
from ..policies.kernel import StackCurve, StackPass
from ..types import AccessKind, PageId, Reference
from ..workloads.base import Workload


class CachedTrace:
    """One materialized reference string, stored as columns.

    Every trace holds an ``array('q')`` of page ids — 8 bytes per
    reference instead of a ~100-byte ``Reference`` object. A trace with
    writes also holds :attr:`next_write`, the write column the fused
    kernels count write-backs from (see :mod:`repro.policies.kernel`).
    Only a trace whose references carry process or transaction ids keeps
    its ``Reference`` list, for the policies that read them; any other
    trace rebuilds ``Reference`` objects lazily, only if a consumer
    insists on them.

    A run reads the columns front to back with one iterator and never
    copies them, so forked sweep workers share the parent's buffers
    instead of each holding a private copy.
    """

    __slots__ = ("_pages", "_next_write", "_references")

    def __init__(self, pages: Sequence[PageId],
                 next_write: Optional[Sequence[int]] = None,
                 references: Optional[List[Reference]] = None) -> None:
        self._pages = pages
        self._next_write = next_write
        self._references = references

    @classmethod
    def from_references(cls, references: Sequence[Reference]) -> "CachedTrace":
        """Columns of a materialized reference list.

        The list itself is kept only when some reference carries a
        process or transaction id; the page and write columns represent
        every other stream exactly.
        """
        references = list(references)
        pages = array("q", [ref.page for ref in references])
        writes = any(ref.kind is AccessKind.WRITE for ref in references)
        annotated = any(ref.process_id is not None or ref.txn_id is not None
                        for ref in references)
        return cls(pages, _next_writes(references) if writes else None,
                   references if annotated else None)

    @classmethod
    def materialize(cls, workload: Workload, total: int,
                    seed: int) -> "CachedTrace":
        """Expand a workload into a cached trace (no cache involved).

        A plain workload's :meth:`~repro.workloads.base.Workload.page_ids`
        column is the trace, with no ``Reference`` object built. A
        workload whose references carry metadata returns None there, and
        its :meth:`~repro.workloads.base.Workload.references` are drained
        once into columns (:meth:`from_references`).
        """
        pages = workload.page_ids(total, seed=seed)
        if pages is None:
            return cls.from_references(workload.references(total, seed=seed))
        return cls(pages)

    @property
    def plain(self) -> bool:
        """True when every reference is a metadata-free read."""
        return self._next_write is None and self._references is None

    @property
    def next_write(self) -> Optional[Sequence[int]]:
        """The write column, or None when the trace never writes.

        ``next_write[i]`` is the time of the first write to
        ``page_ids()[i]`` at or after time ``i + 1`` (the reference's own
        1-based time), or ``len(self) + 1`` when the page is not written
        again.
        """
        return self._next_write

    def __len__(self) -> int:
        return len(self._pages)

    def page_ids(self) -> Sequence[PageId]:
        """The page-id column (shared, not a copy) — what oracles need."""
        return self._pages

    def references(self) -> List[Reference]:
        """Full ``Reference`` objects, reconstructed lazily from the columns.

        A trace without process or transaction ids does *not* retain the
        rebuilt list: caching it would pin ~100 bytes per reference for
        the rest of the sweep. Callers that need the list repeatedly
        should keep their own reference to it.
        """
        if self._references is not None:
            return self._references
        next_write = self._next_write
        if next_write is None:
            return [Reference(page=page) for page in self._pages]
        return [Reference(page=page, kind=AccessKind.WRITE)
                if next_write[i] == i + 1 else Reference(page=page)
                for i, page in enumerate(self._pages)]


def _next_writes(references: Sequence[Reference]) -> array:
    """The write column of a reference list (see :attr:`CachedTrace.
    next_write`), built in one backward pass."""
    total = len(references)
    column = array("q", bytes(8 * total))
    upcoming: Dict[PageId, int] = {}
    upcoming_write = upcoming.get
    never = total + 1
    write = AccessKind.WRITE
    for i in range(total - 1, -1, -1):
        ref = references[i]
        page = ref.page
        if ref.kind is write:
            upcoming[page] = i + 1
        column[i] = upcoming_write(page, never)
    return column


#: Cache key: (workload identity, reference count, seed).
_TraceKey = Tuple[int, int, int]

#: Pass key: (policy class, its stack key, workload identity, reference
#: count, seed, warm-up).
_CurveKey = Tuple[type, Hashable, int, int, int, int]

#: What a ``stack_hits`` hook returns.
StackResult = Union[StackCurve, StackPass]


def _curve_key(policy: ReplacementPolicy, workload: Workload, total: int,
               seed: int, warmup: int) -> Optional[_CurveKey]:
    """Where ``policy``'s pass over this trace is kept, or None when the
    policy declares no ``stack_hits`` hook.

    Beside its class, a policy whose decisions depend on its parameters
    names them in a ``stack_key`` (LRU-K its K, A0 its probabilities),
    so LRU-3 never reads LRU-2's pass.
    """
    if getattr(policy, "stack_hits", None) is None:
        return None
    return (type(policy), getattr(policy, "stack_key", None), id(workload),
            total, seed, warmup)


class TraceCache:
    """Materialize each (workload, seed, total) reference string once.

    The cache is keyed by workload *identity* — two distinct workload
    objects never share an entry, so differently-parameterized instances
    of the same class cannot collide. The workload is pinned for the
    cache's lifetime to keep its ``id()`` unique.

    A cache is typically scoped to one sweep/experiment; sharing it
    across the policies, capacities, and equi-effective probes of a
    table collapses ``P × B`` trace materializations into one per seed.

    It also keeps stack passes. A policy that declares the stack
    property (a ``stack_hits`` hook: LRU, LRU-K with CRP 0, LFU, A0)
    yields, from one pass over a trace with a given warm-up, every total
    of a fresh run at each capacity asked for: LRU's
    :class:`~repro.policies.kernel.StackCurve` answers every capacity,
    the others' :class:`~repro.policies.kernel.StackPass` the table's
    rows. Only :meth:`build_stack_curve` runs a pass (and
    :meth:`add_stack_curve` keeps one a sweep worker ran);
    :func:`~repro.sim.sweep_buffer_sizes` builds them before its cells,
    and :func:`~repro.sim.run_paper_protocol` reads them with
    :meth:`stack_curve`. A pass holds O(distinct pages + capacities)
    integers.
    """

    def __init__(self) -> None:
        self._traces: Dict[_TraceKey, CachedTrace] = {}
        self._pinned: Dict[int, Workload] = {}
        self._curves: Dict[_CurveKey, StackResult] = {}
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

    def stack_curve(self, policy: ReplacementPolicy, workload: Workload,
                    total: int, seed: int, warmup: int,
                    capacity: int) -> Optional[StackResult]:
        """The pass built for ``policy`` on this trace and warm-up when
        it answers ``capacity``, else None. This lookup never runs a
        pass."""
        key = _curve_key(policy, workload, total, seed, warmup)
        curve = None if key is None else self._curves.get(key)
        if curve is None or not curve.covers(capacity):
            return None
        return curve

    def build_stack_curve(self, policy: ReplacementPolicy,
                          workload: Workload, total: int, seed: int,
                          warmup: int,
                          capacities: Optional[Sequence[int]] = None,
                          label: Optional[str] = None
                          ) -> Optional[StackResult]:
        """The pass for this trace and warm-up, from ``policy``'s
        ``stack_hits`` hook on first request.

        ``capacities`` are the buffer sizes to answer; None asks for
        every size, which only LRU's curve answers. None is returned
        when the policy declares no hook or its pass cannot answer
        ``capacities``. A pass records a ``stack.pass`` span named by
        ``label`` (else the policy's name) under an ambient tracer.
        """
        key = _curve_key(policy, workload, total, seed, warmup)
        if key is None:
            return None
        curve = self._curves.get(key)
        if curve is None:
            trace = self.get(workload, total, seed)
            with obs_trace.maybe_span(
                    "stack.pass", policy=label or policy.name, seed=seed,
                    capacities=(None if capacities is None
                                else len(set(capacities))),
                    references=total):
                curve = policy.stack_hits(trace.page_ids(), warmup,
                                          trace.next_write, capacities)
            if curve is not None:
                self._curves[key] = curve
        return curve

    def add_stack_curve(self, policy: ReplacementPolicy,
                        workload: Workload, total: int, seed: int,
                        warmup: int, curve: StackResult) -> None:
        """Keep a pass built elsewhere: by a pooled sweep's pass worker,
        before the cells' pool forks and its workers inherit the cache."""
        key = _curve_key(policy, workload, total, seed, warmup)
        if key is not None:
            self._curves[key] = curve

    def clear(self) -> None:
        """Drop every cached trace and curve (frees the arrays/lists)."""
        self._traces.clear()
        self._curves.clear()
        self._pinned.clear()


#: What the measurement loop accepts as a reference stream.
TraceLike = Union[CachedTrace, Sequence[Reference]]
