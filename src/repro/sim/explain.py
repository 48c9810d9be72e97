"""`repro explain`: why was page P evicted at reference t?

Aggregate hit ratios validate the paper's *outcome*; this module exposes
the *mechanism*. It deterministically replays one (workload, seed,
capacity) cell with a :class:`~repro.obs.provenance.ProvenanceRecorder`
attached to an LRU-K policy, then answers a pointed question about a
single eviction: the victim's backward K-distance at decision time, the
candidate set it beat (Definition 2.2's total order), which resident
pages the Correlated Reference Period protected (Section 2.1), whether
retained history (Section 2.1.2) informed the choice — and, since the
replay knows the whole reference string, what Belady's B0 oracle would
have evicted from the same resident set and the per-eviction regret.

Everything here is read-only over the simulation stack: the replay
materializes its trace as the measurement protocol does and runs through
the protocol's own driver, :func:`~repro.sim.runner.measure_hit_ratio`,
and provenance capture is decision-identical to an unobserved run
(property-tested in ``tests/sim/test_explain.py``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.lruk import LRUKPolicy
from ..errors import ConfigurationError
from ..obs.provenance import EvictionDecision, ProvenanceRecorder
from ..types import PageId
from ..workloads import (
    BankOLTPWorkload,
    MovingHotspotWorkload,
    ScanSwampingWorkload,
    TwoPoolWorkload,
    ZipfianWorkload,
)
from ..workloads.base import Workload
from .cache import CacheSimulator
from .runner import measure_hit_ratio
from .trace_cache import CachedTrace

#: Named workload factories the CLI can replay. Each builds the default
#: parameterization used by the paper-scale experiments; `repro explain`
#: cares about a *specific, reproducible* cell, not a tuned sweep.
EXPLAIN_WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "zipfian": ZipfianWorkload,
    "two-pool": TwoPoolWorkload,
    "oltp": BankOLTPWorkload,
    "scan": ScanSwampingWorkload,
    "hotspot": MovingHotspotWorkload,
}

#: Default replay length when ``--refs`` is not given.
DEFAULT_REFERENCES = 20_000


def make_workload(name: str) -> Workload:
    """Build a named workload, or raise with the known names."""
    try:
        factory = EXPLAIN_WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(EXPLAIN_WORKLOADS))
        raise ConfigurationError(
            f"unknown workload {name!r}; known: {known}") from None
    return factory()


class NextUseIndex:
    """O(log n) forward-distance oracle over a materialized trace.

    Maps each page to the sorted list of its (1-based) reference times;
    ``next_use(page, now)`` bisects for the first reference strictly
    after ``now``. This is the same future knowledge
    :class:`~repro.policies.belady.BeladyPolicy` uses, packaged as the
    :data:`~repro.obs.provenance.NextUseOracle` callable the provenance
    recorder wants.
    """

    def __init__(self, pages: Sequence[PageId]) -> None:
        occurrences: Dict[PageId, List[int]] = {}
        for index, page in enumerate(pages):
            occurrences.setdefault(page, []).append(index + 1)
        self._occurrences = occurrences
        self.horizon = len(pages)

    def next_use(self, page: PageId, now: int) -> Optional[int]:
        """Time of the page's next reference strictly after ``now``."""
        times = self._occurrences.get(page)
        if times is None:
            return None
        position = bisect_right(times, now)
        if position == len(times):
            return None
        return times[position]


@dataclass
class ExplainReport:
    """The answer `repro explain` renders."""

    workload: str
    seed: int
    capacity: int
    k: int
    correlated_reference_period: int
    references: int
    hit_ratio: float
    evictions: int
    page: PageId
    at: Optional[int]
    #: The eviction being explained (None: the page was never evicted).
    decision: Optional[EvictionDecision]
    #: Every retained eviction time of the page, for navigation.
    eviction_times: List[int]
    recorder: ProvenanceRecorder

    @property
    def found(self) -> bool:
        """True when an eviction of the page was located."""
        return self.decision is not None

    def render(self) -> str:
        """The full human-readable report."""
        lines = [
            f"workload={self.workload} seed={self.seed} "
            f"capacity={self.capacity} k={self.k} "
            f"crp={self.correlated_reference_period} "
            f"references={self.references}",
            f"replay: hit ratio {self.hit_ratio:.4f}, "
            f"{self.evictions} evictions",
            "",
        ]
        if self.decision is None:
            lines.append(f"page {self.page} was never evicted during "
                         "this replay")
            if self.eviction_times:
                sample = ", ".join(f"t={t}" for t in self.eviction_times[:10])
                lines.append(f"  (but see: {sample})")
        else:
            if self.at is not None and self.decision.time != self.at:
                lines.append(
                    f"no eviction of page {self.page} exactly at "
                    f"t={self.at}; nearest is t={self.decision.time}")
                if len(self.eviction_times) > 1:
                    sample = ", ".join(
                        f"t={t}" for t in self.eviction_times[:10])
                    more = len(self.eviction_times) - 10
                    if more > 0:
                        sample += f", ... ({more} more)"
                    lines.append(f"  all evictions of this page: {sample}")
                lines.append("")
            lines.extend(self.decision.summary_lines())
        lines.append("")
        lines.extend(self.recorder.tally_lines())
        return "\n".join(lines)


def replay_cell(workload: Workload, seed: int, capacity: int,
                references: int = DEFAULT_REFERENCES,
                k: int = 2, correlated_reference_period: int = 0,
                retained_information_period: Optional[int] = None,
                top_candidates: int = 8,
                belady: bool = True
                ) -> "tuple[ProvenanceRecorder, CacheSimulator]":
    """Replay one cell with provenance (and optionally a Belady oracle).

    Returns the populated recorder and the finished simulator. The
    replay is deterministic: the same (workload, seed, capacity, k, CRP)
    always reproduces the same decisions, which is what makes a post-hoc
    "why?" answerable at all.

    The trace is materialized with :meth:`CachedTrace.materialize` and
    played by :func:`~repro.sim.runner.measure_hit_ratio` with no
    warm-up, so every reference counts toward the hit ratio. The
    recorder keeps the run on the object path: a fused kernel records
    no decisions.
    """
    if references <= 0:
        raise ConfigurationError("need a positive reference count")
    trace = CachedTrace.materialize(workload, references, seed)
    oracle: Optional[NextUseIndex] = None
    if belady:
        oracle = NextUseIndex(trace.page_ids())
    recorder = ProvenanceRecorder(
        top_candidates=top_candidates,
        next_use=oracle.next_use if oracle is not None else None,
        horizon=oracle.horizon if oracle is not None else None)
    policy = LRUKPolicy(
        k=k, correlated_reference_period=correlated_reference_period,
        retained_information_period=retained_information_period)
    # Attach before the run: the simulator resolves the recorder once,
    # at construction.
    policy.provenance = recorder
    return recorder, measure_hit_ratio(policy, trace, capacity, 0)


def explain_eviction(workload_name: str, seed: int, capacity: int,
                     page: PageId, at: Optional[int] = None,
                     references: Optional[int] = None,
                     k: int = 2, correlated_reference_period: int = 0,
                     retained_information_period: Optional[int] = None,
                     top_candidates: int = 8,
                     belady: bool = True) -> ExplainReport:
    """The `repro explain` engine: replay, locate, and report.

    ``at`` picks the eviction of ``page`` closest to that time (exact
    match preferred); None picks the page's most recent eviction. The
    replay length defaults to :data:`DEFAULT_REFERENCES`, extended to
    cover ``at`` when a later time is asked about.
    """
    total = references if references is not None else DEFAULT_REFERENCES
    if at is not None:
        if at <= 0:
            raise ConfigurationError("--at is a 1-based reference time")
        total = max(total, at)
    workload = make_workload(workload_name)
    recorder, simulator = replay_cell(
        workload, seed, capacity, references=total, k=k,
        correlated_reference_period=correlated_reference_period,
        retained_information_period=retained_information_period,
        top_candidates=top_candidates, belady=belady)
    decision = recorder.find(page, at)
    return ExplainReport(
        workload=workload_name, seed=seed, capacity=capacity, k=k,
        correlated_reference_period=correlated_reference_period,
        references=total,
        hit_ratio=simulator.counter.hit_ratio,
        evictions=simulator.evictions,
        page=page, at=at, decision=decision,
        eviction_times=[d.time for d in recorder.decisions_for(page)],
        recorder=recorder)
