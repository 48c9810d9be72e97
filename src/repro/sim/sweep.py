"""Parameter sweeps over buffer sizes (the rows of the paper's tables)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from ..obs import trace as obs_trace
from ..obs.dispatcher import EventDispatcher
from ..stats import ConfidenceInterval
from ..workloads.base import Workload
from . import parallel, recovery
from .runner import PolicySpec, ProtocolResult, check_protocol
from .trace_cache import TraceCache


@dataclass
class SweepCell:
    """One buffer size's results across all policies."""

    capacity: int
    results: Dict[str, ProtocolResult] = field(default_factory=dict)

    def hit_ratio(self, label: str) -> float:
        """Mean hit ratio of the given policy at this buffer size."""
        return self.results[label].hit_ratio

    def interval(self, label: str) -> ConfidenceInterval:
        """Confidence interval of the given policy at this buffer size."""
        return self.results[label].interval


def sweep_buffer_sizes(workload: Workload,
                       specs: Sequence[PolicySpec],
                       capacities: Sequence[int],
                       warmup: int,
                       measured: int,
                       seed: int = 0,
                       repetitions: int = 1,
                       observability: Optional[EventDispatcher] = None,
                       jobs: Optional[int] = None,
                       trace_cache: Optional[TraceCache] = None,
                       checkpoint: Optional[recovery.SweepCheckpoint] = None
                       ) -> List[SweepCell]:
    """Run every (policy, capacity) cell of a table.

    The one entry point to the grid: it validates the grid and its
    protocol (:func:`~repro.sim.runner.check_protocol`), resolves
    ``jobs``, owns or borrows the trace cache and opens the ``sweep``
    span, then runs the cells through :mod:`repro.sim.parallel`.

    All cells share one :class:`~repro.sim.trace_cache.TraceCache`, so
    each seed's reference string is materialized exactly once for the
    whole sweep (pass ``trace_cache`` to extend the sharing further,
    e.g. to equi-effective probes). A cache created here is cleared when
    the sweep finishes — including the failure and interrupt paths — so
    sweeps in a long-lived process do not pin workloads forever.

    ``jobs`` builds the grid's stack passes on that many worker
    processes via :mod:`repro.sim.parallel`; ``None`` means 1 (serial).
    The cells themselves always run in this process, in grid order, so
    a pooled sweep returns cells equal to a serial one and emits the
    same events, metrics and spans. Completed cells stream into
    ``checkpoint`` when one is given — see :mod:`repro.sim.recovery`.

    Each completed cell narrates one ``B=... C=...`` line through
    :func:`repro.obs.runtime.narrate` — on ``observability``, else the
    ambient dispatcher — which the CLI's console sink prints.
    """
    if not specs:
        raise ConfigurationError("sweep needs at least one policy")
    check_protocol(capacities, warmup, measured, repetitions)
    labels = [spec.label for spec in specs]
    if len(set(labels)) != len(labels):
        raise ConfigurationError(f"duplicate policy labels: {labels}")

    jobs = parallel.resolve_jobs(jobs)
    owns_cache = trace_cache is None
    cache = trace_cache if trace_cache is not None else TraceCache()

    try:
        with obs_trace.maybe_span(
                "sweep", workload=type(workload).__name__,
                policies=labels, capacities=list(capacities),
                repetitions=repetitions, jobs=jobs):
            grid = parallel.execute_grid(
                workload, specs, capacities, warmup, measured, seed,
                repetitions, jobs, cache, observability, checkpoint)
    finally:
        if owns_cache:
            # The cache pins workloads and materialized arrays by id();
            # a sweep-local cache must not outlive the sweep.
            cache.clear()
    return [SweepCell(capacity=capacity,
                      results={spec.label: grid[(capacity, spec.label)]
                               for spec in specs})
            for capacity in capacities]
