"""The paper's measurement protocol.

Section 4.1: "The buffer hit ratio for each algorithm was evaluated by
first allowing the algorithm to reach a quasi-stable state, dropping the
initial set of 10*N1 references, and then measuring the next T = 30*N1
references. If the number of such references finding the requested page in
buffer is given by h, then the cache hit ratio C is given by C = h / T."

:func:`measure_hit_ratio` implements exactly that warm-up/measure split
for one policy instance; :func:`run_paper_protocol` wraps it with policy
construction (wiring oracles to the workload), seeding, and repetition
averaging; :class:`PolicySpec` names a policy and knows how to build it
for a given (capacity, workload, trace) context.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, fields as dataclass_fields, is_dataclass
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..obs import runtime as obs_runtime
from ..obs import trace as obs_trace
from ..obs.dispatcher import EventDispatcher
from ..obs.events import SnapshotEvent
from ..obs.registry import MetricsRegistry
from ..policies import A0Policy, BeladyPolicy, ReplacementPolicy, make_policy
from ..stats import ConfidenceInterval, mean_confidence_interval
from ..types import HitRatioCounter, PageId, Reference
from ..workloads.base import Workload
from .cache import CacheSimulator, takes_every_reference
from .trace_cache import CachedTrace, StackResult, TraceCache, TraceLike


@dataclass
class RunContext:
    """Everything a policy factory may need to build a policy instance."""

    capacity: int
    workload: Optional[Workload] = None
    #: The materialized page-id string (oracles read their future from
    #: here). Shared with the trace cache — treat as read-only.
    trace: Optional[Sequence[PageId]] = None


#: A policy factory: receives the run context, returns a fresh policy.
PolicyFactory = Callable[[RunContext], ReplacementPolicy]


@dataclass
class PolicySpec:
    """A named, context-aware policy constructor for the harness."""

    label: str
    factory: PolicyFactory
    #: Oracles need the materialized trace in their context.
    needs_trace: bool = False

    def build(self, context: RunContext) -> ReplacementPolicy:
        """Construct a fresh policy for one run."""
        policy = self.factory(context)
        if self.needs_trace:
            if context.trace is None:
                raise ConfigurationError(
                    f"policy {self.label!r} needs the materialized trace")
            policy.prepare(context.trace)
        return policy

    # -- convenience constructors ------------------------------------------------

    @staticmethod
    def registry(label: str, name: str, **kwargs) -> "PolicySpec":
        """A spec over the policy registry, ignoring the context."""
        return PolicySpec(label, lambda ctx: make_policy(name, **kwargs))

    @staticmethod
    def lru() -> "PolicySpec":
        """Classical LRU, reported as LRU-1 per the paper."""
        return PolicySpec.registry("LRU-1", "lru")

    @staticmethod
    def lruk(k: int, correlated_reference_period: int = 0,
             retained_information_period: Optional[int] = None,
             **kwargs) -> "PolicySpec":
        """LRU-K labelled the paper's way (LRU-2, LRU-3, ...)."""
        return PolicySpec.registry(
            f"LRU-{k}", "lru-k", k=k,
            correlated_reference_period=correlated_reference_period,
            retained_information_period=retained_information_period,
            **kwargs)

    @staticmethod
    def lfu() -> "PolicySpec":
        """Never-forgetting LFU (Table 4.3 comparator)."""
        return PolicySpec.registry("LFU", "lfu")

    @staticmethod
    def a0() -> "PolicySpec":
        """The A0 oracle, wired to the workload's probability vector."""
        def factory(context: RunContext) -> ReplacementPolicy:
            if context.workload is None:
                raise ConfigurationError("A0 needs the workload in context")
            return A0Policy(context.workload.reference_probabilities())
        return PolicySpec("A0", factory)

    @staticmethod
    def opt() -> "PolicySpec":
        """Belady's B0 oracle, wired to the materialized trace."""
        return PolicySpec("OPT", lambda ctx: BeladyPolicy(), needs_trace=True)

    @staticmethod
    def capacity_aware(label: str, name: str, **kwargs) -> "PolicySpec":
        """For policies that take the buffer capacity (2Q, ARC)."""
        return PolicySpec(
            label, lambda ctx: make_policy(name, capacity=ctx.capacity,
                                           **kwargs))


@dataclass
class RunResult:
    """Outcome of one seeded run of one policy at one buffer size."""

    label: str
    capacity: int
    seed: int
    hit_ratio: float
    hits: int
    misses: int
    warmup_hit_ratio: float
    evictions: int
    writebacks: int

    @classmethod
    def of(cls, label: str, capacity: int, seed: int,
           measured: HitRatioCounter, warmup: HitRatioCounter,
           evictions: int, writebacks: int) -> "RunResult":
        """A run from its window counters, on any tier."""
        return cls(label=label, capacity=capacity, seed=seed,
                   hit_ratio=measured.hit_ratio, hits=measured.hits,
                   misses=measured.misses,
                   warmup_hit_ratio=warmup.hit_ratio,
                   evictions=evictions, writebacks=writebacks)

    @property
    def measured_references(self) -> int:
        """T, the size of the measurement window."""
        return self.hits + self.misses


def _snapshot_counters(measured: HitRatioCounter, evictions: int,
                       writebacks: int, resident: int,
                       stats: Optional[object] = None) -> dict:
    """The counters a run-boundary SnapshotEvent carries; ``stats`` is
    the policy's stats block, if it has one."""
    counters = {
        "hits": float(measured.hits),
        "misses": float(measured.misses),
        "hit_ratio": measured.hit_ratio,
        "evictions": float(evictions),
        "writebacks": float(writebacks),
        "resident": float(resident),
    }
    # LRU-K-family policies carry an LRUKStats block; surface it so the
    # eviction-quality counters land in the event stream too.
    if stats is not None and is_dataclass(stats):
        for spec in dataclass_fields(stats):
            counters[f"policy.{spec.name}"] = float(
                getattr(stats, spec.name))
        informed = getattr(stats, "history_informed_evictions", None)
        if informed is not None:
            counters["policy.history_informed_evictions"] = float(informed)
    return counters


#: Why a warm-up/measure split that measures nothing is rejected.
_EMPTY_WINDOW = "warm-up must leave a non-empty measurement window"


def check_protocol(capacities: Sequence[int], warmup: int, measured: int,
                   repetitions: int) -> None:
    """Reject a table protocol before any trace is built.

    :class:`~repro.sim.ExperimentSpec` and :func:`~repro.sim.
    sweep_buffer_sizes` call this first, so a bad value fails once
    rather than once per cell; :func:`run_paper_protocol` checks its own
    cell. A warm-up that leaves nothing to measure gets the message
    :func:`measure_hit_ratio` would raise. A grid is keyed by (capacity,
    policy label), so its capacities must be distinct.
    """
    if repetitions < 1:
        raise ConfigurationError("need at least one repetition")
    if warmup < 0 or measured < 1:
        raise ConfigurationError(_EMPTY_WINDOW)
    if not capacities:
        raise ConfigurationError("need at least one buffer capacity")
    if min(capacities) <= 0:
        raise ConfigurationError("buffer capacity must be positive")
    if len(set(capacities)) != len(capacities):
        raise ConfigurationError(
            f"each buffer capacity must appear once: {list(capacities)}")


def measure_hit_ratio(policy: ReplacementPolicy,
                      references: TraceLike,
                      capacity: int,
                      warmup: int,
                      observability: Optional[EventDispatcher] = None
                      ) -> CacheSimulator:
    """Drive one policy over a reference string with a warm-up boundary.

    ``references`` is either a sequence of :class:`~repro.types.Reference`
    objects or a :class:`~repro.sim.trace_cache.CachedTrace`. A cached
    trace is offered whole to the policy's fused kernel
    (:meth:`CacheSimulator.run_fused`, which decides); when it declines,
    plain traces are driven through the simulator's fast integer path
    (:meth:`CacheSimulator.access_page`) and others through
    :meth:`CacheSimulator.access`, all decision-identical.

    Returns the simulator so callers can pull any statistic; the hit ratio
    of the measurement window is ``simulator.hit_ratio``. When an event
    dispatcher is given (or ambient), the run is bracketed by
    ``SnapshotEvent``s: ``start``, ``measurement`` (the warm-up
    boundary; object path only, since a kernel run's counters are
    derived when it ends), and ``end`` (with final counters, including
    the policy's own stats block when it has one). Under an ambient
    tracer the run records live ``warmup`` and ``measure`` spans on
    either tier; on the kernel tier :meth:`CacheSimulator.run_fused`
    opens them around its two kernel calls.
    """
    if warmup < 0 or warmup >= len(references):
        raise ConfigurationError(_EMPTY_WINDOW)
    simulator = CacheSimulator(policy, capacity,
                               observability=observability)
    obs = simulator._obs
    observing = obs is not None and obs.has_sinks
    if observing:
        obs.emit(_start_snapshot(capacity, len(references), warmup))

    def snapshot(phase: str) -> SnapshotEvent:
        return SnapshotEvent(time=simulator.now, phase=phase,
                             counters=_snapshot_counters(
                                 simulator.counter, simulator.evictions,
                                 simulator.writebacks,
                                 len(simulator.resident_pages),
                                 getattr(policy, "stats", None)))

    measured = len(references) - warmup
    stream: Optional[Iterator] = None
    if not isinstance(references, CachedTrace):
        access, stream = simulator.access, iter(references)
    elif not simulator.run_fused(references.page_ids(), warmup,
                                 references.next_write):
        # The fused kernel (decision-identical, no per-reference
        # dispatch) declined: a per-reference channel is attached, the
        # policy reads references through observe(), or no kernel
        # exists. A per-reference path takes over.
        if references.plain:
            access, stream = simulator.access_page, iter(references.page_ids())
        else:
            access, stream = simulator.access, iter(references.references())
    if stream is not None:
        # One iterator split at the boundary: the trace is never copied.
        with obs_trace.maybe_span("warmup", references=warmup):
            for item in islice(stream, warmup):
                access(item)
        if observing:
            # Emitted before the counter reset so this snapshot
            # carries the warm-up window's totals.
            obs.emit(snapshot("measurement"))
        simulator.start_measurement()
        with obs_trace.maybe_span("measure", references=measured):
            for item in stream:
                access(item)
    if observing:
        obs.emit(snapshot("end"))
    return simulator


def _start_snapshot(capacity: int, references: int,
                    warmup: int) -> SnapshotEvent:
    """The ``start`` snapshot of a run, on every tier."""
    return SnapshotEvent(time=0, phase="start",
                         counters={"capacity": float(capacity),
                                   "references": float(references),
                                   "warmup": float(warmup)})


def _read_curve(curve: StackResult, label: str, capacity: int, seed: int,
                obs: Optional[EventDispatcher]
                ) -> Tuple[RunResult, Optional[object]]:
    """One run of a stack-property policy, read off its pass, with the
    stats block a kernel run would leave (LRU-K's; else None).

    This is the ``stack`` tier. It emits the ``start`` and ``end``
    snapshots a kernel run of the same cell emits, the latter with that
    stats block, and like a kernel run no ``measurement`` snapshot.
    """
    totals = curve.at(capacity)
    measured = HitRatioCounter(totals.hits, totals.misses)
    if obs is not None and obs.has_sinks:
        obs.emit(_start_snapshot(capacity, curve.references, curve.warmup))
        obs.emit(SnapshotEvent(
            time=curve.references, phase="end",
            counters=_snapshot_counters(measured, totals.evictions,
                                        totals.writebacks,
                                        totals.resident, totals.stats)))
    run = RunResult.of(label, capacity, seed, measured,
                       HitRatioCounter(totals.warmup_hits,
                                       totals.warmup_misses),
                       totals.evictions, totals.writebacks)
    return run, totals.stats


def _record_protocol_counters(registry: MetricsRegistry, tier: str,
                              run: RunResult, references: int,
                              stats: Optional[object]) -> None:
    """Fold one finished run's totals into protocol.* counters.

    ``stats`` is the stats block of the policy that ran, or the one a
    stack pass gives for the run; its counters are folded in too.
    """
    counter = registry.counter
    counter("protocol.runs").inc()
    # The registry has no labels: one flat counter per execution tier.
    counter(f"sim.tier.{tier}").inc()
    counter("protocol.references").inc(references)
    counter("protocol.hits").inc(run.hits)
    counter("protocol.misses").inc(run.misses)
    counter("protocol.evictions").inc(run.evictions)
    counter("protocol.writebacks").inc(run.writebacks)
    # Hit ratios are bounded in [0, 1], so one fixed binning serves
    # every run.
    registry.histogram("protocol.run_hit_ratio", 0.0, 1.0).observe(
        run.hit_ratio)
    # Point-in-time gauges for the live telemetry plane: a /metrics
    # scrape mid-sweep shows the most recently completed run.
    registry.set_gauge("protocol.last_run_hit_ratio", run.hit_ratio)
    registry.set_gauge("protocol.last_run_evictions", float(run.evictions))
    if stats is not None and is_dataclass(stats):
        for spec in dataclass_fields(stats):
            value = getattr(stats, spec.name)
            if isinstance(value, int) and value >= 0:
                counter(f"policy.{spec.name}").inc(value)


@dataclass
class ProtocolResult:
    """Aggregated repetitions of one (policy, capacity) cell."""

    label: str
    capacity: int
    interval: ConfidenceInterval
    runs: List[RunResult] = field(default_factory=list)

    @property
    def hit_ratio(self) -> float:
        """Mean hit ratio over repetitions."""
        return self.interval.mean


def run_paper_protocol(workload: Workload,
                       spec: PolicySpec,
                       capacity: int,
                       warmup: int,
                       measured: int,
                       seed: int = 0,
                       repetitions: int = 1,
                       observability: Optional[EventDispatcher] = None,
                       trace_cache: Optional[TraceCache] = None,
                       metrics: Optional[MetricsRegistry] = None
                       ) -> ProtocolResult:
    """Warm up, measure, repeat over seeds, and average — Section 4.1 style.

    ``trace_cache`` shares materialized reference strings across calls:
    a sweep passes one cache so every (policy, capacity) cell replays
    the identical trace without regenerating it, and oracle policies
    read their future from the same array instead of a private copy.
    Without a cache the trace is still materialized only once per
    repetition and shared with the oracle.

    A repetition runs on one of three tiers, all computing the same
    :class:`RunResult`:

    - ``stack``: the policy declares the stack property (LRU, LRU-K
      with CRP 0, LFU, A0), the cache already holds its pass for this
      trace and warm-up and the pass answers ``capacity`` (see
      :meth:`TraceCache.build_stack_curve`; this function never builds
      one, since for a single run a pass costs more than a kernel run),
      and nothing needs every reference
      (:func:`~repro.sim.cache.takes_every_reference`). The run is read
      off the pass, with the stats block a kernel run leaves. Such a
      policy was only a key, so the next repetition looks its pass up
      with the same one instead of building another (an A0 build and
      its key cost O(pages));
    - ``kernel`` or ``object``: otherwise :func:`measure_hit_ratio`
      drives the policy, through its fused kernel when it can.

    Events emitted during each run are tagged with
    ``policy``/``capacity``/``seed`` context so downstream sinks can
    separate the repetitions of a sweep. With an ambient tracer (see
    :mod:`repro.obs.trace`) each repetition records a ``simulate`` span
    whose ``tier`` arg names the tier that ran; a ``kernel`` or
    ``object`` span has ``warmup``/``measure`` children, a ``stack``
    span none. With a metrics registry — ``metrics`` or the ambient
    dispatcher's — the run's totals accumulate into ``protocol.*``
    counters and its tier into ``sim.tier.*``, alike on every tier.
    """
    check_protocol([capacity], warmup, measured, repetitions)
    obs = obs_runtime.resolve(observability)
    registry = metrics
    if registry is None and obs is not None:
        registry = getattr(obs, "metrics", None)
    total = warmup + measured
    runs: List[RunResult] = []
    policy = None
    for repetition in range(repetitions):
        run_seed = seed + repetition
        if trace_cache is not None:
            trace = trace_cache.get(workload, total, run_seed)
        else:
            trace = CachedTrace.materialize(workload, total, run_seed)
        if policy is None or spec.needs_trace:
            context = RunContext(capacity=capacity, workload=workload)
            if spec.needs_trace:
                context.trace = trace.page_ids()
            policy = spec.build(context)
        curve = None
        if (trace_cache is not None
                and not takes_every_reference(policy, obs)):
            curve = trace_cache.stack_curve(policy, workload, total,
                                            run_seed, warmup, capacity)
        scope = (obs.scoped(policy=spec.label, capacity=capacity,
                            seed=run_seed)
                 if obs is not None else nullcontext())
        with obs_trace.maybe_span("simulate", policy=spec.label,
                                  capacity=capacity,
                                  seed=run_seed) as span, scope:
            if curve is not None:
                tier = "stack"
                run, stats = _read_curve(curve, spec.label, capacity,
                                         run_seed, obs)
            else:
                simulator = measure_hit_ratio(policy, trace, capacity,
                                              warmup, observability=obs)
                tier, stats = simulator.tier, getattr(policy, "stats", None)
                run = RunResult.of(
                    spec.label, capacity, run_seed, simulator.counter,
                    simulator.warmup_counter, simulator.evictions,
                    simulator.writebacks)
                policy = None  # played: the next repetition builds afresh
            if span is not None:
                span.args["tier"] = tier
        if registry is not None:
            # One batch under the registry lock: a live scrape sees a
            # run's counters, histogram observation and gauges together.
            with registry.lock:
                _record_protocol_counters(registry, tier, run, total, stats)
        runs.append(run)
    interval = mean_confidence_interval([run.hit_ratio for run in runs])
    return ProtocolResult(label=spec.label, capacity=capacity,
                          interval=interval, runs=runs)
