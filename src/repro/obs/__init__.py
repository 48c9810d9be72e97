"""repro.obs — zero-dependency observability for the buffer stack.

Four layers, all strictly pay-for-what-you-use:

- **events** (:mod:`repro.obs.events`): the structured record of what the
  drivers did — accesses, evictions (with backward K-distance), flushes,
  history purges, run snapshots, windowed hit-ratio samples, progress.
- **dispatch** (:mod:`repro.obs.dispatcher`, :mod:`repro.obs.runtime`):
  an :class:`EventDispatcher` fans events out to sinks; drivers resolve
  it explicitly (``observability=``) or ambiently (:func:`activate`).
  With no sinks attached the instrumented hot paths cost one attribute
  load and one truth test per reference.
- **metrics** (:mod:`repro.obs.registry`, :mod:`repro.obs.window`):
  named counters/gauges/histograms, read as one immutable
  :class:`RegistrySnapshot` and relayed across processes with
  :meth:`MetricsRegistry.merge`, plus the sliding-window hit-ratio
  recorder that makes adaptivity quantitative.
- **sinks & profiling** (:mod:`repro.obs.sinks`,
  :mod:`repro.obs.profiler`): JSONL files, bounded ring buffers, the
  terminal timeline, and the per-hook latency profiler behind the
  distributional numbers in ``benchmarks/bench_overhead.py``.
- **live telemetry** (:mod:`repro.obs.telemetry`, :mod:`repro.obs.top`,
  :mod:`repro.obs.perf`): the Prometheus text exposition renderer and
  the stdlib ``/metrics`` + ``/healthz`` endpoint behind
  ``--serve-metrics``, the periodic :class:`ResourceSampler`, the
  ``repro top`` terminal dashboard, and the ``BENCH_history.jsonl``
  perf-trajectory ledger behind ``repro perf``.
- **tracing & provenance** (:mod:`repro.obs.trace`,
  :mod:`repro.obs.provenance`): hierarchical wall/CPU-time spans
  (``sweep → cell → simulate → warmup/measure``) with cross-process relay
  from forked sweep workers and Chrome trace-event export, plus
  per-eviction decision provenance — the candidate set, CRP exclusions,
  retained-history influence, and optional Belady-regret annotation
  behind ``repro explain``.

See ``docs/observability.md`` for the JSONL schema and the tracing /
provenance guide.
"""

from .events import (
    AccessEvent,
    CellFailureEvent,
    EvictionDecisionEvent,
    EvictionEvent,
    FlushEvent,
    ObsEvent,
    ProgressEvent,
    PurgeEvent,
    SnapshotEvent,
    WindowEvent,
    victim_telemetry,
)
from .dispatcher import CallbackSink, EventDispatcher, Sink
from .runtime import activate, current, resolve
from .registry import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
    RegistrySnapshot,
)
from .window import HitRatioWindowRecorder, SlidingHitRatioWindow
from .profiler import PROFILED_HOOKS, HookProfile, ProfiledPolicy
from .provenance import (
    CandidateInfo,
    EvictionDecision,
    NextUseOracle,
    ProvenanceRecorder,
)
from .telemetry import (
    Exposition,
    HistogramSeries,
    MetricsServer,
    ResourceSampler,
    parse_exposition,
    render_exposition,
)
from .perf import (
    PerfVerdict,
    append_record,
    check_regression,
    load_history,
    render_report,
)
from .trace import Span, Tracer, write_chrome_trace
from .sinks import (
    ConsoleProgressSink,
    JsonlSink,
    RingBufferSink,
    TimelineSink,
)

__all__ = [
    "ObsEvent",
    "AccessEvent",
    "EvictionEvent",
    "FlushEvent",
    "PurgeEvent",
    "SnapshotEvent",
    "WindowEvent",
    "ProgressEvent",
    "CellFailureEvent",
    "victim_telemetry",
    "EventDispatcher",
    "Sink",
    "CallbackSink",
    "activate",
    "current",
    "resolve",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "RegistrySnapshot",
    "SlidingHitRatioWindow",
    "HitRatioWindowRecorder",
    "ProfiledPolicy",
    "HookProfile",
    "PROFILED_HOOKS",
    "EvictionDecisionEvent",
    "CandidateInfo",
    "EvictionDecision",
    "NextUseOracle",
    "ProvenanceRecorder",
    "Exposition",
    "HistogramSeries",
    "MetricsServer",
    "ResourceSampler",
    "parse_exposition",
    "render_exposition",
    "PerfVerdict",
    "append_record",
    "check_regression",
    "load_history",
    "render_report",
    "Span",
    "Tracer",
    "write_chrome_trace",
    "JsonlSink",
    "RingBufferSink",
    "ConsoleProgressSink",
    "TimelineSink",
]
