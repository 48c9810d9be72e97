"""Simulation harness: cache simulator, experiment protocol, sweeps, tables."""

from .cache import CacheSimulator
from .adaptive import AdaptiveCacheSimulator
from .runner import (
    PolicySpec,
    RunResult,
    measure_hit_ratio,
    run_paper_protocol,
)
from .equi_effective import equi_effective_buffer_size, equi_effective_ratio
from .trace_cache import CachedTrace, TraceCache
from .parallel import fork_available
from .recovery import (
    CellExecutionError,
    CellFailure,
    SweepCheckpoint,
    SweepInterrupted,
    grid_fingerprint,
)
from .sweep import SweepCell, sweep_buffer_sizes
from .explain import (
    EXPLAIN_WORKLOADS,
    ExplainReport,
    NextUseIndex,
    explain_eviction,
    replay_cell,
)
from .experiment import ExperimentResult, ExperimentSpec, run_experiment
from .tables import format_table, Table
from .metrics import MetricsCollector, MissBreakdown
from .charts import ascii_chart, chart_experiment

__all__ = [
    "CacheSimulator",
    "AdaptiveCacheSimulator",
    "PolicySpec",
    "RunResult",
    "measure_hit_ratio",
    "run_paper_protocol",
    "equi_effective_buffer_size",
    "equi_effective_ratio",
    "CachedTrace",
    "TraceCache",
    "fork_available",
    "CellExecutionError",
    "CellFailure",
    "SweepCheckpoint",
    "SweepInterrupted",
    "grid_fingerprint",
    "SweepCell",
    "sweep_buffer_sizes",
    "EXPLAIN_WORKLOADS",
    "ExplainReport",
    "NextUseIndex",
    "explain_eviction",
    "replay_cell",
    "ExperimentResult",
    "ExperimentSpec",
    "run_experiment",
    "format_table",
    "Table",
    "MetricsCollector",
    "MissBreakdown",
    "ascii_chart",
    "chart_experiment",
]
