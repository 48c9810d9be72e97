"""Parallel sweep engine: fan the (policy, capacity) grid over processes.

The paper's evaluation (Section 4.1) is a grid of independent cells —
each a pure function of (workload spec, policy spec, buffer size, seed).
:func:`execute_grid`, the engine behind the one entry point
:func:`~repro.sim.sweep.sweep_buffer_sizes`, runs that grid on a
``ProcessPoolExecutor`` and merges the results deterministically, so a
parallel sweep returns *bit-identical* results to a serial one
(property-tested in ``tests/sim/test_parallel.py``).

Policy specs hold closures, which do not pickle; the engine therefore
requires the ``fork`` start method (standard on Linux): the grid's
:class:`_GridRun` — its inputs and a trace cache pre-warmed with every
run seed's reference string — is published in a module-level registry
*before* the pool forks, and workers inherit it copy-on-write and run
cells through its :meth:`~_GridRun.run_cell`, as the parent does. Each
task submission carries only a job id and a cell; no worker regenerates
a reference string. On platforms without ``fork`` the engine degrades
to in-process execution with the same shared cache.

Workers run unobserved: the parent's ambient event dispatcher (and its
file sinks) must not be written from forked children, so the first thing
a worker task does is clear the inherited ambient dispatcher. A worker
still runs each cell on the tier a serial sweep would: while the
parent's dispatcher takes per-reference events, worker runs take the
object path too and drop those events, so the relayed ``sim.tier.*``
counters match a serial sweep's. Progress is instead narrated from the
parent — one :class:`~repro.obs.events.ProgressEvent` per *completed*
cell, in completion order, through :func:`repro.obs.runtime.narrate` —
so ``--timeline``/``--quiet`` behave under ``--jobs N`` exactly as in
serial mode.

One rule handles every failure. A cell the pool did not return — its
worker raised, or died and broke the pool — runs again in-process after
the pool drains, in grid order, through the same routine a serial sweep
uses. A cell that raises in-process is recorded as a
:class:`~repro.sim.recovery.CellFailure`; the other cells still finish
and checkpoint, then :class:`~repro.sim.recovery.CellExecutionError` is
raised. Cells are deterministic, so nothing is retried in the pool:
after a worker dies, the rest of that sweep runs in-process. Completed
cells stream into an optional
:class:`~repro.sim.recovery.SweepCheckpoint`; a ``KeyboardInterrupt``
salvages them (flushing the checkpoint) instead of orphaning the sweep.
Failures surface as :class:`~repro.obs.events.CellFailureEvent`s and the
``sweep.cell.fallbacks`` / ``sweep.cell.failures`` counters.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..obs import runtime as obs_runtime
from ..obs import trace as obs_trace
from ..obs.dispatcher import CallbackSink, EventDispatcher
from ..obs.events import CellFailureEvent
from ..obs.registry import MetricsRegistry, RegistrySnapshot
from ..workloads.base import Workload
from . import recovery
from .runner import PolicySpec, ProtocolResult, run_paper_protocol
from .trace_cache import TraceCache

#: A grid result: {(capacity, policy label): ProtocolResult}.
GridResults = Dict[Tuple[int, str], ProtocolResult]


class _Cell(NamedTuple):
    """A grid cell by position."""

    capacity: int
    #: Index into the grid's policy specs.
    index: int


def resolve_jobs(jobs: Optional[int]) -> int:
    """An explicit job count if given, else 1 (serial)."""
    if jobs is None:
        return 1
    if jobs <= 0:
        raise ConfigurationError("jobs must be a positive integer (or None)")
    return jobs


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass
class _CellOutput:
    """What a worker sends back over the result channel.

    The cell's :class:`ProtocolResult` plus the observability side
    channels: serialized spans (plain dicts, see
    :meth:`repro.obs.trace.Tracer.serialize`) and the worker registry's
    snapshot at cell exit, which the parent folds in with
    :meth:`repro.obs.registry.MetricsRegistry.merge` (the worker pid is
    the provenance of its gauges). Both ride the existing pickle result
    channel — no extra IPC machinery.
    """

    result: ProtocolResult
    spans: List[Dict[str, object]] = field(default_factory=list)
    metrics: Optional[RegistrySnapshot] = None
    worker_pid: int = 0


class _GridRun:
    """One grid's inputs, completed cells and failure records.

    :func:`_pool_pass` publishes it whole to forked workers.
    """

    def __init__(self, workload: Workload, specs: Sequence[PolicySpec],
                 capacities: Sequence[int], warmup: int, measured: int,
                 seed: int, repetitions: int, cache: TraceCache,
                 observability: Optional[EventDispatcher],
                 checkpoint: Optional[recovery.SweepCheckpoint]) -> None:
        self.workload = workload
        self.specs = specs
        self.warmup = warmup
        self.measured = measured
        self.seed = seed
        self.repetitions = repetitions
        self.cache = cache
        self.obs = obs_runtime.resolve(observability)
        self.registry: Optional[MetricsRegistry] = (
            getattr(self.obs, "metrics", None)
            if self.obs is not None else None)
        #: Every cell, in grid order.
        self.order = [_Cell(capacity, index) for capacity in capacities
                      for index in range(len(specs))]
        self.results: GridResults = {}
        self.failures: List[recovery.CellFailure] = []
        self.checkpoint = checkpoint
        self.fingerprint = ""
        if checkpoint is not None:
            self.fingerprint = recovery.grid_fingerprint(
                workload, specs, capacities, warmup, measured, seed,
                repetitions)
            self.results.update(checkpoint.completed(self.fingerprint))

    def run_cell(self, cell: _Cell, observability: Optional[EventDispatcher],
                 metrics: Optional[MetricsRegistry] = None
                 ) -> ProtocolResult:
        """Run one cell: the routine of both the parent and a worker."""
        return run_paper_protocol(
            self.workload, self.specs[cell.index], cell.capacity,
            self.warmup, self.measured, seed=self.seed,
            repetitions=self.repetitions, observability=observability,
            trace_cache=self.cache, metrics=metrics)

    def done(self, cell: _Cell) -> bool:
        """True once the cell's result is in :attr:`results`."""
        capacity, index = cell
        return (capacity, self.specs[index].label) in self.results

    def track_progress(self) -> None:
        """Publish the grid's cell-completion gauges for live scrapes.

        ``sweep.cells_total`` / ``sweep.cells_done`` are what ``repro
        top`` renders as the progress bar; resumed cells from a
        checkpoint count as already done.
        """
        if self.registry is None:
            return
        with self.registry.lock:
            self.registry.set_gauge("sweep.cells_total",
                                    float(len(self.order)))
            self.registry.set_gauge("sweep.cells_done",
                                    float(len(self.results)))
            # Register the fault counters at zero up front: a live
            # /metrics scrape of a healthy sweep should show them
            # absent-of-faults, not absent-of-instrumentation.
            for name in ("sweep.cell.fallbacks", "sweep.cell.failures"):
                self.registry.counter(name)

    def complete(self, capacity: int, label: str,
                 result: ProtocolResult) -> None:
        """Record one finished cell: results, checkpoint, narration."""
        self.results[(capacity, label)] = result
        if self.registry is not None:
            self.registry.set_gauge("sweep.cells_done",
                                    float(len(self.results)))
        if self.checkpoint is not None:
            self.checkpoint.record(self.fingerprint, result)
        obs_runtime.narrate(
            f"B={capacity:<6d} {label:<8s} C={result.hit_ratio:.4f}",
            self.obs)

    def fail(self, cell: _Cell, attempt: int, kind: str, error: str,
             action: str) -> None:
        """Report one failed attempt as an event and a counter.

        ``attempt`` is the 1-based number of attempts consumed so far;
        ``action`` is ``"fallback"`` (the pool did not return the cell,
        which re-runs in-process) or ``"failed"`` (the cell raised
        in-process and is recorded as a :class:`CellFailure`).
        """
        capacity, index = cell
        label = self.specs[index].label
        if self.obs is not None and self.obs.has_sinks:
            self.obs.emit(CellFailureEvent(
                capacity=capacity, label=label, attempt=attempt,
                failure=kind, error=error, action=action))
        if action == "failed":
            self.failures.append(recovery.CellFailure(
                capacity=capacity, label=label, attempts=attempt,
                kind=kind, error=error))
        if self.registry is not None:
            self.registry.counter(
                "sweep.cell.fallbacks" if action == "fallback"
                else "sweep.cell.failures").inc()

    def run_in_process(self, cells: Sequence[_Cell], attempt: int) -> None:
        """Run cells here, in order; a cell that raises is recorded.

        The one in-process cell routine: a serial sweep runs every cell
        through it as ``attempt`` 1, and a pooled sweep runs the cells
        its pool did not return as ``attempt`` 2. A raising cell does
        not stop the others.
        """
        for cell in cells:
            label = self.specs[cell.index].label
            try:
                with obs_trace.maybe_span("cell", capacity=cell.capacity,
                                          policy=label):
                    result = self.run_cell(cell, self.obs)
            except Exception as exc:
                self.fail(cell, attempt, recovery.ERROR, repr(exc),
                          action="failed")
                continue
            self.complete(cell.capacity, label, result)

    def salvage(self) -> "recovery.SweepInterrupted":
        """Flush the checkpoint and wrap the completed cells for re-raise."""
        if self.checkpoint is not None:
            self.checkpoint.flush()
        return recovery.SweepInterrupted(self.results)

    def finish(self) -> GridResults:
        """Raise if any cell failed, else hand back the grid."""
        if self.failures:
            if self.checkpoint is not None:
                self.checkpoint.flush()
            raise recovery.CellExecutionError(self.failures, self.results)
        return self.results


# -- fork-shared grid state ----------------------------------------------------

#: Grids visible to forked workers, each with whether the parent traced;
#: keyed by a monotonically increasing id so overlapping grids (nested
#: sweeps) cannot collide.
_SHARED: Dict[int, Tuple[_GridRun, bool]] = {}
_job_ids = itertools.count()


def _run_cell(job_id: int, cell: _Cell) -> _CellOutput:
    """Worker task: one (policy, capacity) cell of a published grid."""
    # Forked workers inherit the parent's ambient dispatcher (and its
    # open file sinks) and the parent's ambient tracer; emitting through
    # the former from many processes would interleave corrupt output,
    # and appending to the latter is invisible to the parent — so
    # workers clear both and build their own instruments when asked.
    obs_runtime.deactivate()
    obs_trace.deactivate()
    run, traced = _SHARED[job_id]
    # A worker-local registry's snapshot is relayed for the parent to merge.
    registry = MetricsRegistry() if run.registry is not None else None
    observability = None
    if run.obs is not None and run.obs.takes_references:
        # A sink that takes per-reference events demotes serial runs to
        # the object path, so worker runs take it too (their events are
        # dropped).
        observability = EventDispatcher()
        observability.attach(CallbackSink(lambda event, context: None))
    spans: List[Dict[str, object]] = []
    if traced:
        tracer = obs_trace.Tracer()
        with obs_trace.activate(tracer):
            result = run.run_cell(cell, observability, registry)
        spans = tracer.serialize()
    else:
        result = run.run_cell(cell, observability, registry)
    return _CellOutput(
        result=result, spans=spans,
        metrics=registry.snapshot() if registry is not None else None,
        worker_pid=os.getpid())


# -- the engine ----------------------------------------------------------------


def execute_grid(workload: Workload, specs: Sequence[PolicySpec],
                 capacities: Sequence[int], warmup: int, measured: int,
                 seed: int, repetitions: int, jobs: int, cache: TraceCache,
                 observability: Optional[EventDispatcher],
                 checkpoint: Optional[recovery.SweepCheckpoint]
                 ) -> GridResults:
    """Run every (policy, capacity) cell of a grid, ``jobs`` at a time.

    The engine behind :func:`~repro.sim.sweep.sweep_buffer_sizes`, which
    validates the grid, resolves ``jobs`` and supplies the cache.
    Returns ``{(capacity, label): ProtocolResult}`` — an order-free
    shape the caller assembles into its own rows, making the merge
    deterministic regardless of completion order. The engine falls back
    to in-process execution (still sharing the one trace cache) when
    process parallelism is unavailable.

    Cells already present in ``checkpoint`` (matched by grid
    fingerprint) are returned without re-running; newly completed cells
    are appended as they finish. A ``KeyboardInterrupt`` raises
    :class:`~repro.sim.recovery.SweepInterrupted` carrying every
    completed cell; cells that raised in-process raise
    :class:`~repro.sim.recovery.CellExecutionError` — in both cases
    after the checkpoint is flushed, so no completed work is lost.
    """
    run = _GridRun(workload, specs, capacities, warmup, measured, seed,
                   repetitions, cache, observability, checkpoint)
    remaining = [cell for cell in run.order if not run.done(cell)]
    run.track_progress()
    if not remaining:
        return run.results

    pooled = jobs > 1 and fork_available() and len(remaining) > 1
    try:
        # Materialize every run seed's trace once, pre-fork: workers
        # inherit the compact arrays copy-on-write instead of
        # regenerating them. Runs only iterate a trace, never slice it,
        # so no worker makes a private copy of the page ids.
        for repetition in range(repetitions):
            cache.get(workload, warmup + measured, seed + repetition)
        last = _pool_pass(run, remaining, jobs) if pooled else None
        run.run_in_process([cell for cell in remaining if not run.done(cell)],
                           attempt=2 if pooled else 1)
        if last is not None:
            # Gauges merged last-write-wins in completion order, so live
            # scrapes showed the latest finished cell. A serial sweep
            # ends on the grid's last cell: re-apply its relayed gauges
            # (only those) so the final snapshot does too. (Had the pool
            # not returned it, it ran last in-process and wrote its own.)
            metrics, worker = last
            run.registry.merge(RegistrySnapshot(gauges=metrics.gauges),
                               worker=worker)
    except KeyboardInterrupt:
        raise run.salvage() from None
    return run.finish()


def _pool_pass(run: _GridRun, cells: Sequence[_Cell], jobs: int
               ) -> Optional[Tuple[RegistrySnapshot, str]]:
    """Run cells on a fork pool and record every cell it returns.

    All cells are submitted up front. A cell whose worker raised, or
    died and broke the pool (which fails every pending cell with it),
    is reported as a ``fallback`` and left for the caller to re-run
    in-process. Returns the relayed snapshot and worker pid of the last
    cell in grid order when the pool returned that cell.
    """
    tracer = obs_trace.current()
    # Flush the parent's sinks before forking: a child inheriting
    # buffered-but-unwritten file output would duplicate it at exit.
    if run.obs is not None:
        run.obs.flush()
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(cells)),
                               mp_context=multiprocessing.get_context("fork"))
    job_id = next(_job_ids)
    _SHARED[job_id] = (run, tracer is not None)
    last: Optional[Tuple[RegistrySnapshot, str]] = None
    try:
        window: Dict[Future, _Cell] = {}
        for cell in cells:
            try:
                future = pool.submit(_run_cell, job_id, cell)
            except BrokenProcessPool as exc:
                run.fail(cell, 1, recovery.CRASH, repr(exc),
                         action="fallback")
                continue
            window[future] = cell
        while window:
            done, _ = wait(window, return_when=FIRST_COMPLETED)
            for future in done:
                cell = window.pop(future)
                try:
                    output = future.result()
                except Exception as exc:
                    kind = (recovery.CRASH
                            if isinstance(exc, BrokenProcessPool)
                            else recovery.ERROR)
                    run.fail(cell, 1, kind, repr(exc), action="fallback")
                    continue
                # The observability side channels merge as each cell
                # completes — not at sweep end — so a live /metrics
                # scrape sees worker counters, histogram buckets, and
                # gauges mid-sweep. Counters and histogram bin counts
                # are sums (order-independent, exact); only the
                # histogram mean's Chan merge is completion-order
                # sensitive, and only in the last ulp.
                label = run.specs[cell.index].label
                if tracer is not None:
                    _absorb_cell(tracer, output.spans, cell.capacity, label)
                if run.registry is not None and output.metrics is not None:
                    worker = str(output.worker_pid)
                    run.registry.merge(output.metrics, worker=worker)
                    if cell == cells[-1]:
                        last = (output.metrics, worker)
                run.complete(cell.capacity, label, output.result)
    finally:
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        finally:
            _SHARED.pop(job_id, None)
    return last


def _absorb_cell(tracer: "obs_trace.Tracer",
                 spans: List[Dict[str, object]],
                 capacity: int, label: str) -> None:
    """Adopt one worker cell's relayed spans into the parent tracer.

    Synthesizes the parent-side ``cell`` envelope covering the worker
    spans' wall-clock extent (absolute timestamps make the two processes
    directly comparable), then re-parents the worker's root spans under
    it via :meth:`~repro.obs.trace.Tracer.absorb`. The envelope sits on
    the worker's pid track so Perfetto nests it with the spans it
    contains.
    """
    if not spans:
        return
    start = min(int(record["start_us"]) for record in spans)  # type: ignore[arg-type]
    end = max(int(record["start_us"]) + int(record["duration_us"])  # type: ignore[arg-type]
              for record in spans)
    cpu = sum(int(record["cpu_us"]) for record in spans  # type: ignore[arg-type]
              if record["parent_id"] is None)
    worker_pid = int(spans[0]["pid"])  # type: ignore[arg-type]
    worker_tid = int(spans[0]["tid"])  # type: ignore[arg-type]
    envelope = tracer.record(
        "cell", start_us=start, duration_us=end - start, cpu_us=cpu,
        pid=worker_pid, tid=worker_tid,
        capacity=capacity, policy=label, worker_pid=worker_pid)
    tracer.absorb(spans, parent_id=envelope.span_id)

