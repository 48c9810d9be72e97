"""Parallel sweep engine: fan a grid's stack passes over processes.

The paper's evaluation (Section 4.1) is a grid of independent cells —
each a pure function of (workload spec, policy spec, buffer size, seed).
:func:`execute_grid`, the engine behind the one entry point
:func:`~repro.sim.sweep.sweep_buffer_sizes`, builds the grid's stack
passes first, one per (column, repetition) (Mattson et al.'s inclusion
property), and then runs every cell in the parent, in grid order. A cell
of a column with a pass is a lookup, so the passes are the work, and
only they run on a ``ProcessPoolExecutor`` under ``jobs > 1``. A pooled
sweep returns *bit-identical* results to a serial one
(property-tested in ``tests/sim/test_parallel.py``), and since every
cell runs where the sweep's dispatcher and registry live, it also emits
the same events, metrics and spans.

Policy specs hold closures, which do not pickle; the pool therefore
requires the ``fork`` start method (standard on Linux): the grid's
:class:`_GridRun` — its inputs and a trace cache pre-warmed with every
run seed's reference string — is published in a module-level registry
*before* the pool forks, and workers inherit it copy-on-write; a task
carries only a job id and its pass, and returns the pass's totals, which
the parent keeps in its cache. On platforms without ``fork`` the passes
are built in-process.

Workers run unobserved: the parent's ambient event dispatcher (and its
file sinks) must not be written from forked children, so the first thing
a pass task does is clear the inherited ambient dispatcher and tracer.
Under a tracer a worker records its ``stack.pass`` span in a fresh one
and relays it, and the parent adopts it under the ``sweep`` span.

A pass that raises in a worker, or whose worker dies and breaks the
pool, is lost: its runs take their kernels in the parent. A cell that
raises is recorded as a :class:`~repro.sim.recovery.CellFailure`; the
other cells still finish and checkpoint, then
:class:`~repro.sim.recovery.CellExecutionError` is raised. Cells are
deterministic, so nothing is retried. Completed cells stream into an
optional :class:`~repro.sim.recovery.SweepCheckpoint`; a
``KeyboardInterrupt`` salvages them (flushing the checkpoint) instead of
orphaning the sweep. Ctrl-C interrupts a worker's task but never its
result channel, nor the parent's wait for the pool to shut down
(:func:`_in_worker`, :func:`_shut_down`). Failures surface as
:class:`~repro.obs.events.CellFailureEvent`s and the
``sweep.cell.failures`` counter.
"""

from __future__ import annotations

import itertools
import multiprocessing
import signal
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ..errors import ConfigurationError
from ..obs import runtime as obs_runtime
from ..obs import trace as obs_trace
from ..obs.dispatcher import EventDispatcher
from ..obs.events import CellFailureEvent
from ..obs.registry import MetricsRegistry
from ..policies.base import ReplacementPolicy
from ..workloads.base import Workload
from . import recovery
from .cache import takes_every_reference
from .runner import PolicySpec, ProtocolResult, RunContext, run_paper_protocol
from .trace_cache import StackResult, TraceCache

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


class _Pass(NamedTuple):
    """A stack pass by position: one column over one repetition's trace."""

    #: Index into the grid's policy specs.
    index: int
    seed: int


class _GridRun:
    """One grid's inputs, completed cells and failure records.

    :func:`_pool_passes` publishes it whole to forked workers.
    """

    def __init__(self, workload: Workload, specs: Sequence[PolicySpec],
                 capacities: Sequence[int], warmup: int, measured: int,
                 seed: int, repetitions: int, cache: TraceCache,
                 observability: Optional[EventDispatcher],
                 checkpoint: Optional[recovery.SweepCheckpoint]) -> None:
        self.workload = workload
        self.specs = specs
        self.capacities = capacities
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
        #: Columns with stack passes -> a policy that keys them.
        self.stack_columns: Dict[int, ReplacementPolicy] = {}
        self.failures: List[recovery.CellFailure] = []
        self.checkpoint = checkpoint
        self.fingerprint = ""
        if checkpoint is not None:
            self.fingerprint = recovery.grid_fingerprint(
                workload, specs, capacities, warmup, measured, seed,
                repetitions)
            self.results.update(checkpoint.completed(self.fingerprint))

    def plan_passes(self, cells: Sequence[_Cell]) -> List[_Pass]:
        """One stack pass per (column, repetition) for the columns of
        ``cells`` that get one; their policies, which key the passes in
        the cache, go to :attr:`stack_columns` (before the pool forks).

        A sweep of one capacity gets none (for one size a pass costs
        more than a kernel run). Nor does a column whose policy cannot
        be built (its cells then fail as any cell does), declares no
        stack property, or must see every reference.
        """
        if len(self.capacities) < 2:
            return []
        trace = self.cache.get(self.workload, self.warmup + self.measured,
                               self.seed).page_ids()
        for index in sorted({cell.index for cell in cells}):
            context = RunContext(capacity=self.capacities[0],
                                 workload=self.workload, trace=trace)
            try:
                policy = self.specs[index].build(context)
            except Exception:
                continue
            if (getattr(policy, "stack_hits", None) is not None
                    and not takes_every_reference(policy, self.obs)):
                self.stack_columns[index] = policy
        return [_Pass(index, self.seed + repetition)
                for index in self.stack_columns
                for repetition in range(self.repetitions)]

    def build_pass(self, task: _Pass) -> Optional[StackResult]:
        """Run one stack pass into the cache: the routine of both the
        parent and a worker."""
        return self.cache.build_stack_curve(
            self.stack_columns[task.index], self.workload,
            self.warmup + self.measured, task.seed, self.warmup,
            self.capacities, label=self.specs[task.index].label)

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
            # Register the fault counter at zero up front: a live
            # /metrics scrape of a healthy sweep should show it
            # absent-of-faults, not absent-of-instrumentation.
            self.registry.counter("sweep.cell.failures")

    def run_in_process(self, cells: Sequence[_Cell]) -> None:
        """Run cells here, in order, recording each as it completes.

        The one cell routine, pooled or not. A cell that raises is
        recorded as a :class:`~repro.sim.recovery.CellFailure`, with a
        ``cell-failure`` event and a ``sweep.cell.failures`` count, and
        does not stop the others.
        """
        for cell in cells:
            capacity, index = cell
            label = self.specs[index].label
            try:
                with obs_trace.maybe_span("cell", capacity=capacity,
                                          policy=label):
                    result = run_paper_protocol(
                        self.workload, self.specs[index], capacity,
                        self.warmup, self.measured, seed=self.seed,
                        repetitions=self.repetitions,
                        observability=self.obs, trace_cache=self.cache)
            except Exception as exc:
                self.fail(capacity, label, repr(exc))
                continue
            self.complete(capacity, label, result)

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

    def fail(self, capacity: int, label: str, error: str) -> None:
        """Record one cell that raised: event, counter, failure record."""
        if self.obs is not None and self.obs.has_sinks:
            self.obs.emit(CellFailureEvent(
                capacity=capacity, label=label, attempt=1,
                failure=recovery.ERROR, error=error, action="failed"))
        self.failures.append(recovery.CellFailure(
            capacity=capacity, label=label, attempts=1,
            kind=recovery.ERROR, error=error))
        if self.registry is not None:
            self.registry.counter("sweep.cell.failures").inc()

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


#: Set in a worker once Ctrl-C has interrupted one of its tasks.
_interrupted = False


def _in_worker(traced: bool, work: Callable[[], Any]
               ) -> Tuple[Any, List[Dict[str, object]]]:
    """Run ``work`` in a worker, under a fresh tracer when the parent
    traced; its result and the serialized spans to relay.

    Ctrl-C reaches the whole process group, but it interrupts ``work``
    only: the worker blocks SIGINT while it sends a result back and
    waits for its next task, and a SIGINT that arrives meanwhile
    interrupts that task. A worker interrupted while it sends leaves
    part of a message in the result pipe, on which the pool's reader
    then blocks for good. Once interrupted, a worker fails every further
    task at once, so the tasks the pool had queued for it do not hold up
    the parent's shutdown.
    """
    global _interrupted
    if _interrupted:
        raise KeyboardInterrupt
    try:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        if not traced:
            return work(), []
        tracer = obs_trace.Tracer()
        with obs_trace.activate(tracer):
            result = work()
        return result, tracer.serialize()
    except KeyboardInterrupt:
        _interrupted = True
        raise
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})


def _run_pass(job_id: int, task: _Pass
              ) -> Tuple[Optional[StackResult], List[Dict[str, object]]]:
    """Worker task: one column's stack pass over one repetition's trace
    (None when its policy declared none), and its relayed spans.

    Forked workers inherit the parent's ambient dispatcher (and its
    open file sinks) and the parent's ambient tracer; emitting through
    the former from many processes would interleave corrupt output, and
    appending to the latter is invisible to the parent — so the task
    clears both first and traces into a fresh tracer when asked.
    """
    obs_runtime.deactivate()
    obs_trace.deactivate()
    run, traced = _SHARED[job_id]
    return _in_worker(traced, lambda: run.build_pass(task))


# -- the engine ----------------------------------------------------------------


def execute_grid(workload: Workload, specs: Sequence[PolicySpec],
                 capacities: Sequence[int], warmup: int, measured: int,
                 seed: int, repetitions: int, jobs: int, cache: TraceCache,
                 observability: Optional[EventDispatcher],
                 checkpoint: Optional[recovery.SweepCheckpoint]
                 ) -> GridResults:
    """Run every (policy, capacity) cell of a grid, its stack passes
    ``jobs`` at a time.

    The engine behind :func:`~repro.sim.sweep.sweep_buffer_sizes`, which
    validates the grid, resolves ``jobs`` and supplies the cache.
    Returns ``{(capacity, label): ProtocolResult}``, the shape the
    caller assembles into its own rows.

    Every column whose policy declares the stack property gets one pass
    per repetition trace (:meth:`_GridRun.plan_passes`) before any of
    the grid's cells runs, so the cells only read totals. With ``jobs >
    1``, more than one pass and ``fork`` available, the passes run on a
    fork pool (:func:`_pool_passes`); otherwise here, in order. A pass
    that raises, or that the pool loses, leaves its runs to their
    kernels. Then every remaining cell runs here, in grid order, with
    the sweep's dispatcher and registry
    (:meth:`_GridRun.run_in_process`), as in a serial sweep.

    Cells already present in ``checkpoint`` (matched by grid
    fingerprint) are returned without re-running, and a column whose
    every cell is there gets no pass; newly completed cells are appended
    as they finish. A ``KeyboardInterrupt`` raises
    :class:`~repro.sim.recovery.SweepInterrupted` carrying every
    completed cell; cells that raised raise
    :class:`~repro.sim.recovery.CellExecutionError` — in both cases
    after the checkpoint is flushed, so no completed work is lost.
    """
    run = _GridRun(workload, specs, capacities, warmup, measured, seed,
                   repetitions, cache, observability, checkpoint)
    remaining = [cell for cell in run.order if not run.done(cell)]
    run.track_progress()
    if not remaining:
        return run.results

    try:
        # Materialize every run seed's trace once, before the pool
        # forks: pass workers inherit the compact arrays copy-on-write
        # instead of regenerating them.
        for repetition in range(repetitions):
            cache.get(workload, warmup + measured, seed + repetition)
        passes = run.plan_passes(remaining)
        if jobs > 1 and len(passes) > 1 and fork_available():
            _pool_passes(run, passes, jobs)
        else:
            for task in passes:
                try:
                    run.build_pass(task)
                except Exception:
                    pass  # its runs take their kernels
        run.run_in_process(remaining)
    except KeyboardInterrupt:
        raise run.salvage() from None
    return run.finish()


def _shut_down(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down and wait for its workers, ignoring SIGINT
    meanwhile in the main thread (the one thread it interrupts).

    A terminal or ``timeout`` often sends SIGINT twice (to the parent,
    then to its process group). A second KeyboardInterrupt landing in
    the wait of a shutdown that the first one began leaves the workers
    waiting for a sentinel and hangs the interpreter's exit.
    """
    # Only the main thread may set a handler; None is one not installed
    # from Python, left alone.
    main = threading.current_thread() is threading.main_thread()
    previous = signal.getsignal(signal.SIGINT) if main else None
    if previous is not None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    finally:
        if previous is not None:
            signal.signal(signal.SIGINT, previous)


def _pool_passes(run: _GridRun, passes: Sequence[_Pass], jobs: int) -> None:
    """Build the grid's stack passes on a fork pool of at most ``jobs``
    workers and keep each one the pool returns in the parent's cache,
    adopting its relayed ``stack.pass`` span. A pass whose worker
    raised, or died and broke the pool, is lost: its runs take their
    kernels. However this ends, the pool is shut down, its unstarted
    tasks cancelled, and ``run`` unpublished."""
    # Flush the parent's sinks before forking: a child inheriting
    # buffered-but-unwritten file output would duplicate it at exit.
    if run.obs is not None:
        run.obs.flush()
    tracer = obs_trace.current()
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(passes)),
                               mp_context=multiprocessing.get_context("fork"))
    job_id = next(_job_ids)
    _SHARED[job_id] = (run, tracer is not None)
    try:
        window: Dict[Future, _Pass] = {}
        for task in passes:
            try:
                window[pool.submit(_run_pass, job_id, task)] = task
            except BrokenProcessPool:
                break  # the passes left are lost with the pool
        for future, task in window.items():
            try:
                curve, spans = future.result()
            except Exception:
                continue
            if tracer is not None:
                tracer.absorb(spans, parent_id=tracer.current_span_id())
            if curve is not None:
                run.cache.add_stack_curve(
                    run.stack_columns[task.index], run.workload,
                    run.warmup + run.measured, task.seed, run.warmup,
                    curve)
    finally:
        try:
            _shut_down(pool)
        finally:
            _SHARED.pop(job_id, None)
