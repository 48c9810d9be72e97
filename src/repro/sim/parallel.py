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
*before* a pool forks, and workers inherit it copy-on-write; a task
carries only a job id and its cell or pass. A pooled sweep forks twice.
The first pool builds the grid's stack passes, one task per (column,
repetition) that returns only its totals, and the parent keeps each in
its cache. Only then does the cells' pool fork, so its workers inherit
every pass as they inherit the traces, and run cells through
:meth:`~_GridRun.run_cell`, as the parent does; no worker regenerates a
reference string or rebuilds a pass. On platforms without ``fork`` the
engine degrades to in-process execution with the same shared cache.

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
after a worker dies, the rest of that sweep runs in-process. A pass the
pool did not return is not rebuilt: its runs take their kernels.
Completed cells stream into an optional
:class:`~repro.sim.recovery.SweepCheckpoint`; a ``KeyboardInterrupt``
salvages them (flushing the checkpoint) instead of orphaning the sweep.
Ctrl-C interrupts a worker's task but never its result channel, nor the
parent's wait for a pool to shut down (:func:`_in_worker`,
:func:`_shut_down`).
Failures surface as :class:`~repro.obs.events.CellFailureEvent`s and the
``sweep.cell.fallbacks`` / ``sweep.cell.failures`` counters.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
from concurrent.futures import (FIRST_COMPLETED, Future, ProcessPoolExecutor,
                                wait)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from ..errors import ConfigurationError
from ..obs import runtime as obs_runtime
from ..obs import trace as obs_trace
from ..obs.dispatcher import CallbackSink, EventDispatcher
from ..obs.events import CellFailureEvent
from ..obs.registry import MetricsRegistry, RegistrySnapshot
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


class _Pass(NamedTuple):
    """A stack pass by position: one column over one repetition's trace."""

    #: Index into the grid's policy specs.
    index: int
    seed: int


@dataclass
class _PassOutput:
    """A worker's stack pass, or None when its policy declared none,
    with its relayed ``stack.pass`` span."""

    curve: Optional[StackResult]
    spans: List[Dict[str, object]] = field(default_factory=list)


class _GridRun:
    """One grid's inputs, completed cells and failure records.

    :func:`_fork_pool` publishes it whole to forked workers.
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
        the cache, go to :attr:`stack_columns` (before any pool forks).

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


def _worker(job_id: int) -> Tuple[_GridRun, bool]:
    """Enter a worker task: the published grid and whether to trace.

    Forked workers inherit the parent's ambient dispatcher (and its
    open file sinks) and the parent's ambient tracer; emitting through
    the former from many processes would interleave corrupt output, and
    appending to the latter is invisible to the parent — so workers
    clear both and build their own instruments when asked.
    """
    obs_runtime.deactivate()
    obs_trace.deactivate()
    return _SHARED[job_id]


def _run_pass(job_id: int, task: _Pass) -> _PassOutput:
    """Worker task: one column's stack pass over one repetition's trace."""
    run, traced = _worker(job_id)
    curve, spans = _in_worker(traced, lambda: run.build_pass(task))
    return _PassOutput(curve=curve, spans=spans)


def _run_cell(job_id: int, cell: _Cell) -> _CellOutput:
    """Worker task: one (policy, capacity) cell, reading the stack passes
    its parent's cache held when this worker forked."""
    run, traced = _worker(job_id)
    # A worker-local registry's snapshot is relayed for the parent to merge.
    registry = MetricsRegistry() if run.registry is not None else None
    observability = None
    if run.obs is not None and run.obs.takes_references:
        # A sink that takes per-reference events demotes serial runs to
        # the object path, so worker runs take it too (their events are
        # dropped).
        observability = EventDispatcher()
        observability.attach(CallbackSink(lambda event, context: None))
    result, spans = _in_worker(
        traced, lambda: run.run_cell(cell, observability, registry))
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

    Every column whose policy declares the stack property gets one pass
    per repetition trace (:meth:`_GridRun.plan_passes`) before any of
    the grid's cells runs, so the cells only read totals. A serial sweep
    builds the passes in order; a pooled one builds them on a pool of
    their own (:func:`_pool_passes`) and forks the cells' pool
    (:func:`_pool_pass`) only once every pass is back or lost. A pass
    that raises leaves its runs to their kernels.

    Cells already present in ``checkpoint`` (matched by grid
    fingerprint) are returned without re-running, and a column whose
    every cell is there gets no pass; newly completed cells are appended
    as they finish. A ``KeyboardInterrupt`` raises
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
        passes = run.plan_passes(remaining)
        last = None
        if pooled:
            _pool_passes(run, passes, jobs)
            last = _pool_pass(run, remaining, jobs)
        else:
            for task in passes:
                try:
                    run.build_pass(task)
                except Exception:
                    pass  # its runs take their kernels
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


@contextmanager
def _fork_pool(run: _GridRun, tasks: int,
               jobs: int) -> Iterator[Tuple[ProcessPoolExecutor, int]]:
    """A fork pool of at most ``jobs`` workers for ``tasks`` tasks, and
    the job id under which its workers find ``run``; on exit the pool is
    shut down, its unstarted tasks cancelled, and ``run`` unpublished."""
    # Flush the parent's sinks before forking: a child inheriting
    # buffered-but-unwritten file output would duplicate it at exit.
    if run.obs is not None:
        run.obs.flush()
    pool = ProcessPoolExecutor(max_workers=min(jobs, tasks),
                               mp_context=multiprocessing.get_context("fork"))
    job_id = next(_job_ids)
    _SHARED[job_id] = (run, obs_trace.current() is not None)
    try:
        yield pool, job_id
    finally:
        try:
            _shut_down(pool)
        finally:
            _SHARED.pop(job_id, None)


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
    """Build the grid's stack passes on a fork pool and keep each one
    the pool returns in the parent's cache, where the cells' pool
    inherits it. A pass whose worker raised, or died and broke the pool,
    is lost: its runs take their kernels."""
    if not passes:
        return
    tracer = obs_trace.current()
    with _fork_pool(run, len(passes), jobs) as (pool, job_id):
        window: Dict[Future, _Pass] = {}
        for task in passes:
            try:
                window[pool.submit(_run_pass, job_id, task)] = task
            except BrokenProcessPool:
                break  # the passes left are lost with the pool
        for future, task in window.items():
            try:
                output = future.result()
            except Exception:
                continue
            if tracer is not None:
                tracer.absorb(output.spans,
                              parent_id=tracer.current_span_id())
            if output.curve is not None:
                run.cache.add_stack_curve(
                    run.stack_columns[task.index], run.workload,
                    run.warmup + run.measured, task.seed, run.warmup,
                    output.curve)


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
    last: Optional[Tuple[RegistrySnapshot, str]] = None
    with _fork_pool(run, len(cells), jobs) as (pool, job_id):
        window: Dict[Future, _Cell] = {}
        for cell in cells:
            try:
                window[pool.submit(_run_cell, job_id, cell)] = cell
            except BrokenProcessPool as exc:
                run.fail(cell, 1, recovery.CRASH, repr(exc),
                         action="fallback")
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

