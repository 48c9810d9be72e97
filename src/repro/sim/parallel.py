"""Parallel sweep engine: fan the (policy, capacity) grid over processes.

The paper's evaluation (Section 4.1) is a grid of independent cells —
each a pure function of (workload spec, policy spec, buffer size, seed).
:func:`run_grid` executes that grid on a ``ProcessPoolExecutor`` and
merges the results deterministically, so a parallel sweep returns
*bit-identical* :class:`~repro.sim.runner.ProtocolResult` objects to a
serial one (property-tested in ``tests/sim/test_parallel.py``).

Policy specs hold closures, which do not pickle; the engine therefore
requires the ``fork`` start method (standard on Linux): the grid inputs
— workload, specs, and a :class:`~repro.sim.trace_cache.TraceCache`
pre-warmed with every run seed's reference string — are published in a
module-level registry *before* the pool forks, and workers inherit them
copy-on-write. Each task submission then carries only a few small
integers. Every seed's trace is materialized exactly once, in the
parent, and shared read-only by all workers; no worker regenerates a
reference string. On platforms without ``fork`` the engine degrades to
in-process execution with the same shared cache.

Workers run unobserved: the parent's ambient event dispatcher (and its
file sinks) must not be written from forked children, so the first thing
a worker task does is clear the inherited ambient dispatcher. Progress
is instead narrated from the parent — one line per *completed* cell, in
completion order, through the usual ``progress`` callback or as
:class:`~repro.obs.events.ProgressEvent`s on the dispatcher — so
``--timeline``/``--quiet`` behave under ``--jobs N`` exactly as in
serial mode.

Execution is fault tolerant (see :mod:`repro.sim.recovery`): a crashed
worker breaks only its cell, not the sweep. Failed cells are classified
transient-vs-poisoned, retried with exponential backoff (the pool is
rebuilt after a ``BrokenProcessPool``), bounded by an optional per-cell
wall-clock timeout (enforced by reaping the pool — the only way to
cancel a running pool task), and finally re-run in-process serially as
graceful degradation. Completed cells stream into an optional
:class:`~repro.sim.recovery.SweepCheckpoint`; a ``KeyboardInterrupt``
salvages them (flushing the checkpoint and reaping workers) instead of
orphaning the sweep. Failures surface as
:class:`~repro.obs.events.CellFailureEvent`s and ``sweep.cell.*``
counters on the usual observability channels.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..obs import runtime as obs_runtime
from ..obs import trace as obs_trace
from ..obs.dispatcher import EventDispatcher
from ..obs.events import CellFailureEvent, ProgressEvent
from ..obs.registry import MetricsRegistry
from ..workloads.base import Workload
from . import recovery
from .runner import PolicySpec, ProtocolResult, run_paper_protocol
from .trace_cache import TraceCache

#: A grid result: {(capacity, policy label): ProtocolResult}.
GridResults = Dict[Tuple[int, str], ProtocolResult]

# -- job-count resolution ------------------------------------------------------

_default_jobs = 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """An explicit job count if given, else the ambient default (1)."""
    if jobs is None:
        return _default_jobs
    if jobs <= 0:
        raise ConfigurationError("jobs must be a positive integer (or None)")
    return jobs


@contextmanager
def default_jobs(jobs: int) -> Iterator[int]:
    """Ambiently set the sweep job count for a dynamic extent.

    Mirrors :func:`repro.obs.runtime.activate`: code many layers below
    the CLI (ablation functions, report generation) runs sweeps without
    a ``jobs`` parameter; activating a default here parallelizes them
    without rewriting every call site.
    """
    global _default_jobs
    if jobs <= 0:
        raise ConfigurationError("jobs must be a positive integer")
    previous = _default_jobs
    _default_jobs = jobs
    try:
        yield jobs
    finally:
        _default_jobs = previous


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


# -- fork-shared grid state ----------------------------------------------------


@dataclass
class _SweepJob:
    """Everything a worker needs, published pre-fork."""

    workload: Workload
    specs: Sequence[PolicySpec]
    warmup: int
    measured: int
    seed: int
    repetitions: int
    trace_cache: TraceCache
    #: Record spans in the worker and relay them to the parent tracer.
    trace: bool = False
    #: The parent tracer's ``profile_hooks`` setting, for the worker's.
    profile_hooks: bool = False
    #: Accumulate metrics in a worker-local registry and relay the
    #: counter values and histogram states for the parent to merge.
    collect_metrics: bool = False


@dataclass
class _CellOutput:
    """What a worker sends back over the result channel.

    The cell's :class:`ProtocolResult` plus the observability side
    channels: serialized spans (plain dicts, see
    :meth:`repro.obs.trace.Tracer.serialize`), the worker registry's
    counter values, its histogram states (see
    :meth:`repro.obs.registry.MetricsRegistry.histogram_values`), and a
    snapshot of its non-callable gauges taken at cell exit (merged
    last-write-wins with the worker pid as provenance). All ride the
    existing pickle result channel — no extra IPC machinery.
    """

    result: ProtocolResult
    spans: List[Dict[str, object]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, object]] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    worker_pid: int = 0


#: Jobs visible to forked workers; keyed by a monotonically increasing id
#: so overlapping grids (nested sweeps) cannot collide.
_SHARED: Dict[int, _SweepJob] = {}
_next_job_id = 0


def _run_cell(job_id: int, spec_index: int, capacity: int,
              attempt: int = 0) -> _CellOutput:
    """Worker task: one (policy, capacity) cell of the grid."""
    # Forked workers inherit the parent's ambient dispatcher (and its
    # open file sinks) and the parent's ambient tracer; emitting through
    # the former from many processes would interleave corrupt output,
    # and appending to the latter is invisible to the parent — so
    # workers clear both and build their own instruments when asked.
    obs_runtime.deactivate()
    obs_trace.deactivate()
    recovery.chaos_hook(spec_index, capacity, attempt)
    job = _SHARED[job_id]
    registry = MetricsRegistry() if job.collect_metrics else None

    def cell() -> ProtocolResult:
        return run_paper_protocol(
            job.workload, job.specs[spec_index], capacity,
            job.warmup, job.measured, seed=job.seed,
            repetitions=job.repetitions, observability=None,
            trace_cache=job.trace_cache, metrics=registry)

    if job.trace:
        tracer = obs_trace.Tracer(profile_hooks=job.profile_hooks)
        with obs_trace.activate(tracer):
            result = cell()
        spans = tracer.serialize()
    else:
        result = cell()
        spans = []
    return _CellOutput(
        result=result, spans=spans,
        counters=registry.counter_values() if registry is not None else {},
        histograms=(registry.histogram_values()
                    if registry is not None else {}),
        gauges=registry.gauge_values() if registry is not None else {},
        worker_pid=os.getpid())


# -- the engine ----------------------------------------------------------------


def _narrate(line: str,
             progress: Optional[Callable[[str], None]],
             observability: Optional[EventDispatcher]) -> None:
    """Progress via the callback when given, else the event dispatcher."""
    if progress is not None:
        progress(line)
        return
    obs = obs_runtime.resolve(observability)
    if obs is not None and obs.active:
        obs.emit(ProgressEvent(message=line))


def _cell_line(capacity: int, label: str, result: ProtocolResult) -> str:
    """The per-cell progress line (same format as the serial sweep)."""
    return f"B={capacity:<6d} {label:<8s} C={result.hit_ratio:.4f}"


@dataclass
class _Flight:
    """One in-flight cell attempt submitted to the pool."""

    capacity: int
    index: int
    attempt: int
    deadline: Optional[float]


class _GridRun:
    """State and helpers shared by the serial and resilient executors."""

    def __init__(self, workload: Workload, specs: Sequence[PolicySpec],
                 retry: recovery.RetryPolicy,
                 checkpoint: Optional[recovery.SweepCheckpoint],
                 fingerprint: Optional[str],
                 progress: Optional[Callable[[str], None]],
                 observability: Optional[EventDispatcher]) -> None:
        self.workload = workload
        self.specs = specs
        self.retry = retry
        self.checkpoint = checkpoint
        self.fingerprint = fingerprint
        self.progress = progress
        self.observability = observability
        self.obs = obs_runtime.resolve(observability)
        self.registry: Optional[MetricsRegistry] = (
            getattr(self.obs, "metrics", None)
            if self.obs is not None else None)
        self.results: GridResults = {}
        self.failures: List[recovery.CellFailure] = []

    def track_progress(self, total: int) -> None:
        """Publish the grid's cell-completion gauges for live scrapes.

        ``sweep.cells_total`` / ``sweep.cells_done`` are what ``repro
        top`` renders as the progress bar; resumed cells from a
        checkpoint count as already done.
        """
        if self.registry is None:
            return
        self.registry.set_gauge("sweep.cells_total", float(total))
        self.registry.set_gauge("sweep.cells_done",
                                float(len(self.results)))
        # Register the fault counters at zero up front: a live /metrics
        # scrape of a healthy sweep should show them absent-of-faults,
        # not absent-of-instrumentation.
        for name in ("sweep.cell.retries", "sweep.cell.timeouts",
                     "sweep.cell.fallbacks", "sweep.cell.failures",
                     "sweep.pool.rebuilds"):
            self.registry.counter(name)

    def complete(self, capacity: int, label: str, result: ProtocolResult,
                 narrate: bool = True) -> None:
        """Record one finished cell: results, checkpoint, narration."""
        self.results[(capacity, label)] = result
        if self.registry is not None:
            self.registry.set_gauge("sweep.cells_done",
                                    float(len(self.results)))
        if self.checkpoint is not None and self.fingerprint is not None:
            self.checkpoint.record(self.fingerprint, result)
        if narrate:
            _narrate(_cell_line(capacity, label, result),
                     self.progress, self.observability)

    def counter(self, name: str, amount: int = 1) -> None:
        if self.registry is not None and amount:
            self.registry.counter(name).inc(amount)

    def report_failure(self, capacity: int, index: int, attempt: int,
                       kind: str, error: str, action: str) -> None:
        """Emit the structured failure event and bump its counters.

        ``attempt`` is the 1-based number of attempts consumed so far;
        ``action`` is what the engine does next: ``"retry"`` (back into
        the pool), ``"fallback"`` (in-process serial re-run) or
        ``"failed"`` (recorded as a permanent :class:`CellFailure`).
        """
        label = self.specs[index].label
        if self.obs is not None and self.obs.active:
            self.obs.emit(CellFailureEvent(
                capacity=capacity, label=label, attempt=attempt,
                failure=kind, error=error, action=action))
        if kind == recovery.TIMEOUT:
            self.counter("sweep.cell.timeouts")
        if action == "retry":
            self.counter("sweep.cell.retries")
        elif action == "fallback":
            self.counter("sweep.cell.fallbacks")
        elif action == "failed":
            self.counter("sweep.cell.failures")

    def salvage(self) -> "recovery.SweepInterrupted":
        """Flush the checkpoint and wrap the completed cells for re-raise."""
        if self.checkpoint is not None:
            self.checkpoint.flush()
        return recovery.SweepInterrupted(self.results)

    def finish(self) -> GridResults:
        """Raise if any cell failed permanently, else hand back the grid."""
        if self.failures:
            if self.checkpoint is not None:
                self.checkpoint.flush()
            raise recovery.CellExecutionError(self.failures, self.results)
        return self.results


def run_grid(workload: Workload,
             specs: Sequence[PolicySpec],
             capacities: Sequence[int],
             warmup: int,
             measured: int,
             seed: int = 0,
             repetitions: int = 1,
             jobs: Optional[int] = None,
             trace_cache: Optional[TraceCache] = None,
             progress: Optional[Callable[[str], None]] = None,
             observability: Optional[EventDispatcher] = None,
             retry: Optional[recovery.RetryPolicy] = None,
             checkpoint: Optional[recovery.SweepCheckpoint] = None
             ) -> GridResults:
    """Run every (policy, capacity) cell of a grid, ``jobs`` at a time.

    Returns ``{(capacity, label): ProtocolResult}`` — an order-free shape
    the caller assembles into its own row structure, making the merge
    deterministic regardless of completion order. ``jobs=None`` resolves
    through the ambient :func:`default_jobs` (1 — serial — unless a
    caller activated a default), and the engine falls back to in-process
    execution (still sharing one trace cache) when process parallelism
    is unavailable.

    ``retry`` and ``checkpoint`` default to the ambient
    :func:`repro.sim.recovery.default_retry` /
    :func:`~repro.sim.recovery.default_checkpoint` configuration. Cells
    already present in the checkpoint (matched by grid fingerprint) are
    returned without re-running; newly completed cells are appended as
    they finish. A ``KeyboardInterrupt`` raises
    :class:`~repro.sim.recovery.SweepInterrupted` carrying every
    completed cell; permanently failed cells raise
    :class:`~repro.sim.recovery.CellExecutionError` — in both cases
    after the checkpoint is flushed, so no completed work is lost.
    """
    jobs = resolve_jobs(jobs)
    retry = recovery.resolve_retry(retry)
    checkpoint = recovery.resolve_checkpoint(checkpoint)
    owns_cache = trace_cache is None
    cache = trace_cache if trace_cache is not None else TraceCache()
    try:
        return _run_grid(workload, specs, capacities, warmup, measured,
                         seed, repetitions, jobs, cache, progress,
                         observability, retry, checkpoint)
    finally:
        if owns_cache:
            # The cache pins workloads and materialized arrays by id();
            # a grid-local cache must not outlive the grid.
            cache.clear()


def _run_grid(workload: Workload, specs: Sequence[PolicySpec],
              capacities: Sequence[int], warmup: int, measured: int,
              seed: int, repetitions: int, jobs: int, cache: TraceCache,
              progress: Optional[Callable[[str], None]],
              observability: Optional[EventDispatcher],
              retry: recovery.RetryPolicy,
              checkpoint: Optional[recovery.SweepCheckpoint]) -> GridResults:
    global _next_job_id
    fingerprint = None
    if checkpoint is not None:
        fingerprint = recovery.grid_fingerprint(
            workload, specs, capacities, warmup, measured, seed, repetitions)
    run = _GridRun(workload, specs, retry, checkpoint, fingerprint,
                   progress, observability)

    order = [(capacity, index) for capacity in capacities
             for index in range(len(specs))]
    if checkpoint is not None:
        for key, result in checkpoint.completed(fingerprint).items():
            run.results[key] = result
        remaining = [(capacity, index) for capacity, index in order
                     if (capacity, specs[index].label) not in run.results]
    else:
        remaining = order
    run.track_progress(len(order))
    if not remaining:
        return run.results

    total = warmup + measured
    # Materialize every run seed's trace once, pre-fork: workers inherit
    # the compact arrays copy-on-write instead of regenerating them.
    # Traces past the spill threshold (see repro.sim.trace_cache) live
    # in mmap-backed columnar files at this point, so workers share one
    # page-cache copy outright — no copy-on-write dirtying at all.
    for repetition in range(repetitions):
        cache.get(workload, total, seed + repetition)

    if jobs <= 1 or not fork_available() or len(remaining) <= 1:
        return _execute_serial(run, remaining, workload, warmup, measured,
                               seed, repetitions, cache)

    tracer = obs_trace.current()
    job = _SweepJob(workload=workload, specs=specs, warmup=warmup,
                    measured=measured, seed=seed, repetitions=repetitions,
                    trace_cache=cache, trace=tracer is not None,
                    profile_hooks=(tracer is not None
                                   and tracer.profile_hooks),
                    collect_metrics=run.registry is not None)
    job_id = _next_job_id
    _next_job_id += 1
    _SHARED[job_id] = job
    try:
        return _execute_resilient(run, remaining, job_id, jobs, tracer,
                                  workload, warmup, measured, seed,
                                  repetitions, cache)
    finally:
        _SHARED.pop(job_id, None)


def _execute_serial(run: _GridRun, remaining: Sequence[Tuple[int, int]],
                    workload: Workload, warmup: int, measured: int,
                    seed: int, repetitions: int,
                    cache: TraceCache) -> GridResults:
    """In-process execution with the same retry and salvage semantics."""
    try:
        for capacity, index in remaining:
            spec = run.specs[index]
            attempt = 0
            while True:
                try:
                    with obs_trace.maybe_span("cell", capacity=capacity,
                                              policy=spec.label):
                        result = run_paper_protocol(
                            workload, spec, capacity, warmup, measured,
                            seed=seed, repetitions=repetitions,
                            observability=run.observability,
                            trace_cache=cache)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    kind, transient = recovery.classify(exc)
                    attempt += 1
                    if transient and attempt < run.retry.max_attempts:
                        run.report_failure(capacity, index, attempt, kind,
                                           repr(exc), action="retry")
                        run.retry.backoff(attempt - 1)
                        continue
                    run.report_failure(capacity, index, attempt, kind,
                                       repr(exc), action="failed")
                    run.failures.append(recovery.CellFailure(
                        capacity=capacity, label=spec.label,
                        attempts=attempt, kind=kind, error=repr(exc)))
                    break
                run.complete(capacity, spec.label, result)
                break
    except KeyboardInterrupt:
        raise run.salvage() from None
    return run.finish()


def _execute_resilient(run: _GridRun, remaining: Sequence[Tuple[int, int]],
                       job_id: int, jobs: int,
                       tracer: Optional["obs_trace.Tracer"],
                       workload: Workload, warmup: int, measured: int,
                       seed: int, repetitions: int,
                       cache: TraceCache) -> GridResults:
    """Pool execution with per-cell isolation, retries, and timeouts.

    At most ``workers`` cells are submitted at a time (a sliding window)
    so a per-cell deadline measures *execution* wall clock, not queue
    time. A ``BrokenProcessPool`` cannot be attributed to one cell, so
    every in-flight cell's attempt count advances and the pool is
    rebuilt; an expired deadline reaps the pool (the only way to cancel
    a running task) but penalizes only the cell that timed out. Cells
    that exhaust their attempts collect into a fallback list executed
    in-process after the pool drains, so degraded cells never starve
    healthy ones.
    """
    workers = min(jobs, len(remaining))
    queue: Deque[Tuple[int, int, int]] = deque(
        (capacity, index, 0) for capacity, index in remaining)
    fallback: List[Tuple[int, int]] = []
    # Each relayed cell's gauges and worker, for the final pass below.
    relayed: Dict[Tuple[int, int], Tuple[Dict[str, float], str]] = {}
    context = multiprocessing.get_context("fork")
    pool: Optional[ProcessPoolExecutor] = None
    crash_streak = 0

    def build_pool() -> ProcessPoolExecutor:
        # Flush the parent's sinks before forking: a child inheriting
        # buffered-but-unwritten file output would duplicate it at exit.
        if run.obs is not None:
            run.obs.flush()
        return ProcessPoolExecutor(max_workers=workers, mp_context=context)

    def absorb(flight: _Flight, output: _CellOutput) -> None:
        # The observability side channels merge as each cell completes —
        # not at sweep end — so a live /metrics scrape sees worker
        # counters, histogram buckets, and gauges mid-sweep. Counters
        # and histogram bin counts are sums (order-independent, exact);
        # only the histogram mean's Chan merge is completion-order
        # sensitive, and only in the last ulp.
        nonlocal crash_streak
        crash_streak = 0
        label = run.specs[flight.index].label
        if tracer is not None:
            _absorb_cell(tracer, output.spans, flight.capacity, label)
        if run.registry is not None:
            if output.counters:
                run.registry.merge_counters(output.counters)
            if output.histograms:
                run.registry.merge_histograms(output.histograms)
            if output.gauges:
                worker = str(output.worker_pid)
                run.registry.merge_gauges(output.gauges, worker=worker)
                relayed[(flight.capacity, flight.index)] = (output.gauges,
                                                            worker)
        run.complete(flight.capacity, label, output.result)

    def requeue(flight: _Flight, kind: str, error: str,
                penalize: bool = True) -> None:
        """Route a failed attempt: retry, fallback, or permanent failure."""
        attempt = flight.attempt + 1 if penalize else flight.attempt
        if not penalize:
            queue.append((flight.capacity, flight.index, attempt))
            return
        transient = kind in (recovery.CRASH, recovery.TIMEOUT,
                             recovery.ERROR)
        if transient and attempt < run.retry.max_attempts:
            run.report_failure(flight.capacity, flight.index, attempt,
                               kind, error, action="retry")
            queue.append((flight.capacity, flight.index, attempt))
        elif run.retry.fallback_serial and kind != recovery.POISONED:
            run.report_failure(flight.capacity, flight.index, attempt,
                               kind, error, action="fallback")
            fallback.append((flight.capacity, flight.index))
        else:
            run.report_failure(flight.capacity, flight.index, attempt,
                               kind, error, action="failed")
            run.failures.append(recovery.CellFailure(
                capacity=flight.capacity,
                label=run.specs[flight.index].label,
                attempts=attempt, kind=kind, error=error))

    def drain_after_crash(window: Dict[Future, _Flight],
                          error: str) -> None:
        """Settle every in-flight cell once the pool is known broken."""
        nonlocal crash_streak
        for future, flight in list(window.items()):
            del window[future]
            if future.done() and not future.cancelled():
                try:
                    absorb(flight, future.result())
                    continue
                except KeyboardInterrupt:
                    raise
                except BaseException:
                    pass
            else:
                future.cancel()
            requeue(flight, recovery.CRASH, error)
        run.counter("sweep.pool.rebuilds")
        run.retry.backoff(crash_streak)
        crash_streak += 1

    try:
        while queue:
            pool = build_pool()
            window: Dict[Future, _Flight] = {}
            rebuild = False
            try:
                while (queue or window) and not rebuild:
                    while queue and len(window) < workers:
                        capacity, index, attempt = queue.popleft()
                        try:
                            future = pool.submit(_run_cell, job_id, index,
                                                 capacity, attempt)
                        except (BrokenProcessPool, RuntimeError) as exc:
                            queue.appendleft((capacity, index, attempt))
                            drain_after_crash(window, repr(exc))
                            rebuild = True
                            break
                        deadline = (time.monotonic() + run.retry.timeout
                                    if run.retry.timeout is not None
                                    else None)
                        window[future] = _Flight(capacity, index, attempt,
                                                 deadline)
                    if rebuild or not window:
                        continue
                    timeout = None
                    if run.retry.timeout is not None:
                        timeout = max(0.0, min(
                            flight.deadline for flight in window.values()
                            if flight.deadline is not None)
                            - time.monotonic())
                    done, _ = wait(window, timeout=timeout,
                                   return_when=FIRST_COMPLETED)
                    if not done:
                        rebuild = _handle_timeouts(run, window, requeue,
                                                   absorb)
                        continue
                    crashed: Optional[str] = None
                    for future in done:
                        flight = window.pop(future)
                        try:
                            output = future.result()
                        except KeyboardInterrupt:
                            raise
                        except BaseException as exc:
                            kind, _ = recovery.classify(exc)
                            if kind == recovery.CRASH:
                                crashed = repr(exc)
                                requeue(flight, kind, repr(exc))
                            else:
                                requeue(flight, kind, repr(exc))
                                if kind == recovery.ERROR:
                                    run.retry.backoff(flight.attempt)
                            continue
                        absorb(flight, output)
                    if crashed is not None:
                        drain_after_crash(window, crashed)
                        rebuild = True
            except KeyboardInterrupt:
                # Do NOT fall through to the graceful shutdown below: it
                # waits for running tasks, and a hung cell would stall
                # the interrupt until its sleep expires.
                _reap(pool)
                pool = None
                raise
            finally:
                if pool is not None:
                    if rebuild:
                        _reap(pool)
                    else:
                        pool.shutdown(wait=True, cancel_futures=True)
                    pool = None
    except KeyboardInterrupt:
        if pool is not None:
            _reap(pool)
        raise run.salvage() from None

    # Graceful degradation: cells that exhausted their pool attempts run
    # in-process, serially, under the parent's full observability — a
    # clean traceback for broken cells and relief from the parallel
    # memory pressure that kills OOM-prone ones. They run in grid order
    # so the last of them writes the gauges a serial sweep would end on.
    fallback.sort(key=remaining.index)
    for capacity, index in fallback:
        spec = run.specs[index]
        try:
            with obs_trace.maybe_span("cell", capacity=capacity,
                                      policy=spec.label, fallback=True):
                result = run_paper_protocol(
                    workload, spec, capacity, warmup, measured, seed=seed,
                    repetitions=repetitions,
                    observability=run.observability, trace_cache=cache)
        except KeyboardInterrupt:
            raise run.salvage() from None
        except Exception as exc:
            kind, _ = recovery.classify(exc)
            run.report_failure(capacity, index, run.retry.max_attempts + 1,
                               kind, repr(exc), action="failed")
            run.failures.append(recovery.CellFailure(
                capacity=capacity, label=spec.label,
                attempts=run.retry.max_attempts + 1, kind=kind,
                error=repr(exc)))
            continue
        run.counter("sweep.cell.recovered")
        run.complete(capacity, spec.label, result)

    # Gauges merged last-write-wins in completion order, so live scrapes
    # showed the latest finished cell. A serial sweep ends on the grid's
    # last cell: re-apply its relayed gauges so the final snapshot does
    # too. (Had it fallen back, it ran last above and wrote its own.)
    final = relayed.get(remaining[-1])
    if final is not None:
        gauges, worker = final
        run.registry.merge_gauges(gauges, worker=worker)
    return run.finish()


def _handle_timeouts(run: _GridRun, window: Dict[Future, _Flight],
                     requeue: Callable[..., None],
                     absorb: Callable[[_Flight, _CellOutput], None]) -> bool:
    """Settle expired deadlines; True when the pool must be rebuilt.

    A deadline that fires while the task is merely queued is cancelled
    and resubmitted without penalty; a *running* task can only be
    cancelled by reaping the whole pool, so innocent in-flight cells are
    requeued with their attempt count unchanged.
    """
    now = time.monotonic()
    expired = {future for future, flight in window.items()
               if flight.deadline is not None and flight.deadline <= now}
    if not expired:
        return False
    must_reap = False
    for future in expired:
        flight = window.pop(future)
        if future.cancel():
            requeue(flight, recovery.TIMEOUT, "", penalize=False)
            continue
        must_reap = True
        requeue(flight, recovery.TIMEOUT,
                f"cell exceeded {run.retry.timeout:.3f}s wall clock")
    if not must_reap:
        return False
    for future, flight in list(window.items()):
        del window[future]
        if future.done() and not future.cancelled():
            try:
                absorb(flight, future.result())
                continue
            except KeyboardInterrupt:
                raise
            except BaseException:
                pass
        else:
            future.cancel()
        requeue(flight, recovery.TIMEOUT, "", penalize=False)
    run.counter("sweep.pool.rebuilds")
    return True


def _reap(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers instead of waiting on a hung task.

    ``shutdown`` alone would block until running tasks finish — which a
    hung or chaos-injected cell never does — so the worker processes are
    terminated first. Reaches into ``_processes`` (no public API exposes
    the workers); guarded so a future stdlib change degrades to a plain
    shutdown.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    for process in processes:
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.join(timeout=5.0)


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


def suggested_jobs() -> int:
    """A sensible ``--jobs`` default for this machine (all cores)."""
    return max(1, os.cpu_count() or 1)
