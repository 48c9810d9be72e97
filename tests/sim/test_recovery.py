"""Sweep failure handling, checkpoints, interrupts and resume."""

import json
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs import (
    CallbackSink,
    CellFailureEvent,
    EventDispatcher,
    ProgressEvent,
    Sink,
)
from repro.obs.registry import MetricsRegistry
from repro.policies import make_policy
from repro.sim import (
    CellExecutionError,
    PolicySpec,
    SweepCheckpoint,
    SweepInterrupted,
    TraceCache,
    fork_available,
    grid_fingerprint,
    run_experiment,
    sweep_buffer_sizes,
)
from repro.sim import experiment as experiment_module
from repro.sim import sweep
from repro.sim.recovery import (
    deserialize_result,
    serialize_result,
    workload_fingerprint,
)
from repro.workloads import ZipfianWorkload

SPECS = [PolicySpec.lru(), PolicySpec.lruk(2)]
CAPACITIES = [4, 8]


def _grid(jobs=1, specs=SPECS, capacities=CAPACITIES, seed=1, **kwargs):
    """A small Table 4.2-shaped grid, fast enough for failure injection,
    as ``{(capacity, label): ProtocolResult}``."""
    workload = ZipfianWorkload(n=60)
    cells = sweep_buffer_sizes(workload, specs, capacities, warmup=100,
                               measured=300, seed=seed, repetitions=2,
                               jobs=jobs, **kwargs)
    return {(cell.capacity, label): result for cell in cells
            for label, result in cell.results.items()}


class _Narration(Sink):
    """Calls ``on_line`` with each progress line; a run-level sink, so
    the grid's runs keep their kernels."""

    takes_references = False

    def __init__(self, on_line):
        self.on_line = on_line

    def handle(self, event, context):
        if isinstance(event, ProgressEvent):
            self.on_line(event.message)


def _narrating(on_line):
    """A dispatcher that hands every progress line to ``on_line``."""
    dispatcher = EventDispatcher()
    dispatcher.attach(_Narration(on_line))
    return dispatcher


def _observed():
    """A dispatcher with a metrics registry and an event recorder."""
    events = []
    dispatcher = EventDispatcher()
    dispatcher.attach(CallbackSink(lambda event, context:
                                   events.append(event)))
    dispatcher.metrics = MetricsRegistry()
    return dispatcher, events


def _failure_events(events):
    return [e for e in events if isinstance(e, CellFailureEvent)]


class _RunEvents(Sink):
    """Keeps every event; a run-level sink, so the grid keeps its stack
    passes and kernels."""

    takes_references = False

    def __init__(self):
        self.events = []

    def handle(self, event, context):
        self.events.append(event)


def _observed_runs():
    """A dispatcher with a metrics registry and a run-level event
    recorder: the grid's passes stay planned."""
    dispatcher = EventDispatcher()
    recorder = dispatcher.attach(_RunEvents())
    dispatcher.metrics = MetricsRegistry()
    return dispatcher, recorder.events


def _passes_fail_in_workers(monkeypatch, failing, kill=False):
    """Make each stack pass for which ``failing(label, seed)`` holds
    raise, or SIGKILL its worker, when a pool worker builds it; passes
    the parent builds are left alone."""
    build = TraceCache.build_stack_curve
    parent = os.getpid()

    def build_or_fail(self, policy, workload, total, seed, warmup,
                      capacities=None, label=None):
        if os.getpid() != parent and failing(label, seed):
            if kill:
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("injected pass failure")
        return build(self, policy, workload, total, seed, warmup,
                     capacities, label)

    monkeypatch.setattr(TraceCache, "build_stack_curve", build_or_fail)


def _tiers(dispatcher):
    """Runs per execution tier, from the sweep's registry."""
    counters = dispatcher.metrics.snapshot().counters
    return {name.rsplit(".", 1)[1]: value
            for name, value in counters.items()
            if name.startswith("sim.tier.")}


class TestCheckpointRoundTrip:
    def test_result_serialization_round_trips_exactly(self):
        grid = _grid()
        for result in grid.values():
            record = json.loads(json.dumps(serialize_result(result)))
            assert deserialize_result(record) == result

    def test_fingerprint_distinguishes_grids(self):
        workload = ZipfianWorkload(n=60)
        base = grid_fingerprint(workload, SPECS, CAPACITIES, 100, 300, 1, 2)
        assert base == grid_fingerprint(
            ZipfianWorkload(n=60), SPECS, CAPACITIES, 100, 300, 1, 2)
        assert base != grid_fingerprint(
            workload, SPECS, CAPACITIES, 100, 300, 2, 2)  # seed
        assert base != grid_fingerprint(
            workload, SPECS, [4, 16], 100, 300, 1, 2)  # capacities
        assert base != grid_fingerprint(
            workload, SPECS[:1], CAPACITIES, 100, 300, 1, 2)  # labels
        assert base != grid_fingerprint(
            ZipfianWorkload(n=61), SPECS, CAPACITIES, 100, 300, 1, 2)  # n

    def test_checkpoint_records_and_reloads(self, tmp_path):
        path = str(tmp_path / "cells.jsonl")
        with SweepCheckpoint(path) as checkpoint:
            grid = _grid(checkpoint=checkpoint)
        assert len(grid) == len(SPECS) * len(CAPACITIES)
        reopened = SweepCheckpoint(path, resume=True)
        fingerprint = grid_fingerprint(
            ZipfianWorkload(n=60), SPECS, CAPACITIES, 100, 300, 1, 2)
        assert reopened.completed(fingerprint) == grid
        assert reopened.completed("feedfacedeadbeef") == {}
        reopened.close()

    def test_truncated_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "cells.jsonl")
        with SweepCheckpoint(path) as checkpoint:
            _grid(checkpoint=checkpoint)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"grid": "abc", "capacity": 4, "lab')  # crash cut
        reopened = SweepCheckpoint(path, resume=True)
        assert reopened.resumed_cells == len(SPECS) * len(CAPACITIES)
        reopened.close()

    def test_fresh_open_truncates(self, tmp_path):
        path = str(tmp_path / "cells.jsonl")
        with SweepCheckpoint(path) as checkpoint:
            _grid(checkpoint=checkpoint)
        fresh = SweepCheckpoint(path, resume=False)
        fresh.close()
        assert os.path.getsize(path) == 0


class TestWorkloadFingerprint:
    def test_fingerprint_reflects_parameters(self):
        a = workload_fingerprint(ZipfianWorkload(n=100))
        b = workload_fingerprint(ZipfianWorkload(n=200))
        assert a.startswith("ZipfianWorkload(")
        assert a != b
        assert a == workload_fingerprint(ZipfianWorkload(n=100))

    def test_fingerprint_pins_the_ledger_key(self):
        """Grid fingerprints hash this string, so changing it would make
        every existing checkpoint ledger match nothing on resume."""
        assert workload_fingerprint(ZipfianWorkload(n=100)) == (
            "ZipfianWorkload(alpha=0.8, beta=0.2, n=100, "
            "theta=0.1386468838532139)")
        assert grid_fingerprint(ZipfianWorkload(n=60), SPECS, CAPACITIES,
                                100, 300, 1, 2) == "33c8740d50228262"


class TestResume:
    def test_resume_skips_completed_cells(self, tmp_path):
        path = str(tmp_path / "cells.jsonl")
        with SweepCheckpoint(path) as checkpoint:
            first = _grid(checkpoint=checkpoint)
        narrated = []
        with SweepCheckpoint(path, resume=True) as checkpoint:
            resumed = _grid(checkpoint=checkpoint,
                            observability=_narrating(narrated.append))
        assert resumed == first
        assert narrated == []  # nothing re-ran, nothing re-narrated

    def test_partial_resume_runs_only_missing_cells(self, tmp_path):
        path = str(tmp_path / "cells.jsonl")
        with SweepCheckpoint(path) as checkpoint:
            full = _grid(checkpoint=checkpoint)
        # Keep only the first two completed cells, as if interrupted.
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:2])
        narrated = []
        with SweepCheckpoint(path, resume=True) as checkpoint:
            resumed = _grid(checkpoint=checkpoint,
                            observability=_narrating(narrated.append))
        assert resumed == full
        assert len(narrated) == len(full) - 2

    def test_interrupt_salvages_and_resume_completes(self, tmp_path):
        path = str(tmp_path / "cells.jsonl")
        seen = []

        def interrupt_after_two(line):
            seen.append(line)
            if len(seen) == 2:
                raise KeyboardInterrupt

        with SweepCheckpoint(path) as checkpoint:
            with pytest.raises(SweepInterrupted) as info:
                _grid(checkpoint=checkpoint,
                      observability=_narrating(interrupt_after_two))
        assert len(info.value.results) == 2  # completed cells salvaged
        with SweepCheckpoint(path, resume=True) as checkpoint:
            assert checkpoint.resumed_cells == 2
            resumed = _grid(checkpoint=checkpoint)
        assert resumed == _grid()  # identical to an uninterrupted run


class TestSerialRetry:
    def test_poisoned_cell_fails_fast_and_keeps_good_cells(self, tmp_path):
        path = str(tmp_path / "cells.jsonl")

        def poisoned(ctx):
            raise ConfigurationError("deterministically broken")

        specs = [PolicySpec.lru(), PolicySpec("BAD", poisoned)]
        dispatcher, events = _observed()
        with SweepCheckpoint(path) as checkpoint:
            with pytest.raises(CellExecutionError) as info:
                _grid(specs=specs, checkpoint=checkpoint,
                      observability=dispatcher)
        failures = info.value.failures
        assert len(failures) == len(CAPACITIES)
        assert all(f.kind == "error" for f in failures)
        assert all(f.attempts == 1 for f in failures)  # never retried
        assert all(f.label == "BAD" for f in failures)
        # Every healthy cell completed and was checkpointed.
        assert set(info.value.results) == {(c, "LRU-1") for c in CAPACITIES}
        reopened = SweepCheckpoint(path, resume=True)
        assert reopened.resumed_cells == len(CAPACITIES)
        reopened.close()
        assert dispatcher.metrics.counter("sweep.cell.failures").value == 2
        assert all(e.action == "failed" for e in _failure_events(events))

    def test_exhausted_attempts_raise_with_history(self):
        def always_broken(ctx):
            raise RuntimeError("never builds")

        specs = [PolicySpec("BROKEN", always_broken)]
        with pytest.raises(CellExecutionError) as info:
            _grid(specs=specs, capacities=[4])
        (failure,) = info.value.failures
        assert failure.attempts == 1
        assert failure.kind == "error"
        assert "never builds" in str(info.value)


@pytest.mark.skipif(not fork_available(),
                    reason="parallel engine needs the fork start method")
class TestParallelRecovery:
    def test_injected_raises_recover_to_serial_answer(
            self, tmp_path, monkeypatch):
        """Every pass raises in its worker: every run takes its kernel
        in the parent, and the grid is the serial one."""
        baseline = _grid()
        path = str(tmp_path / "cells.jsonl")
        _passes_fail_in_workers(monkeypatch, lambda label, seed: True)
        dispatcher, events = _observed_runs()
        with SweepCheckpoint(path) as checkpoint:
            grid = _grid(jobs=2, observability=dispatcher,
                         checkpoint=checkpoint)
        assert grid == baseline
        runs = len(SPECS) * len(CAPACITIES) * 2  # 2 repetitions per cell
        assert _tiers(dispatcher) == {"kernel": runs}
        assert dispatcher.metrics.counter("sweep.cell.failures").value == 0
        assert _failure_events(events) == []
        assert multiprocessing.active_children() == []
        reopened = SweepCheckpoint(path, resume=True)
        assert reopened.resumed_cells == len(grid)
        reopened.close()

    def test_sigkilled_worker_loses_no_cells(self, tmp_path, monkeypatch):
        """A pass worker killed mid-sweep breaks the pool: the passes it
        took with it leave their runs to the kernels."""
        baseline = _grid()
        path = str(tmp_path / "cells.jsonl")
        _passes_fail_in_workers(monkeypatch, lambda label, seed: True,
                                kill=True)
        dispatcher, events = _observed_runs()
        with SweepCheckpoint(path) as checkpoint:
            grid = _grid(jobs=2, observability=dispatcher,
                         checkpoint=checkpoint)
        assert grid == baseline  # bit-identical to the serial run
        runs = len(SPECS) * len(CAPACITIES) * 2
        assert _tiers(dispatcher) == {"kernel": runs}
        assert _failure_events(events) == []
        assert multiprocessing.active_children() == []
        # Every cell reached the checkpoint despite the kills.
        reopened = SweepCheckpoint(path, resume=True)
        assert reopened.resumed_cells == len(grid)
        reopened.close()

    def test_worker_only_failure_falls_back_to_serial(
            self, tmp_path, monkeypatch):
        """One column's passes raise in their workers: that column's
        runs take their kernels, the other column keeps its passes."""
        baseline = _grid()
        path = str(tmp_path / "cells.jsonl")
        _passes_fail_in_workers(monkeypatch,
                                lambda label, seed: label == "LRU-1")
        dispatcher, events = _observed_runs()
        with SweepCheckpoint(path) as checkpoint:
            grid = _grid(jobs=2, observability=dispatcher,
                         checkpoint=checkpoint)
        assert grid == baseline
        column = len(CAPACITIES) * 2  # one column's runs
        assert _tiers(dispatcher) == {"kernel": column, "stack": column}
        assert _failure_events(events) == []
        assert multiprocessing.active_children() == []
        reopened = SweepCheckpoint(path, resume=True)
        assert reopened.resumed_cells == len(grid)
        reopened.close()

    def test_failure_everywhere_names_only_that_policy(self):
        def always_broken(ctx):
            raise RuntimeError("always broken")

        specs = [PolicySpec("BROKEN", always_broken), PolicySpec.lru()]
        dispatcher, events = _observed_runs()
        with pytest.raises(CellExecutionError) as info:
            _grid(jobs=2, specs=specs, observability=dispatcher)
        assert {f.label for f in info.value.failures} == {"BROKEN"}
        # Each cell ran once, in the parent; nothing is retried.
        assert all(f.attempts == 1 for f in info.value.failures)
        # The healthy policy's cells all completed, off pooled passes.
        assert set(info.value.results) == {(c, "LRU-1") for c in CAPACITIES}
        assert _tiers(dispatcher) == {"stack": len(CAPACITIES) * 2}
        assert dispatcher.metrics.counter("sweep.cell.failures").value == \
            len(CAPACITIES)
        failures = _failure_events(events)
        assert len(failures) == len(CAPACITIES)
        assert all(e.action == "failed" and e.failure == "error"
                   for e in failures)
        assert multiprocessing.active_children() == []

    def test_interrupt_under_jobs_salvages_and_resumes(self, tmp_path):
        path = str(tmp_path / "cells.jsonl")
        seen = []

        def interrupt_after_two(line):
            seen.append(line)
            if len(seen) == 2:
                raise KeyboardInterrupt

        with SweepCheckpoint(path) as checkpoint:
            with pytest.raises(SweepInterrupted) as info:
                _grid(jobs=2, checkpoint=checkpoint,
                      observability=_narrating(interrupt_after_two))
        assert len(info.value.results) == 2  # completed cells salvaged
        with SweepCheckpoint(path, resume=True) as checkpoint:
            assert checkpoint.resumed_cells == 2
            resumed = _grid(jobs=2, checkpoint=checkpoint)
        assert resumed == _grid()  # identical to a serial run

    def test_interrupt_during_passes_salvages_and_resumes(
            self, tmp_path, monkeypatch):
        """Ctrl-C while the pass pool still runs, before any cell."""
        path = str(tmp_path / "cells.jsonl")
        store = TraceCache.add_stack_curve
        pool_alive = []

        def interrupt_first_store(self, *args):
            # The parent keeps each pass a worker returns; interrupt at
            # the first, while the pool and its other passes still run.
            monkeypatch.setattr(TraceCache, "add_stack_curve", store)
            pool_alive.append(bool(multiprocessing.active_children()))
            raise KeyboardInterrupt

        monkeypatch.setattr(TraceCache, "add_stack_curve",
                            interrupt_first_store)
        with SweepCheckpoint(path) as checkpoint:
            with pytest.raises(SweepInterrupted) as info:
                _grid(jobs=2, checkpoint=checkpoint)
        assert pool_alive == [True]
        assert info.value.results == {}  # no cell had completed
        assert multiprocessing.active_children() == []
        with SweepCheckpoint(path, resume=True) as checkpoint:
            assert checkpoint.resumed_cells == 0
            resumed = _grid(jobs=2, checkpoint=checkpoint)
        assert resumed == _grid()  # identical to a serial run

    def test_sigint_during_pool_shutdown_is_ignored(self, monkeypatch):
        """Ctrl-C often arrives twice, the second time while a pool shuts
        down; that shutdown ignores it and still reaps every worker."""
        shutdown = ProcessPoolExecutor.shutdown
        signalled = []

        def signal_then_shut_down(pool, *args, **kwargs):
            signalled.append(pool)
            os.kill(os.getpid(), signal.SIGINT)
            return shutdown(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "shutdown",
                            signal_then_shut_down)
        assert _grid(jobs=2) == _grid()
        assert len(signalled) == 1  # the one pool: the passes'
        assert multiprocessing.active_children() == []

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           lost=st.sets(st.sampled_from([(label, repetition)
                                         for label in ("LRU-1", "LRU-2")
                                         for repetition in (0, 1)])))
    def test_property_recovered_grid_equals_serial(self, seed, lost):
        """Whichever passes the workers lose, the grid is the serial one
        and exactly the lost passes' runs take their kernels."""
        serial = _grid(seed=seed)
        dispatcher, _ = _observed_runs()
        with pytest.MonkeyPatch.context() as patch:
            _passes_fail_in_workers(
                patch, lambda label, run_seed: (label, run_seed - seed)
                in lost)
            recovered = _grid(jobs=2, seed=seed, observability=dispatcher)
        assert recovered == serial
        kernel = len(lost) * len(CAPACITIES)  # a pass answers each size
        stack = len(SPECS) * len(CAPACITIES) * 2 - kernel
        assert _tiers(dispatcher) == {
            tier: runs for tier, runs in (("kernel", kernel),
                                          ("stack", stack)) if runs}


class TestTransientFactory:
    def test_raises_once_globally_then_recovers(self, tmp_path):
        sentinel = str(tmp_path / "first-build")
        baseline = _grid()

        def flaky_once(ctx):
            if not os.path.exists(sentinel):
                with open(sentinel, "w", encoding="utf-8"):
                    pass
                raise RuntimeError("transient: first build only")
            return make_policy("lru")

        specs = [PolicySpec("LRU-1", flaky_once), PolicySpec.lruk(2)]
        jobs = 2 if fork_available() else 1
        dispatcher, events = _observed()
        grid = _grid(jobs=jobs, specs=specs, observability=dispatcher)
        assert grid == baseline
        assert dispatcher.metrics.counter("sweep.cell.failures").value == 0


class TestJobsDefaultIsSerial:
    def test_run_grid_none_jobs_stays_in_process(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("jobs=None must not spawn a pool")

        monkeypatch.setattr("repro.sim.parallel._pool_passes", forbidden)
        grid = _grid(jobs=None)
        assert len(grid) == len(SPECS) * len(CAPACITIES)

class TestCacheLifetime:
    class _TrackingCache(TraceCache):
        instances = []

        def __init__(self):
            super().__init__()
            self.cleared = 0
            type(self).instances.append(self)

        def clear(self):
            self.cleared += 1
            super().clear()

    @pytest.fixture(autouse=True)
    def _reset_instances(self):
        type(self)._TrackingCache.instances = []
        yield

    def test_experiment_clears_its_cache(self, monkeypatch):
        monkeypatch.setattr(experiment_module, "TraceCache",
                            self._TrackingCache)
        from repro.experiments import table_4_2_spec
        spec = table_4_2_spec(scale=0.02, n=100, capacities=[8],
                              repetitions=1, include_equi_effective=False)
        run_experiment(spec, jobs=1)
        (cache,) = self._TrackingCache.instances
        assert cache.cleared >= 1
        assert len(cache) == 0

    def test_experiment_clears_cache_on_failure(self, monkeypatch):
        monkeypatch.setattr(experiment_module, "TraceCache",
                            self._TrackingCache)
        from repro.experiments import table_4_2_spec
        spec = table_4_2_spec(scale=0.02, n=100, capacities=[8],
                              repetitions=1, include_equi_effective=False)
        boom = [PolicySpec("BOOM", lambda ctx: (_ for _ in ()).throw(
            ConfigurationError("poisoned")))]
        spec.policies = list(spec.policies) + boom
        with pytest.raises(CellExecutionError):
            run_experiment(spec, jobs=1)
        (cache,) = self._TrackingCache.instances
        assert cache.cleared >= 1
        assert len(cache) == 0

    def test_sweep_clears_owned_cache(self, monkeypatch):
        monkeypatch.setattr(sweep, "TraceCache", self._TrackingCache)
        sweep_buffer_sizes(ZipfianWorkload(n=60), SPECS, [4],
                           warmup=100, measured=200, seed=0)
        (cache,) = self._TrackingCache.instances
        assert cache.cleared >= 1

    def test_sweep_leaves_borrowed_cache_alone(self):
        cache = self._TrackingCache()
        sweep_buffer_sizes(ZipfianWorkload(n=60), SPECS, [4],
                           warmup=100, measured=200, seed=0,
                           trace_cache=cache)
        assert cache.cleared == 0
        assert len(cache) > 0  # still warm for the caller's next probe


class TestCellFailureEvent:
    def test_to_dict(self):
        event = CellFailureEvent(capacity=8, label="LRU-2", attempt=2,
                                 failure="crash", error="SIGKILL",
                                 action="fallback")
        record = event.to_dict()
        assert record["event"] == "cell-failure"
        assert record["failure"] == "crash"
        assert record["action"] == "fallback"
        json.dumps(record)  # strictly serializable
