"""Parallel sweep engine, trace cache, and fast-path equivalence tests."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LRUKPolicy
from repro.errors import ConfigurationError
from repro.obs import (
    CallbackSink,
    ConsoleProgressSink,
    EventDispatcher,
    HitRatioWindowRecorder,
    ProgressEvent,
    RingBufferSink,
)
from repro.sim import (
    CachedTrace,
    CacheSimulator,
    PolicySpec,
    TraceCache,
    fork_available,
    measure_hit_ratio,
    run_experiment,
    sweep_buffer_sizes,
)
from repro.sim import parallel
from repro.types import AccessKind, Reference
from repro.workloads import BankOLTPWorkload, ZipfianWorkload


class _CountingWorkload(ZipfianWorkload):
    """Counts how many times a reference string is materialized
    (through either the generator or the bulk page-id path)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.materializations = 0

    def references(self, count, seed=0):
        self.materializations += 1
        return super().references(count, seed=seed)

    def page_ids(self, count, seed=0):
        self.materializations += 1
        return super().page_ids(count, seed=seed)


class TestCachedTrace:
    def test_plain_trace_drops_reference_objects(self):
        workload = ZipfianWorkload(n=50)
        refs = list(workload.references(200, seed=1))
        trace = CachedTrace.from_references(refs)
        assert trace.plain
        assert len(trace) == 200
        assert list(trace.page_ids()) == [ref.page for ref in refs]

    def test_lazy_reference_reconstruction(self):
        trace = CachedTrace.from_references(
            [Reference(page=p) for p in (1, 2, 3)])
        rebuilt = trace.references()
        assert rebuilt == [Reference(page=1), Reference(page=2),
                           Reference(page=3)]
        # The rebuilt list is NOT retained: caching it would pin a full
        # Reference object per page id and flip the trace off its
        # compact fast path for the rest of the sweep.
        assert trace.references() is not rebuilt
        assert trace.plain

    def test_metadata_trace_keeps_references(self):
        workload = BankOLTPWorkload()
        refs = list(workload.references(500, seed=0))
        trace = CachedTrace.from_references(refs)
        assert not trace.plain
        assert trace.references() == refs
        assert list(trace.page_ids()) == [ref.page for ref in refs]

    @pytest.mark.parametrize("refs, next_write", [
        ([Reference(page=1), Reference(page=2, kind=AccessKind.WRITE)],
         [3, 2]),
        ([Reference(page=1), Reference(page=2, process_id=7)], None),
    ], ids=["write", "process"])
    def test_one_annotated_reference_makes_the_trace_annotated(
            self, refs, next_write):
        trace = CachedTrace.from_references(refs)
        assert not trace.plain
        assert (None if trace.next_write is None
                else list(trace.next_write)) == next_write
        assert trace.references() == refs
        assert list(trace.page_ids()) == [1, 2]


class TestTraceCache:
    def test_materializes_each_seed_once(self):
        workload = _CountingWorkload(n=40)
        cache = TraceCache()
        first = cache.get(workload, 100, seed=0)
        again = cache.get(workload, 100, seed=0)
        other_seed = cache.get(workload, 100, seed=1)
        assert first is again
        assert other_seed is not first
        assert workload.materializations == 2
        assert cache.hits == 1 and cache.misses == 2

    def test_distinct_workloads_do_not_collide(self):
        cache = TraceCache()
        a = cache.get(ZipfianWorkload(n=40), 50, seed=0)
        b = cache.get(ZipfianWorkload(n=80), 50, seed=0)
        assert list(a.page_ids()) != list(b.page_ids())

    def test_sweep_materializes_once_per_seed(self):
        workload = _CountingWorkload(n=60)
        sweep_buffer_sizes(
            workload,
            [PolicySpec.lru(), PolicySpec.lruk(2), PolicySpec.opt()],
            [5, 10, 15], warmup=100, measured=300, seed=0, repetitions=2)
        # 3 policies x 3 capacities x 2 repetitions, but only 2 seeds.
        assert workload.materializations == 2


class TestFastIntegerPath:
    @pytest.mark.parametrize("factory", [
        lambda: LRUKPolicy(k=2),
        lambda: LRUKPolicy(k=2, correlated_reference_period=8),
        lambda: LRUKPolicy(k=1),
    ])
    def test_access_page_matches_access(self, factory):
        workload = ZipfianWorkload(n=300)
        refs = list(workload.references(4000, seed=7))
        slow = CacheSimulator(factory(), 40)
        fast = CacheSimulator(factory(), 40)
        for ref in refs:
            hit_slow = slow.access(ref).hit
            hit_fast = fast.access_page(ref.page)
            assert hit_slow == hit_fast
        assert slow.counter.hits == fast.counter.hits
        assert slow.evictions == fast.evictions
        assert slow.resident_pages == fast.resident_pages

    def test_measure_hit_ratio_accepts_cached_trace(self):
        workload = ZipfianWorkload(n=300)
        refs = list(workload.references(3000, seed=2))
        trace = CachedTrace.from_references(refs)
        via_list = measure_hit_ratio(LRUKPolicy(k=2), refs, 30, warmup=1000)
        via_trace = measure_hit_ratio(LRUKPolicy(k=2), trace, 30, warmup=1000)
        assert via_list.hit_ratio == via_trace.hit_ratio
        assert via_list.warmup_counter.hits == via_trace.warmup_counter.hits
        assert via_list.evictions == via_trace.evictions


class TestJobResolution:
    def test_explicit_jobs_win(self):
        assert parallel.resolve_jobs(3) == 3

    def test_default_is_serial(self):
        assert parallel.resolve_jobs(None) == 1

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            parallel.resolve_jobs(0)


GRID_SPECS = [PolicySpec.lru(), PolicySpec.lruk(2), PolicySpec.a0(),
              PolicySpec.opt()]


def _table_42_grid(seed, jobs, observability=None):
    """Table 4.2's grid at reduced scale (N=100, short protocol)."""
    workload = ZipfianWorkload(n=100)
    return sweep_buffer_sizes(
        workload, GRID_SPECS, [8, 16, 32], warmup=500, measured=1500,
        seed=seed, repetitions=2, jobs=jobs, observability=observability)


def _narrated_lines(seed, jobs):
    """The progress lines of one reduced Table 4.2 grid (a console sink
    takes no per-reference events, so the grid keeps its kernels)."""
    stream = io.StringIO()
    dispatcher = EventDispatcher()
    dispatcher.attach(ConsoleProgressSink(stream, prefix=""))
    _table_42_grid(seed, jobs=jobs, observability=dispatcher)
    return stream.getvalue().splitlines()


class TestParallelEquivalence:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_parallel_equals_serial(self, seed):
        serial = _table_42_grid(seed, jobs=1)
        parallel_cells = _table_42_grid(seed, jobs=4)
        assert [cell.capacity for cell in serial] == \
            [cell.capacity for cell in parallel_cells]
        for ours, theirs in zip(serial, parallel_cells):
            for label in (spec.label for spec in GRID_SPECS):
                mine, other = ours.results[label], theirs.results[label]
                assert mine.hit_ratio == other.hit_ratio
                assert mine.interval == other.interval
                assert [run.seed for run in mine.runs] == \
                    [run.seed for run in other.runs]
                assert mine.runs == other.runs

    def test_run_experiment_jobs_matches_serial(self):
        from repro.experiments import table_4_2_spec
        spec = table_4_2_spec(scale=0.02, n=100, capacities=[8, 16],
                              repetitions=1, include_equi_effective=False)
        serial = run_experiment(spec, jobs=1)
        fanned = run_experiment(spec, jobs=2)
        assert serial.cells == fanned.cells

    def test_run_grid_shape(self):
        workload = ZipfianWorkload(n=50)
        specs = [PolicySpec.lru(), PolicySpec.lruk(2)]
        cells = sweep_buffer_sizes(workload, specs, [4, 8], warmup=100,
                                   measured=300, seed=1, repetitions=1,
                                   jobs=2)
        assert {(cell.capacity, label) for cell in cells
                for label in cell.results} == {
            (4, "LRU-1"), (4, "LRU-2"), (8, "LRU-1"), (8, "LRU-2")}


class TestParallelProgress:
    def test_progress_event_per_completed_cell(self):
        events = []
        dispatcher = EventDispatcher()
        dispatcher.attach(CallbackSink(
            lambda event, context: events.append(event)))
        _table_42_grid(0, jobs=2, observability=dispatcher)
        progress = [e for e in events if isinstance(e, ProgressEvent)]
        assert len(progress) == 3 * len(GRID_SPECS)  # one per cell
        # Same format as the serial sweep's narration.
        assert all(e.message.startswith("B=") for e in progress)

    def test_serial_progress_format_matches(self):
        serial_lines = _narrated_lines(3, jobs=1)
        parallel_lines = _narrated_lines(3, jobs=2)
        assert len(serial_lines) == 3 * len(GRID_SPECS)
        assert sorted(serial_lines) == sorted(parallel_lines)


@pytest.mark.skipif(not fork_available(),
                    reason="parallel engine needs the fork start method")
class TestParallelMetricsParity:
    def _snapshot(self, jobs):
        from repro.obs.registry import MetricsRegistry
        dispatcher = EventDispatcher()
        dispatcher.attach(CallbackSink(lambda event, context: None))
        dispatcher.metrics = MetricsRegistry()
        _table_42_grid(0, jobs=jobs, observability=dispatcher)
        return dispatcher.metrics.snapshot()

    def test_metrics_out_identical_under_jobs(self):
        # Every cell runs in the parent, in grid order, so every key —
        # histogram means and last-run gauges included — is exact.
        serial = self._snapshot(jobs=1)
        fanned = self._snapshot(jobs=4)
        assert dict(fanned) == dict(serial)

    def test_reference_events_identical_under_jobs(self):
        """A per-reference sink sees a pooled sweep's every event, as
        it sees a serial one's."""
        def records(jobs):
            dispatcher = EventDispatcher()
            ring = dispatcher.attach(RingBufferSink(maxlen=100_000))
            dispatcher.attach(HitRatioWindowRecorder(
                dispatcher, window=100, stride=50))
            sweep_buffer_sizes(
                ZipfianWorkload(n=60), [PolicySpec.lru(), PolicySpec.lruk(2)],
                [4, 8], warmup=100, measured=300, seed=1, repetitions=2,
                jobs=jobs, observability=dispatcher)
            assert len(ring) < ring.maxlen
            return ring.records()

        serial = records(jobs=1)
        pooled = records(jobs=2)
        kinds = {event.kind for event, _ in pooled}
        assert {"access", "eviction", "window", "snapshot"} <= kinds
        assert pooled == serial

    def test_worker_histograms_reach_metrics_snapshot(self):
        fanned = self._snapshot(jobs=2)
        cells = 3 * len(GRID_SPECS) * 2  # capacities x policies x reps
        assert fanned["protocol.run_hit_ratio.count"] == cells
        assert 0.0 < fanned["protocol.run_hit_ratio.p50"] < 1.0


@pytest.mark.skipif(not fork_available(),
                    reason="parallel engine needs the fork start method")
class TestForkEngine:
    def test_uses_processes_when_forkable(self):
        # Counting materializations proves workers inherited the parent's
        # pre-warmed cache: a worker that regenerated the trace would
        # bump a *copy* of the counter, and the parent's would still
        # count one materialization per seed.
        workload = _CountingWorkload(n=60)
        sweep_buffer_sizes(
            workload, [PolicySpec.lru(), PolicySpec.lruk(2)], [5, 10],
            warmup=100, measured=300, seed=0, repetitions=2, jobs=2)
        assert workload.materializations == 2
