"""The measurement protocol's ``stack`` tier.

A run of a stack-property policy (LRU, LRU-K with CRP 0, LFU, A0) is
read off a pass its trace cache already holds whenever it would
otherwise take a kernel. These tests hold such a run to a kernel or
object-path run of the same cell: the same ``RunResult``, the same
registry totals apart from the ``sim.tier.*`` split, the same
run-boundary snapshots and the same errors. A table builds one pass per
column and repetition trace and runs no kernel at all.
"""

import io

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments import table_4_2_spec, table_4_3_spec
from repro.obs import (
    ConsoleProgressSink,
    EventDispatcher,
    ProfiledPolicy,
    RingBufferSink,
    SnapshotEvent,
)
from repro.core import kernel as lruk_kernels
from repro.core.lruk import LRUKPolicy
from repro.obs.registry import MetricsRegistry
from repro.policies import LRUPolicy
from repro.policies import kernel as policy_kernels
from repro.sim import (
    CachedTrace,
    ExperimentSpec,
    PolicySpec,
    measure_hit_ratio,
    run_experiment,
    run_paper_protocol,
)
from repro.sim import equi_effective
from repro.sim.trace_cache import TraceCache
from repro.workloads import BankOLTPWorkload

WORKLOAD = BankOLTPWorkload()
WARMUP, MEASURED, CAPACITY, SEED = 500, 2500, 100, 4


def cache_with_curves(repetitions=2):
    """A trace cache already holding LRU's curves for SEED onwards."""
    cache = TraceCache()
    for seed in range(SEED, SEED + repetitions):
        cache.build_stack_curve(LRUPolicy(), WORKLOAD, WARMUP + MEASURED,
                                seed, WARMUP)
    return cache


class RecordingConsoleSink(ConsoleProgressSink):
    """A run-level sink that keeps every snapshot and its context."""

    def __init__(self):
        super().__init__(io.StringIO())
        self.snapshots = []

    def handle(self, event, context):
        if isinstance(event, SnapshotEvent):
            self.snapshots.append((event, dict(context)))
        super().handle(event, context)


def all_runs(result):
    return {(cell.capacity, label): protocol.runs
            for cell in result.cells
            for label, protocol in cell.results.items()}


def test_table_4_3_stack_runs_equal_object_path_runs():
    """Every column and every registry total are tier-independent."""
    spec = table_4_3_spec(scale=0.02, repetitions=1)
    plain = EventDispatcher()
    plain.metrics = MetricsRegistry()
    stacked = run_experiment(spec, observability=plain)
    demoted_dispatcher = EventDispatcher()
    demoted_dispatcher.metrics = MetricsRegistry()
    demoted_dispatcher.attach(RingBufferSink(maxlen=1))
    demoted = run_experiment(spec, observability=demoted_dispatcher)

    assert all_runs(stacked) == all_runs(demoted)
    for label in ("LRU-1", "LRU-2", "LFU"):
        assert any(run.writebacks
                   for (_, column), runs in all_runs(stacked).items()
                   if column == label for run in runs), label
    fused = plain.metrics.snapshot()
    slow = demoted_dispatcher.metrics.snapshot()
    assert fused.counters["sim.tier.stack"] == 42
    assert "sim.tier.kernel" not in fused.counters
    assert slow.counters["sim.tier.object"] == 42

    def untiered(counters):
        return {name: value for name, value in counters.items()
                if not name.startswith("sim.tier.")}

    assert untiered(fused.counters) == untiered(slow.counters)
    assert dict(fused.histograms) == dict(slow.histograms)
    assert dict(fused.gauges) == dict(slow.gauges)


def test_stack_runs_emit_the_snapshots_of_kernel_runs():
    """Under a run-level sink each stack run emits ``start`` and ``end``
    snapshots equal to a kernel run's, in the same context, and records
    the same counters: for LRU-1, and for LRU-2 with its stats block."""
    stacked = cache_with_curves()
    for seed in (SEED, SEED + 1):
        stacked.build_stack_curve(LRUKPolicy(k=2), WORKLOAD,
                                  WARMUP + MEASURED, seed, WARMUP,
                                  [CAPACITY])
    for spec in (PolicySpec.lru(), PolicySpec.lruk(2)):
        assert_stack_run_equals_kernel_run(spec, stacked)


def assert_stack_run_equals_kernel_run(spec, stacked):
    def observed(trace_cache):
        sink = RecordingConsoleSink()
        dispatcher = EventDispatcher()
        dispatcher.metrics = MetricsRegistry()
        dispatcher.attach(sink)
        result = run_paper_protocol(
            WORKLOAD, spec, CAPACITY, WARMUP, MEASURED,
            seed=SEED, repetitions=2, observability=dispatcher,
            trace_cache=trace_cache)
        snapshots = [(event.time, event.phase, event.counters, context)
                     for event, context in sink.snapshots]
        return (result, snapshots,
                dict(dispatcher.metrics.snapshot().counters))

    stack, stack_snapshots, stack_counters = observed(stacked)
    kernel, kernel_snapshots, kernel_counters = observed(TraceCache())
    assert stack_counters.pop("sim.tier.stack") == 2
    assert kernel_counters.pop("sim.tier.kernel") == 2
    assert stack_counters == kernel_counters
    assert [phase for _, phase, _, _ in stack_snapshots] == [
        "start", "end", "start", "end"]
    assert stack_snapshots == kernel_snapshots
    assert stack.runs == kernel.runs
    if spec.label == "LRU-2":
        assert stack_counters["policy.admissions"] > 0
        assert "policy.infinite_distance_evictions" in stack_snapshots[1][2]


@pytest.mark.parametrize("warmup", [-1, WARMUP + MEASURED])
def test_bad_warmup_raises_alike_on_both_tiers(warmup):
    trace = CachedTrace.materialize(WORKLOAD, WARMUP + MEASURED, SEED)
    with pytest.raises(ConfigurationError) as kernel:
        measure_hit_ratio(LRUPolicy(), trace, CAPACITY, warmup)
    with pytest.raises(ConfigurationError) as stack:
        LRUPolicy().stack_hits(trace.page_ids(), warmup, trace.next_write)
    assert str(stack.value) == str(kernel.value)
    # A table's spec checks its protocol when it is built, so the bad
    # warm-up surfaces there, as the same error.
    with pytest.raises(ConfigurationError) as table:
        ExperimentSpec(
            name="bad", workload=WORKLOAD,
            policies=[PolicySpec.lru(), PolicySpec.lruk(2)],
            capacities=[CAPACITY], warmup=warmup,
            measured=WARMUP + MEASURED - warmup,
            equi_effective=("LRU-1", "LRU-2"))
    assert str(table.value) == str(kernel.value)


def test_bad_capacity_raises_alike_on_both_tiers():
    errors = []
    for cache in (cache_with_curves(1), TraceCache()):
        with pytest.raises(ConfigurationError) as error:
            run_paper_protocol(WORKLOAD, PolicySpec.lru(), 0, WARMUP,
                               MEASURED, seed=SEED, trace_cache=cache)
        errors.append(str(error.value))
    assert errors[0] == errors[1]


def test_profiled_lru_keeps_the_object_path():
    """Hook profiling times every hook even when a curve is at hand."""
    profiled = []

    def factory(context):
        profiled.append(ProfiledPolicy(LRUPolicy()))
        return profiled[-1]

    cache = cache_with_curves(1)
    registry = MetricsRegistry()
    result = run_paper_protocol(
        WORKLOAD, PolicySpec("LRU-1", factory), CAPACITY, WARMUP, MEASURED,
        seed=SEED, trace_cache=cache, metrics=registry)
    counters = registry.snapshot().counters
    assert counters["sim.tier.object"] == 1
    assert "sim.tier.stack" not in counters
    report = profiled[0].report()
    assert report["observe"]["count"] == WARMUP + MEASURED
    assert (report["on_hit"]["count"] + report["on_admit"]["count"]
            == WARMUP + MEASURED)
    assert report["choose_victim"]["count"] == report["on_evict"]["count"]
    assert report["on_evict"]["count"] == result.runs[0].evictions > 0
    assert result.runs == run_paper_protocol(
        WORKLOAD, PolicySpec.lru(), CAPACITY, WARMUP, MEASURED, seed=SEED,
        trace_cache=cache).runs


def test_a_table_makes_one_pass_per_trace(monkeypatch):
    passes, kernels, probes = [], [], []
    stack_hits = policy_kernels.lru_stack_hits
    stack_pass = policy_kernels.stack_pass
    protocol = equi_effective.run_paper_protocol

    def counted_pass(*args, **kwargs):
        passes.append(("every size", args[1]))
        return stack_hits(*args, **kwargs)

    def counted_priority_pass(pages, warmup, next_write, capacities,
                              key_of):
        passes.append((f"{len(set(capacities))} sizes", warmup))
        return stack_pass(pages, warmup, next_write, capacities, key_of)

    def counted(module, name):
        factory = getattr(module, name)

        def counted_factory(policy, capacity):
            kernels.append((name, capacity))
            return factory(policy, capacity)
        monkeypatch.setattr(module, name, counted_factory)

    def counted_probe(workload, spec, capacity, *args, **kwargs):
        probes.append(capacity)
        return protocol(workload, spec, capacity, *args, **kwargs)

    monkeypatch.setattr(policy_kernels, "lru_stack_hits", counted_pass)
    monkeypatch.setattr(policy_kernels, "stack_pass", counted_priority_pass)
    for name in ("make_lru_kernel", "make_lfu_kernel", "make_a0_kernel"):
        counted(policy_kernels, name)
    counted(lruk_kernels, "make_lruk_kernel")
    monkeypatch.setattr(equi_effective, "run_paper_protocol", counted_probe)
    spec = table_4_2_spec(scale=0.1, repetitions=3)
    run_experiment(spec)
    rows = f"{len(spec.capacities)} sizes"
    # LRU-1's curve, and the LRU-2 and A0 passes over the rows: one
    # pass each per repetition trace.
    assert sorted(passes) == sorted(
        [("every size", spec.warmup)] * 3 + [(rows, spec.warmup)] * 6)
    assert kernels == []
    assert probes == []


def test_tables_without_a_b1_column_keep_the_lru_kernel():
    """The sweep builds every column's pass, the LRU-1 curve included,
    whether or not a B(1) column reads it: no run takes a kernel."""
    dispatcher = EventDispatcher()
    dispatcher.metrics = MetricsRegistry()
    run_experiment(table_4_2_spec(scale=0.05, repetitions=1,
                                  include_equi_effective=False),
                   observability=dispatcher)
    counters = dispatcher.metrics.snapshot().counters
    assert "sim.tier.kernel" not in counters
    assert counters["sim.tier.stack"] == counters["protocol.runs"] == 33


@pytest.mark.parametrize("argv", [
    ["table4.1", "--scale", "0.05", "--repetitions", "1", "--quiet"],
    ["table4.2", "--scale", "0.05", "--repetitions", "1", "--quiet"],
    ["table4.3", "--scale", "0.02", "--repetitions", "1", "--quiet"],
])
def test_pooled_table_prints_the_serial_table(argv, capsys):
    """Forked workers read the curves the parent built before the fork."""
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial
