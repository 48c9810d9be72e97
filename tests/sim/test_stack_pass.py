"""One stack pass answers LRU-K (CRP 0), LFU and A0 at every table row.

Each of these policies evicts the resident page of smallest key, and the
key never depends on the buffer size, so a page resident at one capacity
is resident at every larger one. :func:`repro.policies.kernel.stack_pass`
plays a trace once for a whole list of capacities. These tests hold it
to ``measure_hit_ratio`` at every capacity, in every ``RunResult`` field
and in LRU-K's stats block; check that only the configurations with the
property declare the hook; and check that the trace cache never hands
one policy's pass to another.
"""

from array import array
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lruk import LRUKPolicy
from repro.errors import ConfigurationError
from repro.experiments import table_4_1_spec
from repro.obs import ProfiledPolicy, ProvenanceRecorder
from repro.obs.registry import MetricsRegistry
from repro.policies import A0Policy, AgedLFUPolicy, LFUPolicy
from repro.sim import (
    CachedTrace,
    PolicySpec,
    measure_hit_ratio,
    run_paper_protocol,
    sweep_buffer_sizes,
)
from repro.sim import runner
from repro.sim.trace_cache import TraceCache
from repro.types import AccessKind, Reference
from repro.workloads import TwoPoolWorkload

PAGES = 20
#: Equal probabilities in threes, and pages 18 and 19 outside the
#: vector (A0 gives them 0): ties A0 breaks by page id.
PROBABILITIES = {page: (1 + page // 3) / 100 for page in range(PAGES - 2)}

POLICIES = {
    "LRU-2": lambda: LRUKPolicy(k=2),
    "LRU-3": lambda: LRUKPolicy(k=3),
    "LFU": LFUPolicy,
    "A0": lambda: A0Policy(PROBABILITIES),
}

REFERENCES = st.lists(
    st.builds(Reference, page=st.integers(0, PAGES - 1),
              kind=st.sampled_from(AccessKind)),
    min_size=2, max_size=150)
#: Unsorted, with duplicates, some beyond the number of pages.
CAPACITIES = st.lists(st.integers(1, PAGES + 2), min_size=1, max_size=6)
#: Warm-ups: none, a third of the trace, all but the last reference.
WARMUPS = st.sampled_from(["none", "third", "all-but-last"])


def warmup_of(choice, length):
    return {"none": 0, "third": length // 3,
            "all-but-last": length - 1}[choice]


def assert_pass_matches(make_policy, trace, warmup, capacities):
    """Every field of the pass equals a simulated run at each capacity."""
    result = make_policy().stack_hits(trace.page_ids(), warmup,
                                      trace.next_write, capacities)
    assert result.capacities == tuple(sorted(set(capacities)))
    for capacity in capacities:
        policy = make_policy()
        simulator = measure_hit_ratio(policy, trace, capacity, warmup)
        totals = result.at(capacity)
        assert (totals.hits, totals.misses) == (
            simulator.counter.hits, simulator.counter.misses), capacity
        assert (totals.warmup_hits, totals.warmup_misses) == (
            simulator.warmup_counter.hits,
            simulator.warmup_counter.misses), capacity
        assert totals.evictions == simulator.evictions, capacity
        assert totals.writebacks == simulator.writebacks, capacity
        assert totals.resident == len(simulator.resident_pages), capacity
        stats = getattr(policy, "stats", None)
        if stats is None:
            assert totals.stats is None
        else:
            assert asdict(totals.stats) == asdict(stats), capacity


@pytest.mark.parametrize("label", sorted(POLICIES))
@settings(max_examples=40, deadline=None)
@given(references=REFERENCES, capacities=CAPACITIES, choice=WARMUPS)
def test_pass_equals_simulation_at_every_capacity(label, references,
                                                  capacities, choice):
    trace = CachedTrace.from_references(references)
    assert_pass_matches(POLICIES[label], trace,
                        warmup_of(choice, len(references)), capacities)


@pytest.mark.parametrize("label", sorted(POLICIES))
@settings(max_examples=25, deadline=None)
@given(pages=st.lists(st.integers(0, PAGES - 1), min_size=2, max_size=150),
       capacities=CAPACITIES, choice=WARMUPS)
def test_pass_equals_simulation_on_page_ids(label, pages, capacities,
                                            choice):
    assert_pass_matches(POLICIES[label], CachedTrace(array("q", pages)),
                        warmup_of(choice, len(pages)), capacities)


def test_pass_holds_on_a_table_trace_with_heap_rebuilds():
    """A long two-pool trace leaves many out-of-band heap entries, so
    the pass rebuilds its heaps; it still equals simulation."""
    workload = TwoPoolWorkload(n1=50, n2=2000)
    trace = CachedTrace.materialize(workload, 30_000, seed=2)
    for label in ("LRU-2", "LFU"):
        assert_pass_matches(POLICIES[label], trace, 5_000,
                            [30, 60, 90, 120, 500])


def test_pass_answers_only_its_capacities():
    trace = CachedTrace(array("q", [1, 2, 3, 1, 2, 4, 1]))
    result = LFUPolicy().stack_hits(trace.page_ids(), 2, None, [3, 2, 3])
    assert result.capacities == (2, 3)
    assert result.covers(2) and not result.covers(4)
    # A pass cannot answer every capacity, so it declines the request.
    assert LFUPolicy().stack_hits(trace.page_ids(), 2, None, None) is None
    with pytest.raises(ConfigurationError, match="must be positive"):
        LFUPolicy().stack_hits(trace.page_ids(), 2, None, [0, 2])


def excluded_policies():
    recorded = LRUKPolicy(k=2)
    recorded.provenance = ProvenanceRecorder()
    return {
        "crp": LRUKPolicy(k=2, correlated_reference_period=3),
        "rip": LRUKPolicy(k=2, retained_information_period=500),
        "processes": LRUKPolicy(k=2, distinguish_processes=True),
        "bounded history": LRUKPolicy(k=2, max_history_blocks=100),
        "scan": LRUKPolicy(k=2, selection="scan"),
        "provenance": recorded,
        "aged lfu": AgedLFUPolicy(),
        "profiled lru-2": ProfiledPolicy(LRUKPolicy(k=2)),
        "profiled lfu": ProfiledPolicy(LFUPolicy()),
        "profiled a0": ProfiledPolicy(A0Policy(PROBABILITIES)),
    }


@pytest.mark.parametrize("name", sorted(excluded_policies()))
def test_excluded_configurations_declare_no_hook(name):
    assert getattr(excluded_policies()[name], "stack_hits", None) is None


@pytest.mark.parametrize("label", sorted(POLICIES))
def test_stack_policies_declare_the_hook(label):
    assert getattr(POLICIES[label](), "stack_hits", None) is not None


@pytest.fixture
def reads(monkeypatch):
    """(column label, pass built for label) for every stack-tier run."""
    built, seen = {}, []
    build = TraceCache.build_stack_curve
    read = runner._read_curve

    def spy_build(cache, policy, *args, label=None, **kwargs):
        curve = build(cache, policy, *args, label=label, **kwargs)
        built[id(curve)] = label
        return curve

    def spy_read(curve, label, *args):
        seen.append((label, built[id(curve)]))
        return read(curve, label, *args)

    monkeypatch.setattr(TraceCache, "build_stack_curve", spy_build)
    monkeypatch.setattr(runner, "_read_curve", spy_read)
    return seen


def test_lru_3_never_reads_the_lru_2_pass(reads):
    spec = table_4_1_spec(scale=0.05, repetitions=2)
    sweep_buffer_sizes(spec.workload, spec.policies, spec.capacities,
                       spec.warmup, spec.measured, seed=spec.seed,
                       repetitions=spec.repetitions)
    labels = {label for label, _ in reads}
    assert labels == {"LRU-1", "LRU-2", "LRU-3", "A0"}
    assert all(label == built for label, built in reads)


def test_a0_over_other_probabilities_reads_its_own_pass(reads):
    workload = TwoPoolWorkload(n1=10, n2=200)
    flat = {page: 1.0 for page in workload.reference_probabilities()}
    specs = [PolicySpec.a0(),
             PolicySpec("A0-flat", lambda context: A0Policy(flat))]
    capacities, warmup, measured = [5, 10, 20], 300, 900
    cells = sweep_buffer_sizes(workload, specs, capacities, warmup,
                               measured, seed=3, repetitions=2)
    assert {label for label, _ in reads} == {"A0", "A0-flat"}
    assert all(label == built for label, built in reads)
    # Each column equals its own kernel runs, read from an empty cache.
    for cell in cells:
        for spec in specs:
            registry = MetricsRegistry()
            kernel = run_paper_protocol(
                workload, spec, cell.capacity, warmup, measured, seed=3,
                repetitions=2, trace_cache=TraceCache(), metrics=registry)
            assert registry.snapshot().counters["sim.tier.kernel"] == 2
            assert kernel.runs == cell.results[spec.label].runs


def test_a_cached_a0_pass_keys_by_probabilities():
    workload = TwoPoolWorkload(n1=10, n2=200)
    cache = TraceCache()
    own = A0Policy(workload.reference_probabilities())
    curve = cache.build_stack_curve(own, workload, 1000, 0, 200, [5, 10])
    # A fresh dict with the same probabilities finds the pass ...
    assert cache.stack_curve(A0Policy(workload.reference_probabilities()),
                             workload, 1000, 0, 200, 5) is curve
    # ... other probabilities do not, nor another K, nor a size the pass
    # does not answer.
    other = {page: 1.0 for page in workload.reference_probabilities()}
    assert cache.stack_curve(A0Policy(other), workload, 1000, 0, 200,
                             5) is None
    assert cache.stack_curve(own, workload, 1000, 0, 200, 7) is None
    cache.build_stack_curve(LRUKPolicy(k=2), workload, 1000, 0, 200, [5])
    assert cache.stack_curve(LRUKPolicy(k=3), workload, 1000, 0, 200,
                             5) is None
    assert cache.stack_curve(LRUKPolicy(k=2, correlated_reference_period=2),
                             workload, 1000, 0, 200, 5) is None
