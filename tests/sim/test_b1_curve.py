"""The B(1) search answers LRU-1 probes from one Mattson pass.

LRU is a stack algorithm, so one stack-distance pass per trace gives its
measured hits at every buffer size. These tests hold that curve to the
simulation it replaces: per capacity against ``measure_hit_ratio``, and
per table row against bisecting over ``run_paper_protocol``. Baselines
without the stack property must keep simulating.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.experiments.table43 import table_4_3_spec
from repro.obs import EventDispatcher, RingBufferSink
from repro.obs import trace as obs_trace
from repro.obs.trace import Tracer
from repro.policies import LRUPolicy, make_policy
from repro.sim import (
    CachedTrace,
    ExperimentSpec,
    PolicySpec,
    equi_effective_buffer_size,
    equi_effective_ratio,
    measure_hit_ratio,
    run_experiment,
    run_paper_protocol,
)
from repro.sim import equi_effective
from repro.sim.trace_cache import TraceCache
from repro.types import AccessKind, Reference
from repro.workloads import TwoPoolWorkload

PAGES = st.lists(st.integers(min_value=0, max_value=25),
                 min_size=2, max_size=200)
REFERENCES = st.lists(
    st.builds(Reference,
              page=st.integers(min_value=0, max_value=25),
              kind=st.sampled_from(AccessKind),
              process_id=st.one_of(st.none(), st.integers(0, 3))),
    min_size=2, max_size=200)


def assert_curve_matches(curve, trace, warmup, distinct):
    for capacity in range(1, distinct + 2):
        simulator = measure_hit_ratio(LRUPolicy(), trace, capacity, warmup)
        assert curve[min(capacity, len(curve) - 1)] == simulator.counter.hits


@settings(max_examples=60, deadline=None)
@given(pages=PAGES, split=st.floats(min_value=0.0, max_value=0.99))
def test_curve_equals_simulation_on_page_ids(pages, split):
    warmup = int(len(pages) * split)
    curve = LRUPolicy().stack_hits(pages, warmup)
    assert len(curve) == len(set(pages)) + 1
    assert_curve_matches(curve, CachedTrace(array("q", pages), None),
                         warmup, len(set(pages)))


@settings(max_examples=60, deadline=None)
@given(references=REFERENCES, split=st.floats(min_value=0.0, max_value=0.99))
def test_curve_equals_simulation_on_references(references, split):
    warmup = int(len(references) * split)
    pages = [reference.page for reference in references]
    curve = LRUPolicy().stack_hits(pages, warmup)
    assert_curve_matches(curve, references, warmup, len(set(pages)))


def test_only_lru_declares_the_stack_property():
    assert hasattr(LRUPolicy(), "stack_hits")
    for name in ("lru-k", "lfu", "fifo", "clock"):
        assert not hasattr(make_policy(name), "stack_hits")


def bisected_column(result):
    """The B(1)/B(2) column from bisecting over simulated baselines."""
    spec = result.spec
    baseline_label, improved_label = spec.equi_effective
    baseline = spec.spec_by_label(baseline_label)
    cache = TraceCache()

    def evaluate(capacity):
        return run_paper_protocol(
            spec.workload, baseline, capacity, spec.warmup, spec.measured,
            seed=spec.seed, repetitions=spec.repetitions,
            trace_cache=cache).hit_ratio

    column = {}
    for cell in result.cells:
        try:
            found = equi_effective_buffer_size(
                evaluate, cell.hit_ratio(improved_label), low=1,
                high=spec.equi_effective_high)
            column[cell.capacity] = found / cell.capacity
        except SimulationError:
            column[cell.capacity] = None
    return column


def two_pool_spec(seed, repetitions, pair=("LRU-1", "LRU-2")):
    policies = {"LRU-1": PolicySpec.lru(), "LRU-2": PolicySpec.lruk(2),
                "LFU": PolicySpec.lfu()}
    return ExperimentSpec(
        name="mini", workload=TwoPoolWorkload(n1=10, n2=100),
        policies=[policies[label] for label in pair],
        capacities=[5, 10, 20], warmup=200, measured=800, seed=seed,
        repetitions=repetitions, equi_effective=pair,
        equi_effective_high=160)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 50), repetitions=st.integers(1, 3))
def test_two_pool_column_equals_bisection(seed, repetitions):
    result = run_experiment(two_pool_spec(seed, repetitions))
    assert result.equi_effective_ratios == bisected_column(result)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 50), repetitions=st.integers(1, 3))
def test_oltp_column_equals_bisection(seed, repetitions):
    spec = table_4_3_spec(scale=0.005, capacities=[100, 300], seed=seed,
                          repetitions=repetitions)
    result = run_experiment(spec)
    assert result.equi_effective_ratios == bisected_column(result)


@pytest.fixture
def probes(monkeypatch):
    """Capacities the B(1) search simulated (not looked up)."""
    simulated = []
    original = equi_effective.run_paper_protocol

    def spy(workload, spec, capacity, *args, **kwargs):
        simulated.append(capacity)
        return original(workload, spec, capacity, *args, **kwargs)

    monkeypatch.setattr(equi_effective, "run_paper_protocol", spy)
    return simulated


def test_stack_baseline_never_simulates(probes):
    run_experiment(two_pool_spec(seed=3, repetitions=2))
    assert probes == []


def test_non_stack_baseline_still_simulates(probes):
    result = run_experiment(two_pool_spec(seed=3, repetitions=2,
                                          pair=("LFU", "LRU-2")))
    assert probes and not set(probes) & {5, 10, 20}
    assert result.equi_effective_ratios == bisected_column(result)


def test_curve_runs_under_observation(probes):
    tracer = Tracer()
    dispatcher = EventDispatcher()
    dispatcher.attach(RingBufferSink())
    spec = two_pool_spec(seed=1, repetitions=2)
    with obs_trace.activate(tracer):
        observed = run_experiment(spec, observability=dispatcher)
    assert probes == []
    (curve,) = tracer.find("b1.curve")
    assert curve.args["policy"] == "LRU-1"
    assert curve.args["repetitions"] == 2
    assert observed.equi_effective_ratios == run_experiment(
        spec).equi_effective_ratios


def test_equi_effective_ratio_matches_simulated_search():
    workload = TwoPoolWorkload(n1=20, n2=400)
    kwargs = dict(warmup=1000, measured=4000, seed=1, repetitions=2)
    ratio = equi_effective_ratio(workload, baseline=PolicySpec.lru(),
                                 improved=PolicySpec.lruk(2), capacity=20,
                                 **kwargs)
    target = run_paper_protocol(workload, PolicySpec.lruk(2), 20,
                                **kwargs).hit_ratio
    found = equi_effective_buffer_size(
        lambda capacity: run_paper_protocol(
            workload, PolicySpec.lru(), capacity, **kwargs).hit_ratio,
        target, low=10, high=4096)
    assert ratio == found / 20
