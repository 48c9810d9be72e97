"""Fused simulation kernels are decision-identical to the object path.

The kernel contract (:mod:`repro.policies.kernel`) promises the same
hit/miss sequence, the same evictions and write-backs, and the same
final policy state as driving :meth:`CacheSimulator.access` once per
reference — and that the simulator silently falls back to the object
path whenever a per-reference observability channel is attached. Both
halves are enforced here: a hypothesis equivalence matrix across
policies x capacities x warm-ups x CRP/RIP over references with random
write bits and process ids, and bypass regressions for every
observation channel.
"""

import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LRUKPolicy
from repro.errors import ConfigurationError
from repro.experiments import table_4_3_spec
from repro.obs import (
    EventDispatcher,
    ProfiledPolicy,
    ProvenanceRecorder,
    RingBufferSink,
)
from repro.obs import trace as obs_trace
from repro.obs.trace import Tracer
from repro.policies import A0Policy, LRUPolicy, make_policy
from repro.sim import (
    CachedTrace,
    CacheSimulator,
    measure_hit_ratio,
    run_experiment,
)
from repro.types import AccessKind, Reference
from repro.workloads import BankOLTPWorkload, ZipfianWorkload

#: (page, write?, process id) triples; with ``reads_only`` every write
#: bit is dropped, so plain and process-only traces are drawn as well.
REFERENCES = st.builds(
    lambda triples, reads_only: CachedTrace.from_references([
        Reference(page=page, process_id=process,
                  kind=(AccessKind.WRITE if write and not reads_only
                        else AccessKind.READ))
        for page, write, process in triples]),
    st.lists(st.tuples(st.integers(min_value=1, max_value=30),
                       st.booleans(),
                       st.sampled_from([None, None, 1, 2])),
             min_size=5, max_size=300),
    st.booleans())

#: Warm-up lengths as fractions of the trace, both ends included.
WARMUPS = st.sampled_from([0.0, 0.33, 1.0])

#: label -> factory, every policy family that ships a fused kernel.
KERNEL_POLICIES = {
    "lru": lambda: make_policy("lru"),
    "fifo": lambda: make_policy("fifo"),
    "lfu": lambda: make_policy("lfu"),
    "lruk": lambda: LRUKPolicy(k=2),
}


def object_run(policy, trace, warmup, capacity):
    """The reference semantics: access() per reference + boundary."""
    simulator = CacheSimulator(policy, capacity)
    references = trace.references()
    for reference in references[:warmup]:
        simulator.access(reference)
    simulator.start_measurement()
    for reference in references[warmup:]:
        simulator.access(reference)
    return simulator


def kernel_run(policy, trace, warmup, capacity):
    """The fused path over the trace's columns; asserts it engaged."""
    simulator = CacheSimulator(policy, capacity)
    assert simulator.run_fused(trace.page_ids(), warmup, trace.next_write)
    return simulator


def plain(pages):
    """A read-only trace of bare page ids."""
    return CachedTrace(array("q", pages))


def assert_identical(sim_a, sim_b):
    """Every driver-visible observable matches between two simulators."""
    assert sim_a.counter.hits == sim_b.counter.hits
    assert sim_a.counter.misses == sim_b.counter.misses
    assert sim_a.warmup_counter.hits == sim_b.warmup_counter.hits
    assert sim_a.warmup_counter.misses == sim_b.warmup_counter.misses
    assert sim_a.evictions == sim_b.evictions
    assert sim_a.writebacks == sim_b.writebacks
    assert sim_a.resident_pages == sim_b.resident_pages
    assert ({page: sim_a.is_dirty(page) for page in sim_a.resident_pages}
            == {page: sim_b.is_dirty(page) for page in sim_b.resident_pages})
    assert sim_a.now == sim_b.now


def assert_lruk_state_identical(pol_a, pol_b):
    """LRU-K internals: stats, history population, heap multiset."""
    assert pol_a.stats == pol_b.stats
    blocks_a, blocks_b = pol_a.history._blocks, pol_b.history._blocks
    assert blocks_a.keys() == blocks_b.keys()
    for page, block in blocks_a.items():
        other = blocks_b[page]
        assert block.hist == other.hist, page
        assert block.last == other.last, page
    assert sorted(pol_a._heap) == sorted(pol_b._heap)
    assert pol_a.history.purged_blocks == pol_b.history.purged_blocks
    assert (pol_a.history._touches_since_purge
            == pol_b.history._touches_since_purge)
    assert sorted(pol_a.history._expiry) == sorted(pol_b.history._expiry)


def assert_lfu_state_identical(pol_a, pol_b):
    """LFU internals: lifetime counts, recency, heap multiset."""
    assert pol_a._count == pol_b._count
    assert pol_a._last_access == pol_b._last_access
    assert sorted(pol_a._heap) == sorted(pol_b._heap)
    assert pol_a._resident == pol_b._resident


class TestLRUKKernelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(trace=REFERENCES,
           capacity=st.integers(min_value=1, max_value=8)
           | st.sampled_from([30, 64]),
           warmup_fraction=WARMUPS,
           crp=st.sampled_from([0, 3]),
           rip=st.sampled_from([None, 40]),
           k=st.sampled_from([2, 3]))
    def test_matches_object_path(self, trace, capacity, warmup_fraction,
                                 crp, rip, k):
        warmup = int(len(trace) * warmup_fraction)

        def build():
            return LRUKPolicy(k=k, correlated_reference_period=crp,
                              retained_information_period=rip)

        sim_a = object_run(build(), trace, warmup, capacity)
        sim_b = kernel_run(build(), trace, warmup, capacity)
        assert_identical(sim_a, sim_b)
        assert_lruk_state_identical(sim_a.policy, sim_b.policy)

    def test_hit_sequence_identical_at_every_prefix(self):
        """Counter equality at every prefix pins the full hit *sequence*.

        The fused loop is prefix-closed (reference i is processed
        identically whatever follows it), so equal cumulative counters at
        each prefix length imply the per-reference hit/miss decisions
        agree everywhere, not just in total.
        """
        workload = ZipfianWorkload(n=40)
        pages = list(workload.page_ids(250, seed=13))
        hits = []
        simulator = CacheSimulator(
            LRUKPolicy(k=2, correlated_reference_period=4,
                       retained_information_period=60), 6)
        for page in pages:
            hits.append(simulator.access_page(page))
        cumulative = 0
        object_prefix_hits = []
        for hit in hits:
            cumulative += hit
            object_prefix_hits.append(cumulative)
        for prefix in range(1, len(pages) + 1, 7):
            sim = kernel_run(
                LRUKPolicy(k=2, correlated_reference_period=4,
                           retained_information_period=60),
                plain(pages[:prefix]), 0, 6)
            assert sim.counter.hits == object_prefix_hits[prefix - 1], prefix

    def test_crp_orphans_rebuild_the_heap_alike(self):
        """CRP set-asides orphan victims' entries until the heap rebuilds.

        Page 0 is re-referenced within the CRP forever, so it tops the
        heap protected at every miss, as does the page admitted just
        before; the victim's entry is therefore never the top when it is
        evicted. Pages 1..200 are first seen in reverse order, so each
        victim's (HIST(q,2), HIST(q,1)) is below every orphan before it
        and no orphan ever surfaces: only the rebuild removes them. A
        third pass readmits pages whose orphans are still queued, which
        the kernel tells from live entries by admission time.
        """
        count = 200
        pages = [0]
        for page in [*range(count, 0, -1), *range(1, count + 1),
                     *range(count, 0, -1)]:
            pages += [page, 0]

        def build():
            return LRUKPolicy(k=2, correlated_reference_period=2)

        sim_a = object_run(build(), plain(pages), 0, 3)
        sim_b = kernel_run(build(), plain(pages), 0, 3)
        assert sim_b.policy.stats.heap_compactions > 0
        assert_identical(sim_a, sim_b)
        assert_lruk_state_identical(sim_a.policy, sim_b.policy)
        assert sim_a.policy._live == sim_b.policy._live


class TestSimplePolicyKernelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(trace=REFERENCES,
           capacity=st.integers(min_value=1, max_value=8)
           | st.sampled_from([30, 64]),
           warmup_fraction=WARMUPS,
           name=st.sampled_from(["lru", "fifo", "lfu"]))
    def test_matches_object_path(self, trace, capacity, warmup_fraction,
                                 name):
        warmup = int(len(trace) * warmup_fraction)
        sim_a = object_run(make_policy(name), trace, warmup, capacity)
        sim_b = kernel_run(make_policy(name), trace, warmup, capacity)
        assert_identical(sim_a, sim_b)
        if name == "lfu":
            assert_lfu_state_identical(sim_a.policy, sim_b.policy)

    def test_lfu_heap_holds_one_entry_per_resident(self):
        """A long run re-keys the heap in place; it never outgrows B."""
        trace = CachedTrace.materialize(ZipfianWorkload(n=60), 3000, 5)
        sim_a = object_run(make_policy("lfu"), trace, 1000, 10)
        sim_b = kernel_run(make_policy("lfu"), trace, 1000, 10)
        assert_identical(sim_a, sim_b)
        assert_lfu_state_identical(sim_a.policy, sim_b.policy)
        for policy in (sim_a.policy, sim_b.policy):
            assert len(policy._heap) == len(policy._resident) == 10
            assert policy._live == {entry[2]: entry
                                    for entry in policy._heap}

    @pytest.mark.parametrize("name", sorted(KERNEL_POLICIES))
    def test_policy_keeps_working_after_kernel_run(self, name):
        """The flushed state must support further per-reference driving."""
        workload = ZipfianWorkload(n=50)
        pages = list(workload.page_ids(400, seed=3))
        split = 200
        sim_a = CacheSimulator(KERNEL_POLICIES[name](), 8)
        for page in pages:
            sim_a.access_page(page)
        sim_b = CacheSimulator(KERNEL_POLICIES[name](), 8)
        assert sim_b.run_fused(pages[:split], 0)
        for page in pages[split:]:
            sim_b.access_page(page)
        assert sim_a.evictions == sim_b.evictions
        assert sim_a.resident_pages == sim_b.resident_pages
        total_a = sim_a.counter.hits
        total_b = sim_b.warmup_counter.hits + sim_b.counter.hits
        assert total_a == total_b


#: A0 probability vectors over part of the PAGES universe: few distinct
#: values, so ties are common, and pages left out of the vector get 0.
BETAS = st.dictionaries(st.integers(min_value=1, max_value=30),
                        st.sampled_from([0.0, 0.01, 0.02, 0.05, 0.2]),
                        min_size=1)


class TestA0KernelEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(trace=REFERENCES, betas=BETAS,
           capacity=st.integers(min_value=1, max_value=8)
           | st.sampled_from([30, 64]),
           warmup_fraction=WARMUPS)
    def test_matches_object_path(self, trace, betas, capacity,
                                 warmup_fraction):
        warmup = int(len(trace) * warmup_fraction)
        sim_a = object_run(A0Policy(betas), trace, warmup, capacity)
        sim_b = kernel_run(A0Policy(betas), trace, warmup, capacity)
        assert_identical(sim_a, sim_b)
        assert sim_a.policy._live == sim_b.policy._live
        assert sorted(sim_a.policy._heap) == sorted(sim_b.policy._heap)
        assert sim_a.policy.resident_pages == sim_b.policy.resident_pages


#: Every fused kernel, by label; A0 takes a drawn probability vector.
CUT_POLICIES = {
    "lru": lambda betas: make_policy("lru"),
    "fifo": lambda betas: make_policy("fifo"),
    "a0": A0Policy,
    "lfu": lambda betas: make_policy("lfu"),
    "lruk-crp0": lambda betas: LRUKPolicy(k=2),
    "lruk-crp3": lambda betas: LRUKPolicy(
        k=2, correlated_reference_period=3, retained_information_period=40),
}


def assert_policy_state_identical(name, pol_a, pol_b):
    """The bookkeeping a kernel leaves behind, for each policy family."""
    assert pol_a.resident_pages == pol_b.resident_pages
    if name.startswith("lruk"):
        assert_lruk_state_identical(pol_a, pol_b)
        assert pol_a._live == pol_b._live
    elif name == "lfu":
        assert_lfu_state_identical(pol_a, pol_b)
        assert pol_a._live == pol_b._live
    elif name == "a0":
        assert pol_a._live == pol_b._live
        assert sorted(pol_a._heap) == sorted(pol_b._heap)
    else:
        assert list(pol_a._order) == list(pol_b._order)


class TestWindowCuts:
    """A kernel keeps its state between calls, so a trace played in
    pieces, each numbered from where the last ended, is the same run as
    the trace played in one call."""

    @settings(max_examples=80, deadline=None)
    @given(trace=REFERENCES, betas=BETAS,
           capacity=st.integers(min_value=1, max_value=8)
           | st.sampled_from([30, 64]),
           name=st.sampled_from(sorted(CUT_POLICIES)),
           data=st.data())
    def test_any_cuts_play_like_one_call(self, trace, betas, capacity, name,
                                         data):
        pages = trace.page_ids()
        cuts = sorted(data.draw(st.lists(
            st.integers(min_value=0, max_value=len(pages)), max_size=4)))
        whole = CUT_POLICIES[name](betas)
        hits, writebacks, resident = whole.make_kernel(capacity)(
            pages, 0, trace.next_write)
        pieces = CUT_POLICIES[name](betas)
        kernel = pieces.make_kernel(capacity)
        piece_hits = piece_writebacks = 0
        for start, end in zip([0, *cuts], [*cuts, len(pages)]):
            played = kernel(pages[start:end], start, trace.next_write)
            piece_hits += played[0]
            piece_writebacks += played[1]
            assert pieces.resident_pages == set(played[2])
        assert (piece_hits, piece_writebacks) == (hits, writebacks)
        assert list(played[2].items()) == list(resident.items())
        assert_policy_state_identical(name, whole, pieces)


class TestMeasureHitRatioDispatch:
    def trace(self, count=1200, seed=7):
        return CachedTrace.materialize(ZipfianWorkload(n=80), count, seed)

    def test_plain_trace_and_reference_list_agree(self):
        trace = self.trace()
        kernel_sim = measure_hit_ratio(
            LRUKPolicy(k=2, correlated_reference_period=5), trace, 20, 300)
        object_sim = measure_hit_ratio(
            LRUKPolicy(k=2, correlated_reference_period=5),
            trace.references(), 20, 300)
        assert_identical(kernel_sim, object_sim)

    def test_results_identical_with_and_without_sinks(self):
        """Attaching a sink switches paths but must not change results."""
        trace = self.trace()
        plain = measure_hit_ratio(LRUKPolicy(k=2), trace, 20, 300)
        dispatcher = EventDispatcher()
        dispatcher.attach(RingBufferSink())
        observed = measure_hit_ratio(LRUKPolicy(k=2), trace, 20, 300,
                                     observability=dispatcher)
        assert_identical(plain, observed)
        assert_lruk_state_identical(plain.policy, observed.policy)

    def test_metadata_trace_reaches_the_kernel(self):
        """Write bits and process ids no policy reads keep the kernel."""
        trace = CachedTrace.materialize(BankOLTPWorkload(), 3000, 4)
        assert not trace.plain and trace.next_write is not None
        kernel_sim = measure_hit_ratio(LRUKPolicy(k=2), trace, 100, 500)
        object_sim = measure_hit_ratio(LRUKPolicy(k=2), trace.references(),
                                       100, 500)
        assert kernel_sim.tier == "kernel" and object_sim.tier == "object"
        assert kernel_sim.writebacks > 0
        assert_identical(kernel_sim, object_sim)

    def test_process_aware_lruk_keeps_the_object_path(self):
        trace = CachedTrace.materialize(BankOLTPWorkload(), 3000, 4)
        simulator = measure_hit_ratio(
            LRUKPolicy(k=2, correlated_reference_period=20,
                       distinguish_processes=True), trace, 100, 500)
        assert simulator.tier == "object"

    def test_table_4_3_run_results_match_the_object_path(self):
        """Every cell's RunResult, write-backs included, is unchanged by
        the kernels; a sink that takes references forces the object path
        for the comparison run."""
        spec = table_4_3_spec(scale=0.02, repetitions=1)
        fused = run_experiment(spec)
        dispatcher = EventDispatcher()
        dispatcher.attach(RingBufferSink(maxlen=1))
        demoted = run_experiment(spec, observability=dispatcher)

        def runs(result):
            return {(cell.capacity, label): protocol.runs
                    for cell in result.cells
                    for label, protocol in cell.results.items()}

        assert len(runs(fused)) == 42
        assert runs(fused) == runs(demoted)
        assert any(run.writebacks for cell_runs in runs(fused).values()
                   for run in cell_runs)


class TestKernelBypass:
    """Every per-reference observation channel must force the object
    path; aggregate observation (an ambient tracer) must not."""

    def pages(self):
        return list(ZipfianWorkload(n=30).page_ids(200, seed=1))

    def test_event_sinks_bypass(self):
        dispatcher = EventDispatcher()
        dispatcher.attach(RingBufferSink())
        simulator = CacheSimulator(LRUKPolicy(k=2), 8,
                                   observability=dispatcher)
        assert not simulator.run_fused(self.pages(), 0)

    def test_provenance_bypasses(self):
        policy = LRUKPolicy(k=2)
        policy.provenance = ProvenanceRecorder()
        simulator = CacheSimulator(policy, 8)
        assert not simulator.run_fused(self.pages(), 0)

    def test_ambient_tracer_keeps_the_kernel(self):
        traced = CacheSimulator(LRUKPolicy(k=2), 8)
        with obs_trace.activate(Tracer()):
            assert traced.run_fused(self.pages(), 0)
        assert traced.tier == "kernel"
        plain = CacheSimulator(LRUKPolicy(k=2), 8)
        assert plain.run_fused(self.pages(), 0)
        assert_identical(traced, plain)
        assert_lruk_state_identical(traced.policy, plain.policy)

    def test_observing_policy_bypasses(self):
        """A policy that reads every reference through observe() keeps
        the object path, where the hook is called once per reference."""

        class Recorder(LRUPolicy):
            def __init__(self):
                super().__init__()
                self.observed = []

            def observe(self, reference, now):
                self.observed.append((reference, now))

        policy = Recorder()
        simulator = measure_hit_ratio(policy, plain([1, 2, 1, 3, 2, 1]),
                                      2, 2)
        assert simulator.tier == "object"
        assert [now for _, now in policy.observed] == [1, 2, 3, 4, 5, 6]

    def test_non_fresh_simulator_bypasses(self):
        simulator = CacheSimulator(LRUKPolicy(k=2), 8)
        simulator.access_page(1)
        assert not simulator.run_fused(self.pages(), 0)

    def test_profiled_policy_offers_no_kernel(self):
        profiled = ProfiledPolicy(LRUKPolicy(k=2))
        assert profiled.make_kernel(8) is None
        simulator = CacheSimulator(profiled, 8)
        assert not simulator.run_fused(self.pages(), 0)


class TestTraceIsNotCopied:
    """Kernels walk a plain trace with one iterator and never slice it,
    so a run over 2 MB of page ids allocates only the policy's own
    bookkeeping. Slicing at the warm-up boundary would copy the whole
    trace on every run."""

    @pytest.fixture(scope="class")
    def trace(self):
        return CachedTrace.materialize(ZipfianWorkload(n=100), 1 << 18, 3)

    @pytest.mark.parametrize("name", sorted(KERNEL_POLICIES))
    def test_kernel_run_allocates_under_1mb(self, trace, name):
        policy = KERNEL_POLICIES[name]()
        tracemalloc.start()
        try:
            simulator = measure_hit_ratio(policy, trace, 50, len(trace) // 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert simulator.tier == "kernel"
        assert peak < 1 << 20


class TestWarmupValidation:
    @pytest.mark.parametrize("name", ["lru", "lruk"])
    def test_negative_warmup_is_a_configuration_error(self, name):
        policy = KERNEL_POLICIES[name]()
        simulator = CacheSimulator(policy, 3)
        with pytest.raises(ConfigurationError, match="warm-up"):
            simulator.run_fused([1, 2, 3, 4, 5], -2)
        assert simulator.now == 0 and simulator.tier == "object"
        assert not policy.resident_pages

    def test_warmup_past_the_trace_is_a_configuration_error(self):
        simulator = CacheSimulator(make_policy("lru"), 3)
        with pytest.raises(ConfigurationError, match="warm-up"):
            simulator.run_fused([1, 2, 3], 4)
        assert simulator.now == 0 and simulator.tier == "object"


class TestUnsupportedConfigurations:
    """Configurations the fused loop does not replicate yield no kernel."""

    @pytest.mark.parametrize("kwargs", [
        {"selection": "scan"},
        {"distinguish_processes": True},
        {"max_history_blocks": 64},
    ])
    def test_lruk_variants_offer_no_kernel(self, kwargs):
        assert LRUKPolicy(k=2, **kwargs).make_kernel(8) is None

    def test_policy_with_prior_residents_offers_no_kernel(self):
        policy = LRUKPolicy(k=2)
        simulator = CacheSimulator(policy, 8)
        simulator.access_page(1)
        assert policy.make_kernel(8) is None

    @pytest.mark.parametrize("name", ["mru", "clock", "gclock", "lfu-aged"])
    def test_base_policies_default_to_none(self, name):
        assert make_policy(name).make_kernel(8) is None
