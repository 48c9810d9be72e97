"""Tests for the cache simulator and the measurement protocol."""

import pytest

from repro.errors import ConfigurationError
from repro.policies import LRUPolicy
from repro.sim import CacheSimulator, PolicySpec, measure_hit_ratio
from repro.sim.runner import RunContext, run_paper_protocol
from repro.types import AccessKind, Reference
from repro.workloads import TwoPoolWorkload


class TestCacheSimulator:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            CacheSimulator(LRUPolicy(), capacity=0)

    def test_outcome_reports_eviction(self):
        simulator = CacheSimulator(LRUPolicy(), capacity=1)
        simulator.access(1)
        outcome = simulator.access(2)
        assert outcome.evicted == 1
        assert not outcome.hit
        assert outcome.time == 2

    def test_write_marks_dirty_and_counts_writeback(self):
        simulator = CacheSimulator(LRUPolicy(), capacity=1)
        simulator.access(Reference(page=1, kind=AccessKind.WRITE))
        assert simulator.is_dirty(1)
        outcome = simulator.access(2)
        assert outcome.evicted_dirty
        assert simulator.writebacks == 1

    def test_read_hit_keeps_dirty_state(self):
        simulator = CacheSimulator(LRUPolicy(), capacity=2)
        simulator.access(Reference(page=1, kind=AccessKind.WRITE))
        simulator.access(Reference(page=1, kind=AccessKind.READ))
        assert simulator.is_dirty(1)

    def test_run_consumes_iterable(self):
        simulator = CacheSimulator(LRUPolicy(), capacity=2)
        counter = simulator.run([1, 2, 1, 2])
        assert counter.hit_ratio == 0.5

    def test_clock_matches_reference_count(self):
        simulator = CacheSimulator(LRUPolicy(), capacity=2)
        simulator.run([5, 6, 7])
        assert simulator.now == 3


class TestMeasureHitRatio:
    def test_warmup_excluded_from_measurement(self):
        refs = [Reference(page=p) for p in [1, 2, 1, 2, 1, 2]]
        simulator = measure_hit_ratio(LRUPolicy(), refs, capacity=2,
                                      warmup=2)
        assert simulator.hit_ratio == 1.0
        assert simulator.warmup_counter.hit_ratio == 0.0

    def test_warmup_must_leave_measurement_window(self):
        refs = [Reference(page=1)]
        with pytest.raises(ConfigurationError):
            measure_hit_ratio(LRUPolicy(), refs, capacity=1, warmup=1)


class TestPolicySpec:
    def test_registry_spec_builds(self):
        spec = PolicySpec.registry("LRU-1", "lru")
        policy = spec.build(RunContext(capacity=4))
        assert type(policy).__name__ == "LRUPolicy"

    def test_lruk_spec_label_and_params(self):
        spec = PolicySpec.lruk(3, correlated_reference_period=5)
        assert spec.label == "LRU-3"
        policy = spec.build(RunContext(capacity=4))
        assert policy.k == 3
        assert policy.crp == 5

    def test_a0_needs_workload(self):
        spec = PolicySpec.a0()
        with pytest.raises(ConfigurationError):
            spec.build(RunContext(capacity=4))

    def test_opt_needs_trace(self):
        spec = PolicySpec.opt()
        with pytest.raises(ConfigurationError):
            spec.build(RunContext(capacity=4))

    def test_capacity_aware_spec(self):
        spec = PolicySpec.capacity_aware("2Q", "2q")
        policy = spec.build(RunContext(capacity=32))
        assert policy.capacity == 32


class TestRunPaperProtocol:
    def test_repetitions_average(self):
        workload = TwoPoolWorkload(n1=10, n2=100)
        result = run_paper_protocol(workload, PolicySpec.lru(), capacity=20,
                                    warmup=200, measured=800, seed=0,
                                    repetitions=3)
        assert len(result.runs) == 3
        assert result.interval.count == 3
        assert 0.0 < result.hit_ratio < 1.0
        seeds = {run.seed for run in result.runs}
        assert len(seeds) == 3

    def test_deterministic_given_seed(self):
        workload = TwoPoolWorkload(n1=10, n2=100)
        a = run_paper_protocol(workload, PolicySpec.lru(), 20, 200, 800,
                               seed=5)
        b = run_paper_protocol(workload, PolicySpec.lru(), 20, 200, 800,
                               seed=5)
        assert a.hit_ratio == b.hit_ratio

    def test_oracle_specs_run(self):
        workload = TwoPoolWorkload(n1=10, n2=100)
        a0 = run_paper_protocol(workload, PolicySpec.a0(), 20, 200, 800)
        opt = run_paper_protocol(workload, PolicySpec.opt(), 20, 200, 800)
        lru = run_paper_protocol(workload, PolicySpec.lru(), 20, 200, 800)
        # Oracles dominate LRU on this workload.
        assert a0.hit_ratio >= lru.hit_ratio - 0.02
        assert opt.hit_ratio >= a0.hit_ratio - 0.02

    def test_rejects_zero_repetitions(self):
        workload = TwoPoolWorkload(n1=10, n2=100)
        with pytest.raises(ConfigurationError):
            run_paper_protocol(workload, PolicySpec.lru(), 20, 10, 10,
                               repetitions=0)
