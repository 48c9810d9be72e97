"""Registry totality fixes: empty-histogram percentiles, snapshot merging."""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.obs import EventDispatcher, MetricsRegistry, RegistrySnapshot


class TestEmptyHistogramPercentiles:
    def test_quantile_of_empty_histogram_is_none(self):
        # Regression: an empty histogram used to report its binning
        # range's lower bound as every percentile — a configuration
        # artifact masquerading as an observation.
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", low=5.0, high=100.0)
        assert histogram.quantile(0.5) is None
        assert histogram.quantile(0.99) is None

    def test_registry_percentile_is_total(self):
        registry = MetricsRegistry()
        registry.histogram("latency", low=0.0, high=10.0)
        assert registry.percentile("latency", 0.5) is None  # empty
        assert registry.percentile("no-such-metric", 0.5) is None

    def test_percentiles_appear_once_observed(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", low=0.0, high=10.0)
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        quantile = registry.percentile("latency", 0.5)
        assert quantile is not None
        assert 0.0 < quantile < 10.0

    def test_empty_summary_omits_percentile_keys(self):
        registry = MetricsRegistry()
        registry.histogram("latency", low=5.0, high=100.0)
        snapshot = registry.snapshot()
        assert snapshot["latency.count"] == 0.0
        assert "latency.p50" not in snapshot
        assert "latency.p95" not in snapshot

    def test_populated_summary_keeps_percentile_keys(self):
        registry = MetricsRegistry()
        registry.histogram("latency", low=0.0, high=10.0).observe(4.0)
        snapshot = registry.snapshot()
        assert "latency.p50" in snapshot and "latency.p99" in snapshot


class TestCounterMerge:
    def test_merge_counters_sums_worker_deltas(self):
        parent = MetricsRegistry()
        parent.counter("protocol.hits").inc(10)
        worker_a = MetricsRegistry()
        worker_a.counter("protocol.hits").inc(5)
        worker_a.counter("protocol.misses").inc(2)
        worker_b = MetricsRegistry()
        worker_b.counter("protocol.hits").inc(1)
        parent.merge(worker_a.snapshot())
        parent.merge(worker_b.snapshot())
        assert parent.snapshot().counters == {"protocol.hits": 16,
                                              "protocol.misses": 2}

    def test_merge_is_order_independent(self):
        deltas = [{"a": 1, "b": 2}, {"a": 3}, {"b": 4}]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for delta in deltas:
            forward.merge(RegistrySnapshot(counters=delta))
        for delta in reversed(deltas):
            backward.merge(RegistrySnapshot(counters=delta))
        assert forward.snapshot().counters == backward.snapshot().counters

    def test_merge_rejects_negative_deltas(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.merge(RegistrySnapshot(counters={"x": -1}))


class TestDispatcherMetricsSlot:
    def test_dispatcher_carries_optional_registry(self):
        dispatcher = EventDispatcher()
        assert dispatcher.metrics is None
        dispatcher.metrics = MetricsRegistry()
        dispatcher.metrics.counter("x").inc()
        assert dispatcher.metrics.snapshot().counters == {"x": 1}


class TestHistogramRelay:
    def _observed(self, registry, name, values):
        histogram = registry.histogram(name, low=0.0, high=10.0, bins=20)
        for value in values:
            histogram.observe(value)
        return histogram

    def test_histogram_get_or_fetch_same_binning(self):
        registry = MetricsRegistry()
        first = registry.histogram("latency", low=0.0, high=10.0)
        assert registry.histogram("latency", low=0.0, high=10.0) is first

    def test_histogram_rebinning_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("latency", low=0.0, high=10.0)
        with pytest.raises(ConfigurationError):
            registry.histogram("latency", low=0.0, high=20.0)

    def test_merge_histograms_sums_worker_state(self):
        parent, worker_a, worker_b = (MetricsRegistry() for _ in range(3))
        self._observed(worker_a, "latency", [1.0, 2.0, 3.0])
        self._observed(worker_b, "latency", [4.0, 5.0])
        parent.merge(worker_a.snapshot())
        parent.merge(worker_b.snapshot())
        merged = parent.histogram("latency", low=0.0, high=10.0, bins=20)
        assert merged.count == 5
        assert merged.mean == pytest.approx(3.0)
        # Bin counts merge exactly, so quantiles equal a sequential fold.
        sequential = MetricsRegistry()
        self._observed(sequential, "latency", [1.0, 2.0, 3.0, 4.0, 5.0])
        for q in (0.5, 0.95, 0.99):
            assert merged.quantile(q) == \
                sequential.histogram("latency", 0.0, 10.0, 20).quantile(q)

    def test_merge_into_populated_parent(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        self._observed(parent, "latency", [1.0])
        self._observed(worker, "latency", [9.0])
        parent.merge(worker.snapshot())
        merged = parent.histogram("latency", low=0.0, high=10.0, bins=20)
        assert merged.count == 2
        assert merged.mean == pytest.approx(5.0)

    def test_merge_rejects_binning_mismatch(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.histogram("latency", low=0.0, high=10.0, bins=20)
        worker.histogram("latency", low=0.0, high=10.0, bins=40)
        with pytest.raises(ConfigurationError):
            parent.merge(worker.snapshot())

    def test_snapshot_survives_pickle_round_trip(self):
        # Sweep workers relay their snapshot over the pickle result
        # channel.
        worker, parent = MetricsRegistry(), MetricsRegistry()
        self._observed(worker, "latency", [2.5, 7.5])
        relayed = pickle.loads(pickle.dumps(worker.snapshot()))
        parent.merge(relayed)
        assert parent.histogram("latency", 0.0, 10.0, 20).count == 2

    def test_gauges_are_not_relayed(self):
        worker = MetricsRegistry()
        worker.gauge("live", lambda: 42.0)
        snapshot = worker.snapshot()
        assert snapshot.histograms == {}
        assert snapshot.counters == {}
