"""Registry totality fixes: empty-histogram percentiles, histogram
re-registration."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import EventDispatcher, MetricsRegistry


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


class TestDispatcherMetricsSlot:
    def test_dispatcher_carries_optional_registry(self):
        dispatcher = EventDispatcher()
        assert dispatcher.metrics is None
        dispatcher.metrics = MetricsRegistry()
        dispatcher.metrics.counter("x").inc()
        assert dispatcher.metrics.snapshot().counters == {"x": 1}


class TestHistogramRelay:
    def test_histogram_get_or_fetch_same_binning(self):
        registry = MetricsRegistry()
        first = registry.histogram("latency", low=0.0, high=10.0)
        assert registry.histogram("latency", low=0.0, high=10.0) is first

    def test_histogram_rebinning_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("latency", low=0.0, high=10.0)
        with pytest.raises(ConfigurationError):
            registry.histogram("latency", low=0.0, high=20.0)

    def test_gauges_are_not_relayed(self):
        worker = MetricsRegistry()
        worker.gauge("live", lambda: 42.0)
        snapshot = worker.snapshot()
        assert snapshot.histograms == {}
        assert snapshot.counters == {}
