"""MetricsServer endpoint + ResourceSampler behavior."""

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    EventDispatcher,
    MetricsRegistry,
    MetricsServer,
    ResourceSampler,
    RingBufferSink,
    parse_exposition,
)


def _get(url: str) -> "tuple[int, str, str]":
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return (response.status, response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"))


class TestMetricsServer:
    def test_construction_opens_no_socket(self):
        server = MetricsServer(MetricsRegistry())
        assert not server.running
        server.stop()  # idempotent on a never-started server

    def test_port_zero_binds_ephemeral(self):
        with MetricsServer(MetricsRegistry(), port=0) as server:
            assert server.running
            assert server.port > 0
            assert str(server.port) in server.url

    def test_invalid_port_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsServer(MetricsRegistry(), port=-1)
        with pytest.raises(ConfigurationError):
            MetricsServer(MetricsRegistry(), port=70000)

    def test_metrics_endpoint_serves_exposition(self):
        registry = MetricsRegistry()
        registry.counter("protocol.hits").inc(5)
        with MetricsServer(registry) as server:
            status, content_type, body = _get(server.url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert parse_exposition(body).value("protocol.hits") == 5

    def test_scrapes_see_live_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("protocol.hits")
        with MetricsServer(registry) as server:
            first = parse_exposition(_get(server.url + "/metrics")[2])
            counter.inc(3)
            second = parse_exposition(_get(server.url + "/metrics")[2])
        assert first.value("protocol.hits") == 0
        assert second.value("protocol.hits") == 3

    def test_healthz_payload(self):
        registry = MetricsRegistry()
        registry.counter("c")
        with MetricsServer(registry) as server:
            _get(server.url + "/metrics")
            status, content_type, body = _get(server.url + "/healthz")
        assert status == 200
        assert content_type.startswith("application/json")
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["scrapes"] == 1
        # "c" plus the telemetry.scrapes counter the scrape registered.
        assert health["metrics"] == 2
        assert health["uptime_seconds"] >= 0

    def test_unknown_path_is_404(self):
        with MetricsServer(MetricsRegistry()) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/nope")
            assert excinfo.value.code == 404

    def test_query_string_is_ignored(self):
        with MetricsServer(MetricsRegistry()) as server:
            status, _, _ = _get(server.url + "/metrics?format=text")
        assert status == 200

    def test_stop_releases_the_port(self):
        registry = MetricsRegistry()
        server = MetricsServer(registry)
        server.start()
        url = server.url
        server.stop()
        assert not server.running
        with pytest.raises((urllib.error.URLError, OSError)):
            urllib.request.urlopen(url + "/metrics", timeout=0.5)
        server.stop()  # idempotent

    def test_scrape_counts_scrapes_in_registry(self):
        registry = MetricsRegistry()
        server = MetricsServer(registry)
        server.scrape()
        server.scrape()
        assert server.scrapes == 2
        assert registry.snapshot().counters["telemetry.scrapes"] == 2


class TestResourceSampler:
    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourceSampler(MetricsRegistry(), interval=0.0)

    def test_sample_once_publishes_process_gauges(self):
        registry = MetricsRegistry()
        sampler = ResourceSampler(registry, interval=60.0)
        sampler.sample_once()
        snapshot = registry.snapshot()
        assert snapshot["process.cpu_seconds"] >= 0
        assert snapshot["process.threads"] >= 1
        assert "process.gc_gen0_pending" in snapshot
        assert "process.gc_gen2_collections" in snapshot
        assert snapshot["telemetry.samples"] == 1
        # Linux-only; this repo's CI and dev machines run Linux.
        assert snapshot.get("process.rss_bytes", 0) > 0

    def test_sampler_is_inert_until_started(self):
        registry = MetricsRegistry()
        ResourceSampler(registry, interval=60.0)
        assert registry.names() == []

    def test_thread_lifecycle_and_final_sample(self):
        registry = MetricsRegistry()
        sampler = ResourceSampler(registry, interval=60.0)
        with sampler:
            assert sampler.running
        assert not sampler.running
        # At least the immediate sample plus the stop() closing sample.
        assert registry.snapshot().counters["telemetry.samples"] >= 2
        sampler.stop()  # idempotent

    def test_dispatcher_sink_depths(self):
        dispatcher = EventDispatcher()
        ring = RingBufferSink(maxlen=8)
        dispatcher.attach(ring)
        registry = MetricsRegistry()
        sampler = ResourceSampler(registry, interval=60.0,
                                  dispatcher=dispatcher)
        sampler.sample_once()
        assert registry.snapshot()["obs.sink.RingBufferSink.depth"] == 0

    def test_custom_probes_and_dead_probe_tolerance(self):
        registry = MetricsRegistry()

        def boom() -> float:
            raise RuntimeError("torn down")

        sampler = ResourceSampler(registry, interval=60.0,
                                  probes={"sweep.progress": lambda: 0.5,
                                          "dead.probe": boom})
        sampler.add_probe("extra", lambda: 7.0)
        sampler.sample_once()
        snapshot = registry.snapshot()
        assert snapshot["sweep.progress"] == 0.5
        assert snapshot["extra"] == 7.0
        assert "dead.probe" not in snapshot
        assert snapshot["telemetry.samples"] == 1
