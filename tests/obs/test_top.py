"""repro top: frame rendering, sources, and the polling loop."""

import io
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, parse_exposition, render_exposition
from repro.obs.telemetry import MetricsServer
from repro.obs.top import fetch_url, read_snapshot_file, render_frame, run_top


def _exposition(counters=None, gauges=None, runs=()):
    registry = MetricsRegistry()
    for name, value in (counters or {}).items():
        registry.counter(name).inc(value)
    for name, value in (gauges or {}).items():
        registry.set_gauge(name, value)
    if runs:
        histogram = registry.histogram("protocol.run_hit_ratio", 0.0, 1.0)
        for value in runs:
            histogram.observe(value)
    return parse_exposition(render_exposition(registry))


class TestRenderFrame:
    def test_empty_exposition_hints_at_the_problem(self):
        frame = render_frame(parse_exposition(""))
        assert "no samples yet" in frame

    def test_sweep_progress_bar(self):
        frame = render_frame(_exposition(
            gauges={"sweep.cells_total": 8, "sweep.cells_done": 2}))
        assert "2/8 cells" in frame and "25%" in frame

    def test_cumulative_fallback_without_a_previous_poll(self):
        frame = render_frame(_exposition(
            counters={"protocol.references": 1000, "protocol.hits": 250,
                      "protocol.misses": 750}))
        assert "rate needs two polls" in frame
        assert "0.2500 (cumulative)" in frame

    def test_rates_derive_from_successive_polls(self):
        previous = _exposition(
            counters={"protocol.references": 1000, "protocol.hits": 100,
                      "protocol.misses": 900})
        current = _exposition(
            counters={"protocol.references": 3000, "protocol.hits": 1100,
                      "protocol.misses": 1900})
        frame = render_frame(current, previous, elapsed=2.0)
        assert "1,000" in frame  # 2000 new refs / 2s
        assert "0.5000 (this poll)" in frame  # 1000 hits / 2000 refs

    def test_run_histogram_stats_and_sketch(self):
        frame = render_frame(_exposition(runs=(0.2, 0.4, 0.4, 0.6)))
        assert "runs 4" in frame
        assert "mean 0.4000" in frame
        assert "p50" in frame and "p95" in frame
        assert "▕" in frame  # the bucket-density strip

    def test_flat_snapshot_histogram_keys_also_work(self):
        exposition = parse_exposition("")
        exposition.samples = {"protocol.run_hit_ratio.count": 3.0,
                              "protocol.run_hit_ratio.mean": 0.5,
                              "protocol.run_hit_ratio.p50": 0.5,
                              "protocol.run_hit_ratio.p95": 0.6}
        frame = render_frame(exposition)
        assert "runs 3" in frame and "mean 0.5000" in frame

    def test_fault_counters_render_when_present(self):
        frame = render_frame(_exposition(
            counters={"sweep.cell.fallbacks": 2, "sweep.cell.failures": 1}))
        assert "fallbacks 2" in frame and "failures 1" in frame

    def test_faults_absent_when_unregistered(self):
        frame = render_frame(_exposition(
            counters={"protocol.references": 10}))
        assert "faults" not in frame

    def test_resource_gauges(self):
        frame = render_frame(_exposition(
            gauges={"process.rss_bytes": 512 * 1024 * 1024,
                    "process.cpu_seconds": 12.5,
                    "process.threads": 3,
                    "process.gc_gen2_collections": 4}))
        assert "512.0 MiB" in frame
        assert "cpu 12.5s" in frame
        assert "threads 3" in frame and "gc2 4" in frame

    def test_worker_provenance_line(self):
        registry, first, second = (MetricsRegistry() for _ in range(3))
        first.set_gauge("protocol.last_run_hit_ratio", 0.4)
        second.set_gauge("protocol.last_run_evictions", 9.0)
        registry.merge(first.snapshot(), worker="111")
        registry.merge(second.snapshot(), worker="222")
        exposition = parse_exposition(render_exposition(registry))
        frame = render_frame(exposition)
        assert "workers" in frame
        assert "111" in frame and "222" in frame

    def test_colorless_by_default_color_on_request(self):
        exposition = _exposition(counters={"sweep.cell.fallbacks": 1,
                                           "sweep.cell.failures": 0})
        assert "\x1b[" not in render_frame(exposition)
        assert "\x1b[31m" in render_frame(exposition, color=True)


class TestSources:
    def test_fetch_url_appends_metrics_path(self):
        registry = MetricsRegistry()
        registry.counter("protocol.hits").inc(4)
        with MetricsServer(registry) as server:
            bare = fetch_url(server.url)
            explicit = fetch_url(server.url + "/metrics")
        assert bare.value("protocol.hits") == 4
        assert explicit.value("protocol.hits") == 4

    def test_read_snapshot_file_uses_last_snapshot(self, tmp_path):
        path = tmp_path / "m.jsonl"
        records = [
            {"event": "access", "page": 1},
            {"event": "snapshot", "phase": "run",
             "counters": {"protocol.hits": 1.0}},
            {"event": "snapshot", "phase": "final",
             "counters": {"protocol.hits": 9.0, "label": "x"}},
        ]
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
            handle.write("{torn tail\n")
        exposition = read_snapshot_file(str(path))
        assert exposition.value("protocol.hits") == 9.0
        assert not exposition.has("label")  # non-numeric values dropped


class TestRunTop:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigurationError):
            run_top()
        with pytest.raises(ConfigurationError):
            run_top(url="http://x", file="y")
        with pytest.raises(ConfigurationError):
            run_top(url="http://x", interval=0.0)

    def test_once_against_a_live_server(self):
        registry = MetricsRegistry()
        registry.counter("protocol.references").inc(123)
        out = io.StringIO()
        with MetricsServer(registry) as server:
            code = run_top(url=server.url, once=True, stream=out)
        assert code == 0
        text = out.getvalue()
        assert "123" in text
        assert "\x1b[" not in text  # --once never paints

    def test_once_against_a_snapshot_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"event": "snapshot",
                 "counters": {"protocol.hits": 5.0,
                              "protocol.misses": 5.0}}) + "\n")
        out = io.StringIO()
        assert run_top(file=str(path), once=True, stream=out) == 0
        assert "0.5000 (cumulative)" in out.getvalue()

    def test_unreachable_endpoint_exits_one(self):
        out = io.StringIO()
        code = run_top(url="http://127.0.0.1:9/metrics", once=True,
                       stream=out)
        assert code == 1
        assert "cannot read" in out.getvalue()

    def test_endpoint_disappearing_after_success_is_clean_exit(self):
        registry = MetricsRegistry()
        registry.counter("protocol.hits").inc(1)
        server = MetricsServer(registry)
        server.start()
        url = server.url
        out = io.StringIO()
        # Two frames requested, but the server dies after the first
        # poll — a finished sweep must read as success, not failure.
        original_sleep_over = {"stopped": False}

        code = None
        import threading

        def stop_soon():
            server.stop()
            original_sleep_over["stopped"] = True

        timer = threading.Timer(0.2, stop_soon)
        timer.start()
        try:
            code = run_top(url=url, frames=5, interval=0.1, stream=out)
        finally:
            timer.cancel()
            server.stop()
        assert code == 0
        assert "endpoint gone" in out.getvalue()

    def test_frames_mode_renders_and_stops(self):
        registry = MetricsRegistry()
        registry.counter("protocol.references").inc(7)
        out = io.StringIO()
        with MetricsServer(registry) as server:
            code = run_top(url=server.url, frames=2, interval=0.01,
                           stream=out)
        assert code == 0
        assert out.getvalue().count("repro top") == 2


class TestServiceRows:
    @staticmethod
    def _service_exposition(requests=100, hits=60, misses=40,
                            latencies=(), tenants=()):
        registry = MetricsRegistry()
        registry.counter("service.requests").inc(requests)
        registry.counter("service.hits").inc(hits)
        registry.counter("service.misses").inc(misses)
        if latencies:
            histogram = registry.histogram("service.request_ms",
                                           0.0, 5.0, 500)
            for value in latencies:
                histogram.observe(value)
        for tenant, tenant_hits, tenant_misses in tenants:
            registry.counter(f"service.tenant.{tenant}.hits").inc(
                tenant_hits)
            registry.counter(f"service.tenant.{tenant}.misses").inc(
                tenant_misses)
        return parse_exposition(render_exposition(registry))

    def test_absent_without_service_counters(self):
        frame = render_frame(_exposition(
            counters={"protocol.references": 10}))
        assert "svc hits" not in frame

    def test_cumulative_service_section(self):
        frame = render_frame(self._service_exposition())
        assert "service" in frame
        assert "0.6000 (cumulative)" in frame

    def test_request_rate_from_successive_polls(self):
        previous = self._service_exposition(requests=100)
        current = self._service_exposition(requests=300)
        frame = render_frame(current, previous, elapsed=2.0)
        assert "100 req/s" in frame  # 200 new requests / 2s

    def test_latency_quantiles_from_scraped_histogram(self):
        frame = render_frame(self._service_exposition(
            latencies=[0.01] * 99 + [2.0]))
        assert "svc ms" in frame
        assert "p50" in frame and "p999" in frame

    def test_latency_from_flat_snapshot_keys(self):
        exposition = self._service_exposition()
        exposition.samples.update({"service.request_ms.count": 4.0,
                                   "service.request_ms.p50": 0.01,
                                   "service.request_ms.p99": 0.5})
        frame = render_frame(exposition)
        assert "svc ms" in frame and "p99 0.500" in frame

    def test_per_tenant_rows_sorted(self):
        frame = render_frame(self._service_exposition(
            tenants=[("beta", 30, 10), ("alpha", 10, 30)]))
        assert "tenant alpha" in frame and "tenant beta" in frame
        assert frame.index("tenant alpha") < frame.index("tenant beta")
        assert "0.2500 (40 reqs)" in frame
        assert "0.7500 (40 reqs)" in frame

    def test_tenant_rows_parse_both_name_spellings(self):
        from repro.obs.top import _tenant_rows
        scraped = self._service_exposition(tenants=[("a", 5, 5)])
        assert _tenant_rows(scraped) == [("a", 5.0, 5.0)]
        flat = parse_exposition("")
        flat.samples = {"service.tenant.a.hits": 7.0,
                        "service.tenant.a.misses": 3.0}
        assert _tenant_rows(flat) == [("a", 7.0, 3.0)]
