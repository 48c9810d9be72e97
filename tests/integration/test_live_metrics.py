"""End-to-end: scrape /metrics while a --jobs sweep is actually running."""

import threading
import time
import urllib.request

import pytest

from repro.obs import (
    EventDispatcher,
    MetricsRegistry,
    MetricsServer,
    ResourceSampler,
    parse_exposition,
)
from repro.sim import PolicySpec, fork_available, sweep_buffer_sizes
from repro.workloads import ZipfianWorkload


def _scrape(url):
    with urllib.request.urlopen(url + "/metrics", timeout=5.0) as response:
        return response.read().decode("utf-8")


@pytest.mark.skipif(not fork_available(),
                    reason="live relay needs the fork engine")
class TestLiveScrape:
    def test_mid_sweep_exposition_carries_worker_state(self):
        dispatcher = EventDispatcher()
        dispatcher.metrics = MetricsRegistry()
        workload = ZipfianWorkload(n=100)
        specs = [PolicySpec.lru(), PolicySpec.lruk(2)]
        done = threading.Event()
        failure = []

        def sweep():
            try:
                sweep_buffer_sizes(
                    workload, specs, [8, 12, 16, 24, 32, 48], warmup=2000,
                    measured=8000, seed=11, repetitions=2, jobs=2,
                    observability=dispatcher)
            except Exception as exc:  # surfaced after join
                failure.append(exc)
            finally:
                done.set()

        with MetricsServer(dispatcher.metrics) as server, \
                ResourceSampler(dispatcher.metrics, interval=0.05,
                                dispatcher=dispatcher):
            worker = threading.Thread(target=sweep)
            worker.start()
            try:
                # Poll the live endpoint until the first completed cell
                # has relayed its counters and histogram bins — i.e. a
                # scrape taken strictly mid-sweep.
                live = None
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline and not done.is_set():
                    text = _scrape(server.url)
                    exposition = parse_exposition(text)
                    if exposition.histograms.get(
                            "protocol_run_hit_ratio") is not None:
                        live = exposition
                        break
                    time.sleep(0.02)
            finally:
                worker.join(timeout=120.0)
            final = parse_exposition(_scrape(server.url))

        assert not failure, failure
        assert live is not None, "no mid-sweep scrape saw worker state"

        # Worker-relayed protocol counters were visible mid-flight...
        assert live.value("protocol.references") > 0
        assert live.value("protocol.hits") + live.value(
            "protocol.misses") > 0
        # ... with well-formed cumulative run_hit_ratio buckets ...
        series = live.histograms["protocol_run_hit_ratio"]
        assert series.count > 0
        cumulative = [count for _, count in series.buckets]
        assert cumulative == sorted(cumulative)
        assert series.buckets[-1][0] == float("inf")
        assert series.buckets[-1][1] == series.count
        # ... alongside the sweep's failure counters (present at zero in
        # a healthy sweep, not absent) ...
        for name in ("sweep.cell.fallbacks", "sweep.cell.failures"):
            assert live.has(name), name
            assert live.value(name) == 0.0
        # ... and grid-progress gauges tracking completion (repetitions
        # run inside a cell: 6 capacities x 2 policies = 12 cells).
        assert live.value("sweep.cells_total") == 12.0
        assert live.types["sweep_cells_total"] == "gauge"
        assert live.types["protocol_hits"] == "counter"
        assert live.types["protocol_run_hit_ratio"] == "histogram"

        # The resource sampler fed the same exposition.
        assert live.value("telemetry.samples") > 0
        assert live.value("process.cpu_seconds") > 0

        # After the sweep drains, the final scrape accounts every cell
        # and every run (2 repetitions per cell).
        assert final.value("sweep.cells_done") == 12.0
        assert final.histograms["protocol_run_hit_ratio"].count == 24
        workers = {labels["worker"]
                   for name, labels in final.labels.items()
                   if "worker" in labels}
        assert workers, "no worker-relayed gauges in the final scrape"
