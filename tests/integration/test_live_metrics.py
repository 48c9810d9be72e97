"""End-to-end: scrape /metrics while a --jobs sweep is actually running."""

import threading
import urllib.request

import pytest

from repro.obs import (
    EventDispatcher,
    MetricsRegistry,
    MetricsServer,
    ProgressEvent,
    ResourceSampler,
    Sink,
    parse_exposition,
)
from repro.sim import PolicySpec, fork_available, sweep_buffer_sizes
from repro.workloads import ZipfianWorkload


def _scrape(url):
    with urllib.request.urlopen(url + "/metrics", timeout=5.0) as response:
        return response.read().decode("utf-8")


class _ParkAtFirstCell(Sink):
    """Parks the sweep thread at its first progress line until the test
    has scraped. The parent narrates a pooled cell after merging that
    cell's worker snapshot, so the scrape sees worker state mid-sweep.
    A run-level sink, so the runs keep their tiers."""

    takes_references = False

    def __init__(self):
        self.parked = threading.Event()
        self.scraped = threading.Event()

    def handle(self, event, context):
        if isinstance(event, ProgressEvent) and not self.parked.is_set():
            self.parked.set()
            self.scraped.wait(timeout=60.0)


@pytest.mark.skipif(not fork_available(),
                    reason="live relay needs the fork engine")
class TestLiveScrape:
    def test_mid_sweep_exposition_carries_worker_state(self):
        dispatcher = EventDispatcher()
        dispatcher.metrics = MetricsRegistry()
        gate = dispatcher.attach(_ParkAtFirstCell())
        workload = ZipfianWorkload(n=100)
        specs = [PolicySpec.lru(), PolicySpec.lruk(2)]
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
                gate.parked.set()  # a sweep that failed early parks nowhere

        with MetricsServer(dispatcher.metrics) as server, \
                ResourceSampler(dispatcher.metrics, interval=0.05,
                                dispatcher=dispatcher):
            worker = threading.Thread(target=sweep)
            worker.start()
            try:
                # The sweep parks once its first completed cell has
                # relayed its counters and histogram bins: a scrape
                # taken now is strictly mid-sweep.
                live = None
                if gate.parked.wait(timeout=60.0) and not failure:
                    live = parse_exposition(_scrape(server.url))
            finally:
                gate.scraped.set()
                worker.join(timeout=120.0)
            final = parse_exposition(_scrape(server.url))

        assert not failure, failure
        assert live is not None, "no mid-sweep scrape saw worker state"

        # Worker-relayed protocol counters were visible mid-flight...
        assert live.value("sweep.cells_done") == 1.0
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
