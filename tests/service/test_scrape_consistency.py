"""Scrapes beside concurrent service writers read one consistent snapshot.

A request records its ``service.*`` counters and latency observations in
one batch under the registry lock, and a scrape renders one snapshot
taken under the same lock, so an exposition never shows half a request.
"""

import threading
import urllib.request

import pytest

from repro.obs import MetricsServer, parse_exposition, render_exposition
from repro.obs.telemetry import _SAMPLE
from repro.service import ShardedBufferManager, run_load
from repro.service.sharded import LATENCY_BINS, LATENCY_HIGH_MS, LATENCY_LOW_MS
from repro.stats import StreamingMoments
from repro.workloads import ZipfianWorkload


class ParkedMoments(StreamingMoments):
    """Moments that record every value and can park one ``add`` call."""

    def __init__(self):
        super().__init__()
        self.values = []
        self.park = False
        self.parked = threading.Event()
        self.release = threading.Event()

    def add(self, value):
        self.values.append(value)
        if self.park:
            self.park = False
            self.parked.set()
            self.release.wait(timeout=30)
        super().add(value)


def test_scrape_waits_for_a_parked_request_batch():
    manager = ShardedBufferManager(capacity=8, shards=2)
    moments = ParkedMoments()
    latency = manager.registry.histogram(
        "service.request_ms", LATENCY_LOW_MS, LATENCY_HIGH_MS, LATENCY_BINS)
    latency._moments = moments
    for page in range(5):
        manager.fetch(page, "t")
        manager.unpin(page)

    def request():
        manager.fetch(99, "t")
        manager.unpin(99)

    # The writer parks after the histogram's bins counted its
    # observation and before the moments did.
    moments.park = True
    writer = threading.Thread(target=request)
    writer.start()
    assert moments.parked.wait(timeout=30)
    rendered = []
    scraper = threading.Thread(
        target=lambda: rendered.append(render_exposition(manager.registry)))
    scraper.start()
    scraper.join(timeout=0.5)
    returned_mid_batch = not scraper.is_alive()
    moments.release.set()
    writer.join(timeout=30)
    scraper.join(timeout=30)

    assert not returned_mid_batch
    series = parse_exposition(rendered[0]).histograms["service_request_ms"]
    assert series.buckets[-1] == (float("inf"), series.count)
    assert series.count == len(moments.values) == 6
    assert series.sum == pytest.approx(sum(moments.values), rel=1e-9)


def _parse_strictly(text):
    """Parse an exposition, failing on any line the parser would skip."""
    for line in text.splitlines():
        assert line.startswith("#") or _SAMPLE.match(line), line
    return parse_exposition(text)


def _histogram_count(exposition, name):
    series = exposition.histograms.get(name)
    return series.count if series is not None else 0


def test_scrapes_beside_eight_sessions_see_whole_requests():
    manager = ShardedBufferManager(capacity=256, shards=2)
    tenants = {"hot": ZipfianWorkload(n=300),
               "cold": ZipfianWorkload(n=3000)}
    texts = []
    stop = threading.Event()
    with MetricsServer(manager.registry) as server:
        def scrape_loop():
            while True:
                with urllib.request.urlopen(server.url + "/metrics",
                                            timeout=30) as response:
                    texts.append(response.read().decode("utf-8"))
                if stop.is_set():
                    return

        scrapers = [threading.Thread(target=scrape_loop) for _ in range(2)]
        for scraper in scrapers:
            scraper.start()
        try:
            run_load(manager, tenants, sessions=8, references=3000)
        finally:
            stop.set()
            for scraper in scrapers:
                scraper.join(timeout=30)
        assert server.scrapes == len(texts)
    assert manager.registry.snapshot()["telemetry.scrapes"] == len(texts)

    for text in texts:
        exposition = _parse_strictly(text)
        for series in exposition.histograms.values():
            counts = [count for _, count in series.buckets]
            assert counts == sorted(counts)
            assert series.buckets[-1] == (float("inf"), series.count)
        for prefix in ("service", "service_tenant_hot",
                       "service_tenant_cold"):
            requests = exposition.value(f"{prefix}_requests")
            answered = (exposition.value(f"{prefix}_hits")
                        + exposition.value(f"{prefix}_misses"))
            timed = _histogram_count(exposition, f"{prefix}_request_ms")
            assert requests == answered == timed, prefix
