"""Gauge relay from forked sweep workers: serial == --jobs N visibility."""

import os

import pytest

from repro.obs import EventDispatcher, MetricsRegistry
from repro.sim import PolicySpec, fork_available, sweep_buffer_sizes
from repro.workloads import ZipfianWorkload

SPECS = [PolicySpec.lru(), PolicySpec.lruk(2)]


def _sweep(jobs):
    dispatcher = EventDispatcher()
    dispatcher.metrics = MetricsRegistry()
    workload = ZipfianWorkload(n=100)
    sweep_buffer_sizes(workload, SPECS, [8, 16], warmup=500,
                       measured=1500, seed=3, repetitions=1, jobs=jobs,
                       observability=dispatcher)
    return dispatcher.metrics


def _gauge_values(registry):
    """The registry's set (non-callable) gauges, as relayed."""
    return {name: gauge.value
            for name, gauge in registry.snapshot().gauges.items()
            if not gauge.live}


class TestGaugeRelay:
    def test_registry_gauge_values_excludes_callable_gauges(self):
        worker, parent = MetricsRegistry(), MetricsRegistry()
        worker.set_gauge("plain", 4.0)
        worker.gauge("live", lambda: 9.0)
        parent.merge(worker.snapshot(), worker="100")
        assert _gauge_values(parent) == {"plain": 4.0}

    def test_merge_is_last_write_wins_with_provenance(self):
        registry = MetricsRegistry()
        for value, worker in ((1.0, "100"), (2.0, "200")):
            cell = MetricsRegistry()
            cell.set_gauge("g", value)
            registry.merge(cell.snapshot(), worker=worker)
        snapshot = registry.snapshot()
        assert snapshot["g"] == 2.0
        assert snapshot.gauges["g"].worker == "200"
        assert "unknown" not in snapshot.gauges

    def test_merge_never_overwrites_a_live_parent_gauge(self):
        registry, cell = MetricsRegistry(), MetricsRegistry()
        registry.gauge("live", lambda: 42.0)
        cell.set_gauge("live", 0.0)
        registry.merge(cell.snapshot(), worker="100")
        snapshot = registry.snapshot()
        assert snapshot["live"] == 42.0
        assert snapshot.gauges["live"].worker is None

    def test_serial_sweep_publishes_run_gauges(self):
        registry = _sweep(jobs=1)
        snapshot = registry.snapshot()
        assert 0.0 <= snapshot["protocol.last_run_hit_ratio"] <= 1.0
        assert snapshot["protocol.last_run_evictions"] >= 0.0
        assert snapshot["sweep.cells_total"] == 4.0
        assert snapshot["sweep.cells_done"] == 4.0

    @pytest.mark.skipif(not fork_available(),
                        reason="parallel engine needs fork")
    def test_worker_gauges_visible_under_jobs(self):
        """Satellite acceptance: the same gauge names are visible after a
        serial and a --jobs 2 sweep, with worker provenance attached."""
        serial = _sweep(jobs=1)
        fanned = _sweep(jobs=2)
        serial_gauges = set(_gauge_values(serial))
        fanned_gauges = set(_gauge_values(fanned))
        assert serial_gauges == fanned_gauges
        assert "protocol.last_run_hit_ratio" in fanned_gauges

        # Relayed values carry which worker pid last wrote them; the
        # parent never relays to itself.
        source = fanned.snapshot().gauges[
            "protocol.last_run_hit_ratio"].worker
        assert source is not None and source.isdigit()
        assert int(source) != os.getpid()
        assert serial.snapshot().gauges[
            "protocol.last_run_hit_ratio"].worker is None

        # Last-write-wins still lands a real measurement, and progress
        # gauges total up identically.
        value = fanned.snapshot()["protocol.last_run_hit_ratio"]
        assert 0.0 <= value <= 1.0
        assert fanned.snapshot()["sweep.cells_done"] == \
            serial.snapshot()["sweep.cells_done"]
