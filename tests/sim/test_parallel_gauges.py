"""Run and progress gauges a sweep publishes into its registry."""

from repro.obs import EventDispatcher, MetricsRegistry
from repro.sim import PolicySpec, sweep_buffer_sizes
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


class TestGaugeRelay:
    def test_serial_sweep_publishes_run_gauges(self):
        registry = _sweep(jobs=1)
        snapshot = registry.snapshot()
        assert 0.0 <= snapshot["protocol.last_run_hit_ratio"] <= 1.0
        assert snapshot["protocol.last_run_evictions"] >= 0.0
        assert snapshot["sweep.cells_total"] == 4.0
        assert snapshot["sweep.cells_done"] == 4.0
