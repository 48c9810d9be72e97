"""Cross-process tracing and metrics relay under the parallel sweep.

The acceptance bar for the span-relay design: a sweep run with
``jobs=4`` and an active tracer must export Chrome trace-event JSON in
which worker-recorded ``simulate`` spans sit under parent-side ``cell``
envelopes, and a worker-metered sweep must merge counter deltas into the
parent registry so serial and parallel totals are identical.
"""

import json

import pytest

from repro.obs import EventDispatcher, MetricsRegistry, Tracer
from repro.obs import runtime as obs_runtime
from repro.obs import trace as obs_trace
from repro.obs.trace import write_chrome_trace
from repro.sim import PolicySpec, fork_available, sweep_buffer_sizes
from repro.workloads import ZipfianWorkload

CAPACITIES = [16, 32]
SPECS = [PolicySpec.lru(), PolicySpec.lruk(2)]


def _sweep(jobs, tracer=None, metrics=None):
    workload = ZipfianWorkload(n=250)
    dispatcher = EventDispatcher()
    dispatcher.metrics = metrics
    with obs_runtime.activate(dispatcher):
        if tracer is not None:
            with obs_trace.activate(tracer):
                return sweep_buffer_sizes(
                    workload, SPECS, CAPACITIES,
                    warmup=400, measured=1200, seed=5, jobs=jobs)
        return sweep_buffer_sizes(
            workload, SPECS, CAPACITIES,
            warmup=400, measured=1200, seed=5, jobs=jobs)


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestParallelTraceRelay:
    def test_worker_spans_reparent_under_cells(self, tmp_path):
        tracer = Tracer()
        _sweep(jobs=4, tracer=tracer)

        sweep_spans = tracer.find("sweep")
        assert len(sweep_spans) == 1
        cells = tracer.find("cell")
        assert len(cells) == len(CAPACITIES) * len(SPECS)
        assert all(cell.parent_id == sweep_spans[0].span_id
                   for cell in cells)

        cell_ids = {cell.span_id for cell in cells}
        simulates = tracer.find("simulate")
        assert len(simulates) == len(cells)
        assert all(span.parent_id in cell_ids for span in simulates)
        # The relayed spans really were recorded in other processes.
        parent_pid = sweep_spans[0].pid
        assert {span.pid for span in simulates} != {parent_pid}

    def test_chrome_export_is_valid_and_loadable(self, tmp_path):
        tracer = Tracer()
        _sweep(jobs=4, tracer=tracer)
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), tracer)
        trace = json.loads(path.read_text())
        assert "traceEvents" in trace
        events = trace["traceEvents"]
        spans = [event for event in events if event["ph"] == "X"]
        assert {"sweep", "cell", "simulate", "warmup",
                "measure"} <= {event["name"] for event in spans}
        for event in spans:
            assert isinstance(event["ts"], int) and event["ts"] >= 0
            assert isinstance(event["dur"], int)
        # One metadata track per process: the parent plus >=1 worker.
        labels = {event["args"]["name"] for event in events
                  if event["ph"] == "M"}
        assert "sweep parent" in labels
        assert any(label.startswith("worker-") for label in labels)

    def test_results_identical_with_and_without_tracing(self):
        traced = _sweep(jobs=4, tracer=Tracer())
        plain = _sweep(jobs=4)
        assert [cell.results for cell in traced] == \
            [cell.results for cell in plain]


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestParallelMetricsMerge:
    def test_worker_counter_deltas_match_serial_totals(self):
        serial = MetricsRegistry()
        _sweep(jobs=1, metrics=serial)
        parallel = MetricsRegistry()
        _sweep(jobs=4, metrics=parallel)
        serial_counts = serial.snapshot().counters
        assert serial_counts["protocol.runs"] == \
            len(CAPACITIES) * len(SPECS)
        # Regression: forked workers used to drop their deltas silently,
        # leaving the parallel totals at zero.
        assert parallel.snapshot().counters == serial_counts
