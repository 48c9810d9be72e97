"""Span tracing: hierarchy, relay/absorb, Chrome export, ambient slot."""

import json

import pytest

from repro.obs import Span, Tracer, write_chrome_trace
from repro.obs import trace as obs_trace


class TestSpanRecording:
    def test_nesting_follows_with_blocks(self):
        tracer = Tracer()
        with tracer.span("sweep") as outer:
            with tracer.span("cell") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Completed in close order: inner first.
        assert [span.name for span in tracer.spans] == ["cell", "sweep"]

    def test_span_measures_wall_and_cpu_time(self):
        tracer = Tracer()
        with tracer.span("work"):
            sum(range(10_000))
        span = tracer.spans[0]
        assert span.duration_us >= 0
        assert span.cpu_us >= 0
        assert span.end_us == span.start_us + span.duration_us

    def test_span_args_are_live_while_open(self):
        tracer = Tracer()
        with tracer.span("cell", capacity=10) as span:
            span.args["hit_ratio"] = 0.5
        assert tracer.spans[0].args == {"capacity": 10, "hit_ratio": 0.5}

    def test_record_parents_under_open_span(self):
        tracer = Tracer()
        with tracer.span("simulate") as parent:
            synthetic = tracer.record("policy-hook", start_us=parent.start_us,
                                      duration_us=5, calls=3)
        assert synthetic.parent_id == parent.span_id
        assert synthetic.args["calls"] == 3

    def test_ids_are_unique(self):
        tracer = Tracer()
        for _ in range(5):
            with tracer.span("x"):
                pass
        ids = [span.span_id for span in tracer.spans]
        assert len(set(ids)) == len(ids)

    def test_find_and_children_of(self):
        tracer = Tracer()
        with tracer.span("sweep") as sweep:
            with tracer.span("cell"):
                pass
            with tracer.span("cell"):
                pass
        assert len(tracer.find("cell")) == 2
        assert len(tracer.children_of(sweep.span_id)) == 2


class TestSerializeAbsorb:
    def _worker_payload(self):
        worker = Tracer()
        with worker.span("simulate", policy="LRU-2"):
            with worker.span("warmup"):
                pass
            with worker.span("measure"):
                pass
        return worker.serialize()

    def test_roundtrip_through_dicts(self):
        payload = self._worker_payload()
        for record in payload:
            clone = Span.from_dict(record)
            assert clone.to_dict() == record

    def test_absorb_reparents_worker_roots_under_cell(self):
        payload = self._worker_payload()
        parent = Tracer()
        with parent.span("sweep"):
            cell = parent.record("cell", start_us=0, duration_us=1)
            adopted = parent.absorb(payload, parent_id=cell.span_id)
        roots = [span for span in adopted if span.name == "simulate"]
        assert len(roots) == 1
        assert roots[0].parent_id == cell.span_id

    def test_absorb_renumbers_but_preserves_internal_links(self):
        payload = self._worker_payload()
        parent = Tracer()
        with parent.span("occupies-id-1"):
            pass
        adopted = parent.absorb(payload)
        by_name = {span.name: span for span in adopted}
        assert (by_name["warmup"].parent_id
                == by_name["simulate"].span_id)
        assert (by_name["measure"].parent_id
                == by_name["simulate"].span_id)
        # No collision with the parent's own ids.
        parent_ids = {span.span_id for span in parent.spans}
        assert len(parent_ids) == len(parent.spans)

    def test_absorb_keeps_worker_pid(self):
        payload = self._worker_payload()
        for record in payload:
            record["pid"] = 99999  # pretend another process recorded it
        parent = Tracer()
        adopted = parent.absorb(payload)
        assert all(span.pid == 99999 for span in adopted)


class TestChromeExport:
    def test_export_shape(self, tmp_path):
        tracer = Tracer()
        with tracer.span("sweep"):
            with tracer.span("cell", capacity=20):
                pass
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), tracer)
        trace = json.loads(path.read_text())
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        phases = {event["ph"] for event in events}
        assert phases == {"M", "X"}
        spans = [event for event in events if event["ph"] == "X"]
        assert {event["name"] for event in spans} == {"sweep", "cell"}
        for event in spans:
            assert event["ts"] >= 0
            assert "span_id" in event["args"]
        metadata = [event for event in events if event["ph"] == "M"]
        assert metadata[0]["name"] == "process_name"

    def test_timestamps_normalized_to_earliest_span(self):
        tracer = Tracer()
        tracer.record("late", start_us=1_000_100, duration_us=10)
        tracer.record("early", start_us=1_000_000, duration_us=10)
        events = [event for event in tracer.to_chrome()["traceEvents"]
                  if event["ph"] == "X"]
        ts = {event["name"]: event["ts"] for event in events}
        assert ts == {"early": 0, "late": 100}

    def test_worker_pids_get_their_own_track_labels(self):
        tracer = Tracer()
        tracer.record("cell", start_us=0, duration_us=5, pid=4242)
        labels = {event["args"]["name"]
                  for event in tracer.to_chrome()["traceEvents"]
                  if event["ph"] == "M"}
        assert "worker-4242" in labels


class TestAmbientTracer:
    def test_maybe_span_is_noop_without_tracer(self):
        assert obs_trace.current() is None
        with obs_trace.maybe_span("anything") as span:
            assert span is None

    def test_activate_scopes_and_restores(self):
        tracer = Tracer()
        with obs_trace.activate(tracer):
            assert obs_trace.current() is tracer
            with obs_trace.maybe_span("cell") as span:
                assert span is not None
        assert obs_trace.current() is None
        assert [span.name for span in tracer.spans] == ["cell"]

    def test_deactivate_clears_unconditionally(self):
        tracer = Tracer()
        with obs_trace.activate(tracer):
            obs_trace.deactivate()
            assert obs_trace.current() is None
            with obs_trace.maybe_span("dropped") as span:
                assert span is None
        assert tracer.spans == []
