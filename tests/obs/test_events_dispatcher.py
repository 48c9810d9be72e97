"""Event model and dispatcher semantics."""

import json

import pytest

from repro import CacheSimulator, LRUKPolicy
from repro.obs import (
    AccessEvent,
    CallbackSink,
    EventDispatcher,
    EvictionEvent,
    ProgressEvent,
    PurgeEvent,
    RingBufferSink,
    SnapshotEvent,
    WindowEvent,
    victim_telemetry,
)
from repro.obs import runtime
from repro.policies import LRUPolicy


class TestEventModel:
    def test_to_dict_carries_kind_tag(self):
        record = AccessEvent(time=3, page=7, hit=True, write=True).to_dict()
        assert record == {"event": "access", "time": 3, "page": 7,
                          "hit": True, "write": True}

    def test_every_event_serializes_to_strict_json(self):
        events = [
            AccessEvent(time=1, page=1, hit=False),
            EvictionEvent(time=2, victim=1, dirty=True,
                          backward_k_distance=float("inf"),
                          history_informed=False),
            SnapshotEvent(time=None, phase="final", counters={"x": 1.0}),
            WindowEvent(time=5, hit_ratio=0.5, window=100, count=50),
            PurgeEvent(time=9, dropped=3, retained=10),
            ProgressEvent(message="hello"),
        ]
        for event in events:
            line = json.dumps(event.to_dict())
            assert json.loads(line)["event"] == event.kind

    def test_infinite_distance_maps_to_null(self):
        record = EvictionEvent(time=1, victim=2,
                               backward_k_distance=float("inf")).to_dict()
        assert record["backward_k_distance"] is None

    def test_victim_telemetry_for_lruk(self):
        policy = LRUKPolicy(k=2)
        policy.on_admit(1, 1)
        policy.on_hit(1, 5)
        distance, informed = victim_telemetry(policy, 1, 10)
        assert informed is True
        assert distance == pytest.approx(9.0)

    def test_victim_telemetry_for_plain_lru(self):
        assert victim_telemetry(LRUPolicy(), 1, 10) == (None, None)


class TestDispatcher:
    def test_inactive_without_sinks(self):
        dispatcher = EventDispatcher()
        assert dispatcher.has_sinks is False
        dispatcher.emit(ProgressEvent(message="dropped"))  # no sinks: no-op

    def test_delivery_order_and_detach(self):
        dispatcher = EventDispatcher()
        seen = []
        first = dispatcher.attach(
            CallbackSink(lambda e, c: seen.append(("first", e.kind))))
        dispatcher.attach(
            CallbackSink(lambda e, c: seen.append(("second", e.kind))))
        dispatcher.emit(ProgressEvent(message="x"))
        assert seen == [("first", "progress"), ("second", "progress")]
        dispatcher.detach(first)
        dispatcher.emit(ProgressEvent(message="y"))
        assert seen[-1] == ("second", "progress")

    def test_scoped_context_restores(self):
        dispatcher = EventDispatcher()
        contexts = []
        dispatcher.attach(CallbackSink(lambda e, c: contexts.append(dict(c))))
        with dispatcher.scoped(policy="LRU-2", capacity=10):
            dispatcher.emit(ProgressEvent(message="in"))
            with dispatcher.scoped(seed=3):
                dispatcher.emit(ProgressEvent(message="nested"))
        dispatcher.emit(ProgressEvent(message="out"))
        assert contexts[0] == {"policy": "LRU-2", "capacity": 10}
        assert contexts[1] == {"policy": "LRU-2", "capacity": 10, "seed": 3}
        assert contexts[2] == {}

    def test_simulator_pays_nothing_until_sink_attached(self):
        dispatcher = EventDispatcher()
        simulator = CacheSimulator(LRUPolicy(), capacity=2,
                                   observability=dispatcher)
        simulator.access(1)
        ring = dispatcher.attach(RingBufferSink())
        simulator.access(2)
        assert [e.page for e in ring.events("access")] == [2]

    def test_ambient_activation_reaches_new_simulators(self):
        dispatcher = EventDispatcher()
        ring = dispatcher.attach(RingBufferSink())
        with runtime.activate(dispatcher):
            simulator = CacheSimulator(LRUPolicy(), capacity=2)
            simulator.access(1)
        assert len(ring.events("access")) == 1
        assert runtime.current() is None
        # Simulators built outside the extent stay unobserved.
        CacheSimulator(LRUPolicy(), capacity=2).access(1)
        assert len(ring.events("access")) == 1


class TestHasSinks:
    def test_empty_dispatcher_has_no_sinks(self):
        dispatcher = EventDispatcher()
        assert dispatcher.has_sinks is False
        assert dispatcher.sinks == ()

    def test_attach_detach_toggle_the_guard(self):
        dispatcher = EventDispatcher()
        sink = dispatcher.attach(RingBufferSink())
        assert dispatcher.has_sinks is True
        dispatcher.detach(sink)
        assert dispatcher.has_sinks is False

    def test_close_clears_the_guard(self):
        dispatcher = EventDispatcher()
        dispatcher.attach(RingBufferSink())
        dispatcher.close()
        assert dispatcher.has_sinks is False

    def test_sinks_snapshot_preserves_attachment_order(self):
        dispatcher = EventDispatcher()
        first = dispatcher.attach(RingBufferSink())
        second = dispatcher.attach(RingBufferSink())
        assert dispatcher.sinks == (first, second)
        # A snapshot, not the live list: mutating it is impossible and
        # detaching afterwards does not rewrite history.
        snapshot = dispatcher.sinks
        dispatcher.detach(first)
        assert snapshot == (first, second)
        assert dispatcher.sinks == (second,)


class TestSuppress:
    def test_suppress_hides_the_ambient_dispatcher(self):
        dispatcher = EventDispatcher()
        dispatcher.attach(RingBufferSink())
        with runtime.activate(dispatcher):
            assert runtime.current() is dispatcher
            with runtime.suppress():
                assert runtime.current() is None
            assert runtime.current() is dispatcher

    def test_suppress_without_an_ambient_dispatcher_is_harmless(self):
        with runtime.suppress():
            assert runtime.current() is None
