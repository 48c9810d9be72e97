"""Dispatcher lifecycle ordering and ring-buffer overflow semantics.

Regression coverage for two sharp edges of the ambient-observability
design: events emitted after ``runtime.deactivate()`` (or ``close()``)
must never reach detached sinks, and the bounded ring buffer must drop
the *oldest* events when it overflows — both matter to the forked sweep
workers, which inherit the parent's dispatcher and immediately detach
from it.
"""

from repro.obs import (
    AccessEvent,
    CallbackSink,
    EventDispatcher,
    ProgressEvent,
    RingBufferSink,
)
from repro.obs import runtime


def _event(time=1):
    return AccessEvent(time=time, page=1, hit=True)


class TestDeactivateOrdering:
    def test_events_after_deactivate_do_not_reach_ambient_sinks(self):
        dispatcher = EventDispatcher()
        seen = []
        dispatcher.attach(CallbackSink(lambda event, ctx: seen.append(event)))
        with runtime.activate(dispatcher):
            resolved = runtime.resolve(None)
            resolved.emit(_event())
            runtime.deactivate()
            # A driver resolving *after* deactivation sees no dispatcher
            # at all: nothing to emit through.
            assert runtime.resolve(None) is None
        assert len(seen) == 1
        assert runtime.current() is None

    def test_close_detaches_before_any_later_emit(self):
        dispatcher = EventDispatcher()
        seen = []
        dispatcher.attach(CallbackSink(lambda event, ctx: seen.append(event)))
        dispatcher.emit(_event(1))
        dispatcher.close()
        assert dispatcher.has_sinks is False
        # Emitting on a closed dispatcher is a silent no-op: the sink
        # list is empty, so the detached sink must not observe this.
        dispatcher.emit(_event(2))
        assert [event.time for event in seen] == [1]

    def test_flush_then_deactivate_preserves_buffered_events(self):
        dispatcher = EventDispatcher()
        flushed = []

        class BufferingSink(RingBufferSink):
            def flush(self):
                flushed.extend(self.events())
                self.clear()

        dispatcher.attach(BufferingSink())
        with runtime.activate(dispatcher):
            dispatcher.emit(_event(1))
            dispatcher.emit(_event(2))
            dispatcher.flush()
            runtime.deactivate()
        assert [event.time for event in flushed] == [1, 2]

    def test_close_is_idempotent_and_flush_safe_after_close(self):
        dispatcher = EventDispatcher()
        dispatcher.attach(RingBufferSink())
        dispatcher.close()
        dispatcher.close()
        dispatcher.flush()  # no sinks left; must not raise


class TestRingBufferOverflow:
    def test_overflow_drops_oldest_keeps_newest(self):
        ring = RingBufferSink(maxlen=3)
        for time in range(1, 6):
            ring.handle(_event(time), {})
        assert len(ring) == 3
        assert [event.time for event in ring.events()] == [3, 4, 5]

    def test_overflow_preserves_context_pairing(self):
        ring = RingBufferSink(maxlen=2)
        ring.handle(_event(1), {"seed": 1})
        ring.handle(_event(2), {"seed": 2})
        ring.handle(_event(3), {"seed": 3})
        assert [ctx["seed"] for _, ctx in ring.records()] == [2, 3]

    def test_kind_filter_applies_after_overflow(self):
        ring = RingBufferSink(maxlen=2)
        ring.handle(ProgressEvent(message="early"), {})
        ring.handle(_event(1), {})
        ring.handle(_event(2), {})
        assert ring.events(kind="progress") == []
        assert len(ring.events(kind="access")) == 2
