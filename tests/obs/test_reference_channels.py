"""Which observation channels demote a simulation run to the object path.

Per-reference channels — sinks that take access/eviction events, and
hook profiling — force the object path. Aggregate ones — an ambient
tracer, run-level sinks such as progress narration — keep the fused
kernel, and none of them changes what a run computes.
"""

import io

from repro.core import LRUKPolicy
from repro.obs import (
    AccessEvent,
    CallbackSink,
    ConsoleProgressSink,
    EventDispatcher,
    EvictionEvent,
    RingBufferSink,
    SnapshotEvent,
    TimelineSink,
    Tracer,
)
from repro.obs import trace as obs_trace
from repro.sim import (
    CachedTrace,
    PolicySpec,
    measure_hit_ratio,
    run_paper_protocol,
    sweep_buffer_sizes,
)
from repro.workloads import ZipfianWorkload

WARMUP, REFERENCES, CAPACITY = 300, 1200, 20


class RecordingConsoleSink(ConsoleProgressSink):
    """A console sink that also keeps every event it is handed."""

    def __init__(self, stream):
        super().__init__(stream)
        self.events = []

    def handle(self, event, context):
        self.events.append(event)
        super().handle(event, context)


def measure(observability=None):
    trace = CachedTrace.materialize(ZipfianWorkload(n=80), REFERENCES, 7)
    return measure_hit_ratio(LRUKPolicy(k=2), trace, CAPACITY, WARMUP,
                             observability=observability)


def protocol():
    return run_paper_protocol(ZipfianWorkload(n=80), PolicySpec.lruk(2),
                              CAPACITY, warmup=WARMUP,
                              measured=REFERENCES - WARMUP, seed=3)


class TestDispatcherFlag:
    def test_sinks_declare_per_reference_interest(self):
        assert CallbackSink(lambda event, context: None).takes_references
        assert RingBufferSink().takes_references
        assert not ConsoleProgressSink().takes_references
        assert not TimelineSink().takes_references

    def test_flag_follows_attach_detach_and_close(self):
        dispatcher = EventDispatcher()
        assert not dispatcher.takes_references
        dispatcher.attach(ConsoleProgressSink(io.StringIO()))
        assert dispatcher.has_sinks and not dispatcher.takes_references
        ring = dispatcher.attach(RingBufferSink())
        assert dispatcher.takes_references
        dispatcher.detach(ring)
        assert not dispatcher.takes_references
        dispatcher.attach(ring)
        dispatcher.close()
        assert not dispatcher.takes_references


class TestRunLevelSinks:
    def test_console_sink_keeps_the_kernel_and_gets_run_snapshots(self):
        dispatcher = EventDispatcher()
        console = dispatcher.attach(RecordingConsoleSink(io.StringIO()))
        observed = measure(dispatcher)
        plain = measure()
        assert observed.tier == plain.tier == "kernel"
        assert observed.counter == plain.counter
        assert observed.warmup_counter == plain.warmup_counter
        assert observed.evictions == plain.evictions
        snapshots = [event for event in console.events
                     if isinstance(event, SnapshotEvent)]
        assert [event.phase for event in snapshots] == ["start", "end"]
        assert snapshots[-1].counters["hits"] == plain.counter.hits
        assert not [event for event in console.events
                    if isinstance(event, (AccessEvent, EvictionEvent))]

    def test_console_lines_match_an_object_path_sweep(self):
        def narration(extra_sink=None):
            stream = io.StringIO()
            dispatcher = EventDispatcher()
            dispatcher.attach(ConsoleProgressSink(stream))
            if extra_sink is not None:
                dispatcher.attach(extra_sink)
            sweep_buffer_sizes(
                ZipfianWorkload(n=100),
                [PolicySpec.lru(), PolicySpec.lruk(2), PolicySpec.a0()],
                [8, 16], warmup=300, measured=900, jobs=1,
                observability=dispatcher)
            return stream.getvalue()

        kernel_lines = narration()
        object_lines = narration(CallbackSink(lambda event, context: None))
        assert kernel_lines == object_lines
        assert kernel_lines.count("\n") == 6


class TestPerReferenceSinks:
    def test_callback_sink_demotes_and_sees_every_reference(self):
        events = []
        dispatcher = EventDispatcher()
        dispatcher.attach(ConsoleProgressSink(io.StringIO()))
        dispatcher.attach(CallbackSink(
            lambda event, context: events.append(event)))
        observed = measure(dispatcher)
        plain = measure()
        assert observed.tier == "object"
        assert observed.counter == plain.counter
        assert observed.evictions == plain.evictions
        accesses = [event for event in events
                    if isinstance(event, AccessEvent)]
        assert len(accesses) == REFERENCES
        assert sum(event.hit for event in accesses[WARMUP:]) == \
            plain.counter.hits
        evictions = [event for event in events
                     if isinstance(event, EvictionEvent)]
        assert len(evictions) == plain.evictions
        assert [event.phase for event in events
                if isinstance(event, SnapshotEvent)] == \
            ["start", "measurement", "end"]


class TestTracedProtocol:
    def test_default_tracer_keeps_the_kernel(self):
        tracer = Tracer()
        with obs_trace.activate(tracer):
            traced = protocol()
        assert traced.runs == protocol().runs
        (simulate,) = tracer.find("simulate")
        assert simulate.args["tier"] == "kernel"
        assert not tracer.find(category="policy-hook")
        warmup, measured = sorted(tracer.children_of(simulate.span_id),
                                  key=lambda span: span.start_us)
        assert (warmup.name, measured.name) == ("warmup", "measure")
        assert warmup.args["references"] == WARMUP
        assert measured.args["references"] == REFERENCES - WARMUP
        assert warmup.start_us >= simulate.start_us
        assert warmup.end_us <= measured.start_us
        assert warmup.cpu_us >= 0 and measured.cpu_us >= 0
