"""Progress narration has one route: :func:`repro.obs.runtime.narrate`.

A table's cell lines and its B(1)/B(2) lines reach a console sink
through the dispatcher given to ``run_experiment`` or, without one,
through the ambient dispatcher; a dispatcher without sinks receives no
event at all.
"""

import io

from repro.experiments import table_4_2_spec
from repro.obs import ConsoleProgressSink, EventDispatcher, activate, runtime
from repro.sim import run_experiment


def _reduced_table_4_2():
    """Table 4.2 at N=100: three rows, one repetition."""
    return table_4_2_spec(scale=0.1, n=100, capacities=[8, 16, 32],
                          repetitions=1)


def _console():
    stream = io.StringIO()
    dispatcher = EventDispatcher()
    dispatcher.attach(ConsoleProgressSink(stream))
    return dispatcher, stream


def _assert_narrated(stream, result):
    """One ``C=`` line per cell, one ratio line per row that has one."""
    lines = stream.getvalue().splitlines()
    labels = [spec.label for spec in result.spec.policies]
    assert [line for line in lines if " C=" in line] == [
        f"  .. B={cell.capacity:<6d} {label:<8s} "
        f"C={cell.hit_ratio(label):.4f}"
        for cell in result.cells for label in labels]
    ratios = {capacity: ratio for capacity, ratio
              in result.equi_effective_ratios.items() if ratio is not None}
    assert ratios  # the reduced table still has a B(1)/B(2) column
    assert [line for line in lines if "B(LRU-1)/B(LRU-2)=" in line] == [
        f"  .. B={capacity:<6d} B(LRU-1)/B(LRU-2)={ratio:.2f}"
        for capacity, ratio in ratios.items()]
    assert len(lines) == len(result.cells) * len(labels) + len(ratios)


class _CountingDispatcher(EventDispatcher):
    """Records every event handed to :meth:`emit`, sinks or not."""

    def __init__(self):
        super().__init__()
        self.emitted = []

    def emit(self, event):
        self.emitted.append(event)
        super().emit(event)


class TestOneNarrationRoute:
    def test_explicit_dispatcher_narrates_cells_and_ratios(self):
        dispatcher, stream = _console()
        result = run_experiment(_reduced_table_4_2(),
                                observability=dispatcher)
        _assert_narrated(stream, result)

    def test_ambient_dispatcher_narrates_cells_and_ratios(self):
        dispatcher, stream = _console()
        with activate(dispatcher):
            result = run_experiment(_reduced_table_4_2())
        _assert_narrated(stream, result)

    def test_dispatcher_without_sinks_receives_no_event(self):
        dispatcher = _CountingDispatcher()
        run_experiment(_reduced_table_4_2(), observability=dispatcher)
        runtime.narrate("dropped", dispatcher)
        with activate(dispatcher):
            runtime.narrate("dropped")
        assert dispatcher.emitted == []

    def test_nothing_to_narrate_through(self):
        assert runtime.current() is None
        runtime.narrate("nobody listens")  # no dispatcher: a no-op
