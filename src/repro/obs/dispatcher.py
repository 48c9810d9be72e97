"""Event dispatcher: the pay-for-what-you-use fan-out point.

A dispatcher owns an ordered list of *sinks* and a *context* — key/value
annotations (policy label, buffer size, seed) that identify which run the
events belong to. Emitting with no sinks attached is (nearly) free, and
the drivers guard the event *construction* too::

    obs = simulator._obs
    if obs is not None and obs.takes_references:
        obs.emit(AccessEvent(...))

so an un-observed simulator pays one attribute load and one truth test
per reference — the Section 1.2 "little bookkeeping overhead" discipline
applied to the instrumentation itself.

Per-reference events (accesses, evictions) are built only when some
attached sink declares it takes them (:attr:`Sink.takes_references`).
That same flag decides whether a simulation run may use a fused kernel
(:meth:`repro.sim.CacheSimulator.run_fused`): a dispatcher holding only
run-level sinks — progress narration, the timeline renderer — leaves
the execution tier exactly as an unobserved run's.

Sinks are objects with a ``handle(event, context)`` method (see
:mod:`repro.obs.sinks`); plain callables of the same shape work through
:class:`CallbackSink`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional

from .events import ObsEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .registry import MetricsRegistry


class Sink:
    """Base sink: receives every event the dispatcher emits."""

    #: Whether this sink consumes per-reference events
    #: (:class:`~repro.obs.events.AccessEvent`,
    #: :class:`~repro.obs.events.EvictionEvent`). While any attached
    #: sink does, simulators construct those events and simulation runs
    #: take the object path; sinks that read only run-level events
    #: (progress lines, window samples, snapshots) say False and keep
    #: the fused kernels.
    takes_references = True

    def handle(self, event: ObsEvent, context: Dict[str, object]) -> None:
        """Consume one event. ``context`` is the dispatcher's current
        annotation dict (shared, do not mutate)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (files); idempotent."""

    def flush(self) -> None:
        """Push any buffered output downstream; default no-op."""


class CallbackSink(Sink):
    """Adapt a plain ``fn(event, context)`` callable into a sink."""

    def __init__(self, fn: Callable[[ObsEvent, Dict[str, object]], None]
                 ) -> None:
        self._fn = fn

    def handle(self, event: ObsEvent, context: Dict[str, object]) -> None:
        self._fn(event, context)


class EventDispatcher:
    """Fan events out to attached sinks, tagged with the run context."""

    __slots__ = ("_sinks", "_takes_references", "context", "metrics")

    def __init__(self) -> None:
        self._sinks: List[Sink] = []
        self._takes_references = False
        self.context: Dict[str, object] = {}
        #: Optional :class:`~repro.obs.registry.MetricsRegistry` riding
        #: along with the dispatcher. Drivers that accumulate counters
        #: (the measurement protocol) resolve it once per run. A pooled
        #: sweep runs its cells in the parent too, so ``--metrics-out``
        #: totals are identical under ``--jobs N`` and serial execution.
        self.metrics: Optional["MetricsRegistry"] = None

    # -- sink management ---------------------------------------------------------

    @property
    def has_sinks(self) -> bool:
        """True when at least one sink is attached.

        The emission guard for run-level events (snapshots, progress,
        flushes): simulators ask this before *constructing* one. The
        per-reference guard is :attr:`takes_references`. Code outside
        this module must use these rather than poking ``_sinks``.
        """
        return bool(self._sinks)

    @property
    def takes_references(self) -> bool:
        """True when some attached sink takes per-reference events.

        The guard simulators test before constructing an access or
        eviction event, and the observation half of the rule that
        demotes a simulation run from its fused kernel to the object
        path. Refreshed on :meth:`attach`, :meth:`detach` and
        :meth:`close`.
        """
        return self._takes_references

    @property
    def sinks(self) -> "tuple[Sink, ...]":
        """Snapshot of the attached sinks, in attachment order.

        For introspection (the resource sampler's per-sink depth
        gauges); attachment management stays with :meth:`attach` /
        :meth:`detach`.
        """
        return tuple(self._sinks)

    def attach(self, sink: Sink) -> Sink:
        """Attach a sink; returns it for fluent use."""
        self._sinks.append(sink)
        self._refresh()
        return sink

    def detach(self, sink: Sink) -> None:
        """Detach a previously attached sink (no error if absent)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass
        self._refresh()

    def close(self) -> None:
        """Close and detach every sink."""
        sinks, self._sinks = self._sinks, []
        self._refresh()
        for sink in sinks:
            sink.close()

    def _refresh(self) -> None:
        self._takes_references = any(
            sink.takes_references for sink in self._sinks)

    def flush(self) -> None:
        """Flush every sink that buffers output (file sinks).

        The parallel sweep engine calls this before forking its pass
        workers so no child inherits buffered-but-unwritten output.
        """
        for sink in tuple(self._sinks):
            sink.flush()

    # -- emission ----------------------------------------------------------------

    def emit(self, event: ObsEvent) -> None:
        """Deliver one event to every sink, in attachment order.

        Sinks may themselves emit derived events (the windowed recorder
        does); nested emission is safe because delivery iterates over a
        snapshot of the sink list.
        """
        for sink in tuple(self._sinks):
            sink.handle(event, self.context)

    # -- context -----------------------------------------------------------------

    @contextmanager
    def scoped(self, **annotations: object) -> Iterator["EventDispatcher"]:
        """Temporarily extend the context (run labels, capacities, seeds)."""
        saved = self.context
        self.context = {**saved, **annotations}
        try:
            yield self
        finally:
            self.context = saved
