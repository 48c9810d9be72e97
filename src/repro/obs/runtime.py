"""Ambient dispatcher: opt-in observability without parameter threading.

The experiment stack creates simulators many layers below the CLI
(``run_experiment -> sweep -> run_paper_protocol -> measure_hit_ratio ->
CacheSimulator``), and the ablation functions create them directly. So
that ``repro ablation adaptivity --metrics-out ...`` works without
rewriting every call site, a dispatcher can be *activated* for a dynamic
extent::

    with activate(dispatcher):
        table = ablation()      # every driver built inside observes it

Drivers resolve their dispatcher at construction: an explicit
``observability=`` argument wins, otherwise :func:`current` is consulted,
otherwise they run unobserved. There is deliberately no default global
dispatcher — with nothing activated, the hot paths see ``None`` and skip
instrumentation entirely.

The simulators are single-threaded (a ``LogicalClock`` per driver), so a
module-level slot is sufficient; nesting is supported and restores the
previous dispatcher on exit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .dispatcher import EventDispatcher
from .events import ProgressEvent

_active: Optional[EventDispatcher] = None


def current() -> Optional[EventDispatcher]:
    """The dispatcher activated for the current dynamic extent, if any."""
    return _active


def resolve(explicit: Optional[EventDispatcher]) -> Optional[EventDispatcher]:
    """An explicit dispatcher if given, else the ambient one, else None."""
    return explicit if explicit is not None else _active


def narrate(message: str,
            observability: Optional[EventDispatcher] = None) -> None:
    """The one narration route: emit ``message`` as a
    :class:`~repro.obs.events.ProgressEvent` through the explicit, else
    the ambient, dispatcher when it has sinks; otherwise do nothing."""
    obs = resolve(observability)
    if obs is not None and obs.has_sinks:
        obs.emit(ProgressEvent(message=message))


def deactivate() -> None:
    """Clear the ambient dispatcher unconditionally.

    Forked worker processes inherit the parent's ambient dispatcher —
    and with it open file sinks that must only be written from the
    parent — so the parallel sweep engine clears it as the first act of
    every worker task. Not for use in normal (single-process) flow;
    there, :func:`activate`'s scoped restore is the right tool.
    """
    global _active
    _active = None


@contextmanager
def activate(dispatcher: EventDispatcher) -> Iterator[EventDispatcher]:
    """Make ``dispatcher`` ambient for the extent of the ``with`` block."""
    global _active
    previous = _active
    _active = dispatcher
    try:
        yield dispatcher
    finally:
        _active = previous


@contextmanager
def suppress() -> Iterator[None]:
    """Make the current dynamic extent *unobserved*, restoring on exit.

    The inverse of :func:`activate`, for components that must not
    inherit an ambient dispatcher even when one is active: sinks are
    single-threaded by contract, so the concurrent buffer service
    (:mod:`repro.service`) builds its shard pools under this — their
    telemetry flows through the thread-safe metrics surface instead of
    the event stream. Nesting composes with :func:`activate` exactly
    like a ``with`` of either form.
    """
    global _active
    previous = _active
    _active = None
    try:
        yield
    finally:
        _active = previous
