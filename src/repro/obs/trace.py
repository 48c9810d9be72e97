"""Hierarchical span tracing with Chrome trace-event export.

The event stream (:mod:`repro.obs.events`) records *decisions*; spans
record *where the time went*. A :class:`Span` is one named interval —
``sweep``, ``cell``, ``simulate``, ``warmup``, ``measure`` — carrying
wall-clock and CPU duration, a parent link,
and the recording process/thread ids. A :class:`Tracer` owns an open-span
stack (so nesting falls out of ``with`` blocks) plus the list of
completed spans, and exports them in the Chrome trace-event JSON format
loadable in Perfetto / ``chrome://tracing``.

Ambient activation mirrors :mod:`repro.obs.runtime`: drivers many layers
below the CLI call :func:`maybe_span`, which is a no-op (one module
lookup and a ``None`` test) when no tracer is active, so un-traced runs
pay nothing on the per-run paths and exactly nothing on the per-reference
hot path (which is never instrumented with spans).

Cross-process relay
-------------------
Spans use *absolute* wall-clock timestamps (``time.time_ns``), so spans
recorded in a forked sweep worker line up with the parent's timeline
without clock translation. Workers serialize completed spans to plain
dicts (:meth:`Tracer.serialize`) over the existing result channel and the
parent re-parents them with :meth:`Tracer.absorb` — worker root spans
become children of the parent-side ``cell`` span, and every absorbed
span is re-numbered into the parent's id space.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "activate",
    "current",
    "deactivate",
    "maybe_span",
    "write_chrome_trace",
]


@dataclass
class Span:
    """One named time interval in the pipeline hierarchy."""

    name: str
    span_id: int
    parent_id: Optional[int]
    #: Absolute wall-clock start, microseconds since the Unix epoch.
    start_us: int
    #: Wall-clock duration in microseconds (0 while still open).
    duration_us: int
    #: CPU (process) time consumed during the span, microseconds.
    cpu_us: int
    pid: int
    tid: int
    category: str = "repro"
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def end_us(self) -> int:
        """Absolute wall-clock end, microseconds since the epoch."""
        return self.start_us + self.duration_us

    def to_dict(self) -> Dict[str, object]:
        """A picklable/JSON-serializable record (for the worker relay)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "cpu_us": self.cpu_us,
            "pid": self.pid,
            "tid": self.tid,
            "category": self.category,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "Span":
        """Rebuild a span from :meth:`to_dict` output."""
        return cls(
            name=str(record["name"]),
            span_id=int(record["span_id"]),  # type: ignore[arg-type]
            parent_id=(None if record["parent_id"] is None
                       else int(record["parent_id"])),  # type: ignore[arg-type]
            start_us=int(record["start_us"]),  # type: ignore[arg-type]
            duration_us=int(record["duration_us"]),  # type: ignore[arg-type]
            cpu_us=int(record["cpu_us"]),  # type: ignore[arg-type]
            pid=int(record["pid"]),  # type: ignore[arg-type]
            tid=int(record["tid"]),  # type: ignore[arg-type]
            category=str(record.get("category", "repro")),
            args=dict(record.get("args", {})),  # type: ignore[arg-type]
        )


class Tracer:
    """Record a tree of spans; export them as a Chrome trace.

    Tracing does not change which code computes a run: a traced
    simulation keeps its fused kernel, and its ``simulate`` span
    records the tier that ran in its ``tier`` arg.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1

    # -- recording ---------------------------------------------------------------

    def _allocate_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def current_span_id(self) -> Optional[int]:
        """The innermost open span's id, or None at the root."""
        return self._stack[-1].span_id if self._stack else None

    @contextmanager
    def span(self, name: str, category: str = "repro",
             **args: object) -> Iterator[Span]:
        """Open a span for the extent of the ``with`` block.

        The yielded :class:`Span` is live: callers may add ``args``
        entries while it is open. Parentage follows the open-span stack.
        """
        opened = Span(
            name=name,
            span_id=self._allocate_id(),
            parent_id=self.current_span_id(),
            start_us=time.time_ns() // 1_000,
            duration_us=0,
            cpu_us=0,
            pid=os.getpid(),
            tid=threading.get_ident() & 0xFFFFFFFF,
            category=category,
            args=dict(args),
        )
        wall_0 = time.perf_counter_ns()
        cpu_0 = time.process_time_ns()
        self._stack.append(opened)
        try:
            yield opened
        finally:
            opened.duration_us = (time.perf_counter_ns() - wall_0) // 1_000
            opened.cpu_us = (time.process_time_ns() - cpu_0) // 1_000
            self._stack.pop()
            self.spans.append(opened)

    def record(self, name: str, start_us: int, duration_us: int,
               cpu_us: int = 0, parent_id: Optional[int] = None,
               category: str = "repro", pid: Optional[int] = None,
               tid: Optional[int] = None, **args: object) -> Span:
        """Record an already-measured (synthetic) span.

        Used for the parent-side ``cell`` envelopes synthesized around
        relayed worker spans. When ``parent_id`` is None the span
        parents under the innermost open span, like :meth:`span`.
        """
        span = Span(
            name=name,
            span_id=self._allocate_id(),
            parent_id=(parent_id if parent_id is not None
                       else self.current_span_id()),
            start_us=start_us,
            duration_us=duration_us,
            cpu_us=cpu_us,
            pid=os.getpid() if pid is None else pid,
            tid=(threading.get_ident() & 0xFFFFFFFF) if tid is None else tid,
            category=category,
            args=dict(args),
        )
        self.spans.append(span)
        return span

    # -- cross-process relay -------------------------------------------------------

    def serialize(self) -> List[Dict[str, object]]:
        """Completed spans as plain dicts (picklable over a result channel)."""
        return [span.to_dict() for span in self.spans]

    def absorb(self, payload: List[Dict[str, object]],
               parent_id: Optional[int] = None) -> List[Span]:
        """Adopt spans serialized by another tracer (a forked worker).

        Every span is re-numbered into this tracer's id space; spans that
        were roots in the worker (``parent_id`` None) are re-parented
        under ``parent_id`` — the parent-side ``cell`` span. Returns the
        adopted spans.
        """
        remap: Dict[int, int] = {}
        adopted: List[Span] = []
        for record in payload:
            span = Span.from_dict(record)
            remap[span.span_id] = self._allocate_id()
            adopted.append(span)
        for span in adopted:
            old_parent = span.parent_id
            span.span_id = remap[span.span_id]
            if old_parent is None:
                span.parent_id = parent_id
            else:
                span.parent_id = remap.get(old_parent, parent_id)
        self.spans.extend(adopted)
        return adopted

    # -- export ---------------------------------------------------------------------

    def to_chrome(self) -> Dict[str, object]:
        """The Chrome trace-event JSON object for the recorded spans.

        Complete (``"ph": "X"``) events, timestamps normalized so the
        earliest span starts at 0, one ``process_name`` metadata record
        per pid. Loadable in Perfetto / ``chrome://tracing``.
        """
        spans = list(self.spans) + list(self._stack)
        origin = min((span.start_us for span in spans), default=0)
        events: List[Dict[str, object]] = []
        parent_pid = os.getpid()
        for pid in sorted({span.pid for span in spans}):
            label = "sweep parent" if pid == parent_pid else f"worker-{pid}"
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": label}})
        for span in spans:
            args = dict(span.args)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_span_id"] = span.parent_id
            args["cpu_us"] = span.cpu_us
            events.append({
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start_us - origin,
                "dur": span.duration_us,
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    # -- inspection -------------------------------------------------------------------

    def find(self, name: Optional[str] = None,
             category: Optional[str] = None) -> List[Span]:
        """Completed spans filtered by name and/or category."""
        return [span for span in self.spans
                if (name is None or span.name == name)
                and (category is None or span.category == category)]

    def children_of(self, span_id: int) -> List[Span]:
        """Completed spans whose parent is the given span."""
        return [span for span in self.spans if span.parent_id == span_id]


def write_chrome_trace(path: str, tracer: Tracer) -> None:
    """Write the tracer's spans to ``path`` as Chrome trace-event JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tracer.to_chrome(), handle, separators=(",", ":"))
        handle.write("\n")


# -- ambient tracer (mirrors repro.obs.runtime) --------------------------------

_active: Optional[Tracer] = None


def current() -> Optional[Tracer]:
    """The tracer activated for the current dynamic extent, if any."""
    return _active


def deactivate() -> None:
    """Clear the ambient tracer unconditionally.

    Forked sweep workers inherit the parent's tracer object; appending to
    it from a child is invisible to the parent and would pollute the
    worker's own relay payload, so worker tasks clear it first and build
    a fresh tracer when the job asks for one.
    """
    global _active
    _active = None


@contextmanager
def activate(tracer: Tracer) -> Iterator[Tracer]:
    """Make ``tracer`` ambient for the extent of the ``with`` block."""
    global _active
    previous = _active
    _active = tracer
    try:
        yield tracer
    finally:
        _active = previous


@contextmanager
def maybe_span(name: str, category: str = "repro",
               **args: object) -> Iterator[Optional[Span]]:
    """Open a span on the ambient tracer, or do nothing when none is active."""
    tracer = _active
    if tracer is None:
        yield None
        return
    with tracer.span(name, category=category, **args) as span:
        yield span
