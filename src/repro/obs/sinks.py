"""Event sinks: JSONL files, bounded ring buffers, terminal rendering.

- :class:`JsonlSink` — one JSON object per line, context merged into
  each record; high-volume :class:`~repro.obs.events.AccessEvent` records
  can be sampled (every N-th) while decision events are always kept.
- :class:`RingBufferSink` — the last N events in memory, for tests,
  notebooks, and post-mortem inspection without unbounded growth.
- :class:`ConsoleProgressSink` — renders
  :class:`~repro.obs.events.ProgressEvent` lines to a stream (the CLI's
  ``--quiet`` simply does not attach one).
- :class:`TimelineSink` — accumulates
  :class:`~repro.obs.events.WindowEvent` samples and renders an ASCII
  hit-ratio-over-time chart via :func:`repro.sim.charts.ascii_chart`.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from typing import Deque, Dict, IO, List, Optional, Tuple

from ..errors import ConfigurationError
from .dispatcher import Sink
from .events import AccessEvent, ObsEvent, ProgressEvent, WindowEvent


class JsonlSink(Sink):
    """Serialize every event as one JSON line.

    Parameters
    ----------
    stream:
        Any writable text stream. Use :meth:`open` for a file path.
    access_every:
        Keep one in every N access events (1 = keep all). Eviction,
        flush, purge, snapshot, and window events are never sampled —
        they are the low-volume decision record.
    """

    def __init__(self, stream: IO[str], access_every: int = 1,
                 close_stream: bool = False) -> None:
        if access_every <= 0:
            raise ConfigurationError("access_every must be positive")
        self._stream = stream
        self._close_stream = close_stream
        self.access_every = access_every
        self._access_seen = 0
        self.written = 0

    @classmethod
    def open(cls, path: str, access_every: int = 1) -> "JsonlSink":
        """Open ``path`` for writing and wrap it."""
        return cls(open(path, "w", encoding="utf-8"),
                   access_every=access_every, close_stream=True)

    def handle(self, event: ObsEvent, context: Dict[str, object]) -> None:
        if isinstance(event, AccessEvent):
            self._access_seen += 1
            if self._access_seen % self.access_every != 0:
                return
        record = dict(context)
        record.update(event.to_dict())
        self._stream.write(json.dumps(record, separators=(",", ":")))
        self._stream.write("\n")
        self.written += 1

    def flush(self) -> None:
        self._stream.flush()

    def close(self) -> None:
        if self._close_stream and not self._stream.closed:
            self._stream.close()


class RingBufferSink(Sink):
    """Keep the last ``maxlen`` events (with their context) in memory."""

    def __init__(self, maxlen: int = 4096) -> None:
        if maxlen <= 0:
            raise ConfigurationError("ring buffer needs positive capacity")
        self._buffer: Deque[Tuple[ObsEvent, Dict[str, object]]] = deque(
            maxlen=maxlen)

    def handle(self, event: ObsEvent, context: Dict[str, object]) -> None:
        self._buffer.append((event, dict(context)))

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def maxlen(self) -> int:
        """The bound on retained events."""
        assert self._buffer.maxlen is not None
        return self._buffer.maxlen

    def events(self, kind: Optional[str] = None) -> List[ObsEvent]:
        """Retained events, optionally filtered by kind tag."""
        return [event for event, _ in self._buffer
                if kind is None or event.kind == kind]

    def records(self) -> List[Tuple[ObsEvent, Dict[str, object]]]:
        """Retained (event, context) pairs, oldest first."""
        return list(self._buffer)

    def clear(self) -> None:
        """Drop everything retained."""
        self._buffer.clear()


class ConsoleProgressSink(Sink):
    """Print :class:`ProgressEvent` lines to a stream (default stderr)."""

    takes_references = False

    def __init__(self, stream: Optional[IO[str]] = None,
                 prefix: str = "  .. ") -> None:
        self._stream = stream
        self.prefix = prefix

    def handle(self, event: ObsEvent, context: Dict[str, object]) -> None:
        if isinstance(event, ProgressEvent):
            stream = self._stream if self._stream is not None else sys.stderr
            print(f"{self.prefix}{event.message}", file=stream)


class TimelineSink(Sink):
    """Collect windowed hit-ratio samples and render a terminal timeline.

    Samples are grouped by the ``(policy, capacity, seed)`` context under
    which they were emitted. :meth:`render` charts one series per policy
    at a single capacity (the largest seen unless given) for the first
    seed, which is the legible slice of a full table sweep.
    """

    takes_references = False

    def __init__(self) -> None:
        # (label, capacity, seed) -> [(time, ratio), ...]
        self._series: Dict[Tuple[str, int, int], List[Tuple[int, float]]] = {}

    def handle(self, event: ObsEvent, context: Dict[str, object]) -> None:
        if not isinstance(event, WindowEvent):
            return
        key = (str(context.get("policy", "run")),
               int(context.get("capacity", 0) or 0),
               int(context.get("seed", 0) or 0))
        self._series.setdefault(key, []).append((event.time, event.hit_ratio))

    @property
    def empty(self) -> bool:
        """True when no window samples were collected."""
        return not self._series

    def capacities(self) -> List[int]:
        """Capacities seen in the collected samples, sorted."""
        return sorted({capacity for _, capacity, _ in self._series})

    def render(self, capacity: Optional[int] = None,
               width: int = 60, height: int = 14) -> str:
        """An ASCII chart of windowed hit ratio vs logical time."""
        if self.empty:
            return "(timeline: no window samples recorded)"
        # Imported lazily: repro.sim imports the instrumented simulator,
        # which imports this package.
        from ..sim.charts import ascii_chart

        if capacity is None:
            # Prefer the capacity carrying the most policy series: the
            # largest capacity alone may come from a single-policy
            # helper sweep (e.g. the equi-effective B(1) search).
            labels_at: Dict[int, set] = {}
            for label, cap, _ in self._series:
                labels_at.setdefault(cap, set()).add(label)
            capacity = max(labels_at,
                           key=lambda cap: (len(labels_at[cap]), cap))
        chosen: Dict[str, List[Tuple[int, float]]] = {}
        for (label, cap, seed), points in sorted(self._series.items()):
            if cap != capacity or label in chosen:
                continue
            chosen[label] = points
        if not chosen:
            return f"(timeline: no samples at capacity {capacity})"
        # Align series on a common sample count (runs share stride).
        length = min(len(points) for points in chosen.values())
        first = next(iter(chosen.values()))
        x_values = [float(t) for t, _ in first[:length]]
        series = {label: [ratio for _, ratio in points[:length]]
                  for label, points in chosen.items()}
        title = f"windowed hit ratio over time (B={capacity})"
        chart = ascii_chart(x_values, series, width=width, height=height,
                            y_min=0.0, y_label="window hit ratio",
                            x_label="t")
        return f"{title}\n{chart}"
