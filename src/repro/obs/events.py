"""The observability event model.

Every interesting moment in the buffer stack is one immutable event:

- :class:`AccessEvent` — a reference was processed (hit or miss);
- :class:`EvictionEvent` — a victim was dropped, carrying the victim's
  backward K-distance and whether the decision was history-informed
  (i.e. the victim had a full K-history, paper Definition 2.1);
- :class:`FlushEvent` — a dirty page was written back outside eviction;
- :class:`PurgeEvent` — the Retained Information demon dropped expired
  HIST blocks (paper Section 2.1.2);
- :class:`SnapshotEvent` — a run-boundary summary (start / measurement
  boundary / end / final) with the counters at that instant;
- :class:`WindowEvent` — one sample of the sliding-window hit ratio
  (emitted by :class:`~repro.obs.window.HitRatioWindowRecorder`);
- :class:`ProgressEvent` — a human-readable progress line (the CLI's
  narration, routed through the dispatcher so sinks decide rendering).

Events are plain dataclasses with a ``kind`` tag and a :meth:`to_dict`
that yields JSON-serializable payloads (infinities are mapped to
``None`` so every line a sink writes parses back with a strict JSON
reader).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..types import PageId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .provenance import EvictionDecision


@dataclass(frozen=True)
class ObsEvent:
    """Base class: a tagged, JSON-serializable observability event."""

    #: Event tag written to the ``event`` field of serialized records.
    kind = "event"

    def to_dict(self) -> Dict[str, object]:
        """A flat JSON-serializable record (``event`` tag included)."""
        record: Dict[str, object] = {"event": self.kind}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, float) and math.isinf(value):
                value = None
            record[spec.name] = value
        return record


@dataclass(frozen=True)
class AccessEvent(ObsEvent):
    """One reference was processed by a driver."""

    kind = "access"

    time: int
    page: PageId
    hit: bool
    write: bool = False


@dataclass(frozen=True)
class EvictionEvent(ObsEvent):
    """A victim page was dropped to make room.

    ``backward_k_distance`` is ``None`` when the victim's distance was
    infinite (fewer than K recorded references) or when the policy does
    not expose the notion at all; ``history_informed`` distinguishes the
    two (``False`` = infinite distance, ``None`` = not an LRU-K-family
    policy).
    """

    kind = "eviction"

    time: int
    victim: PageId
    dirty: bool = False
    backward_k_distance: Optional[float] = None
    history_informed: Optional[bool] = None


@dataclass(frozen=True)
class EvictionDecisionEvent(ObsEvent):
    """Full provenance of one victim choice (see :mod:`repro.obs.provenance`).

    Emitted by LRU-K-family policies only while a
    :class:`~repro.obs.provenance.ProvenanceRecorder` is attached, so the
    candidate enumeration cost is strictly opt-in. ``candidates`` is a
    tuple of plain dicts (page / kth_time / last_uncorrelated /
    backward_k_distance / crp_protected / excluded / chosen) so the
    record serializes to strict JSON as-is.
    """

    kind = "decision"

    time: int
    victim: PageId
    backward_k_distance: Optional[float]
    candidates: Tuple[Dict[str, object], ...]
    considered: int
    crp_excluded: int
    forced: bool
    retained_history: bool
    belady_victim: Optional[PageId] = None
    belady_agrees: Optional[bool] = None
    regret: Optional[int] = None

    @classmethod
    def from_decision(cls, decision: "EvictionDecision"
                      ) -> "EvictionDecisionEvent":
        """Flatten a :class:`~repro.obs.provenance.EvictionDecision`."""
        candidates = tuple(
            {"page": info.page, "kth_time": info.kth_time,
             "last_uncorrelated": info.last_uncorrelated,
             "backward_k_distance": info.backward_k_distance,
             "crp_protected": info.crp_protected,
             "excluded": info.excluded, "chosen": info.chosen}
            for info in decision.candidates)
        return cls(time=decision.time, victim=decision.victim,
                   backward_k_distance=decision.victim_distance,
                   candidates=candidates,
                   considered=decision.considered,
                   crp_excluded=decision.crp_excluded_total,
                   forced=decision.forced,
                   retained_history=decision.retained_history,
                   belady_victim=decision.belady_victim,
                   belady_agrees=decision.belady_agrees,
                   regret=decision.regret)


@dataclass(frozen=True)
class FlushEvent(ObsEvent):
    """A dirty page was written back to disk outside the eviction path."""

    kind = "flush"

    time: int
    page: PageId


@dataclass(frozen=True)
class PurgeEvent(ObsEvent):
    """The Retained Information demon dropped expired history blocks."""

    kind = "purge"

    time: int
    dropped: int
    retained: int


@dataclass(frozen=True)
class SnapshotEvent(ObsEvent):
    """A run-boundary summary of the driver's counters.

    ``phase`` is one of ``"start"`` (fresh run), ``"measurement"``
    (the warm-up boundary of the paper's Section 4.1 protocol),
    ``"end"`` (run finished) or ``"final"`` (whole-command summary).
    """

    kind = "snapshot"

    time: Optional[int]
    phase: str
    counters: Dict[str, float]


@dataclass(frozen=True)
class WindowEvent(ObsEvent):
    """One sliding-window hit-ratio sample."""

    kind = "window"

    time: int
    hit_ratio: float
    window: int
    count: int


@dataclass(frozen=True)
class ProgressEvent(ObsEvent):
    """A human-readable progress line."""

    kind = "progress"

    message: str


@dataclass(frozen=True)
class CellFailureEvent(ObsEvent):
    """One sweep-grid cell raised (see :mod:`repro.sim.parallel`).

    The engine runs every cell once, in the sweep's own process, so a
    sweep emits ``failure="error"``, ``attempt=1`` and
    ``action="failed"``: the sweep raises
    :class:`~repro.sim.recovery.CellExecutionError` once every other
    cell has finished. The keys stay as they are so that readers of
    ``--metrics-out`` files keep parsing them.
    """

    kind = "cell-failure"

    capacity: int
    label: str
    attempt: int
    failure: str
    error: str
    action: str


def victim_telemetry(policy: object, victim: PageId,
                     now: int) -> Tuple[Optional[float], Optional[bool]]:
    """Extract (backward_k_distance, history_informed) for an eviction.

    Works for any policy: LRU-K-family policies expose
    ``backward_k_distance``; everything else yields ``(None, None)``.
    """
    probe = getattr(policy, "backward_k_distance", None)
    if probe is None:
        return None, None
    distance = probe(victim, now)
    if math.isinf(distance):
        return None, False
    return float(distance), True
