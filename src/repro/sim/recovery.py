"""Sweep checkpoints and the structured exits of a failed sweep.

The paper's evaluation grid (Section 4.1) is a set of independent pure
cells — exactly the shape that should be restartable. This module gives
the sweep engine (:mod:`repro.sim.parallel`) the pieces it needs when a
long multi-policy sweep does not finish:

- :class:`SweepCheckpoint` — a JSONL record of completed
  ``(capacity, label) → ProtocolResult`` cells, written as cells finish
  and keyed by a grid fingerprint so one file can serve several sweeps
  (``--resume`` skips cells already recorded);
- :class:`SweepInterrupted` / :class:`CellExecutionError` — structured
  exits that carry the salvaged partial :data:`GridResults` instead of
  discarding completed work, with one :class:`CellFailure` per cell
  that raised.

Cells are pure functions of their inputs, so a re-run or resumed cell
is bit-identical to a serial run: results round-trip through the
checkpoint exactly (JSON floats serialize via ``repr``, the shortest
round-trip form), property-tested in ``tests/sim/test_recovery.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..errors import ReproError, SimulationError
from ..stats import ConfidenceInterval
from ..workloads.base import Workload
from .runner import PolicySpec, ProtocolResult, RunResult

#: Failure kinds attached to events and :class:`CellFailure` records.
CRASH = "crash"          # the worker process died (SIGKILL, OOM, ...)
ERROR = "error"          # the cell raised


@dataclass(frozen=True)
class CellFailure:
    """One grid cell's permanent failure record."""

    capacity: int
    label: str
    attempts: int
    kind: str
    error: str


class SweepInterrupted(ReproError):
    """A sweep was interrupted; completed cells were salvaged.

    Raised in place of a bare :class:`KeyboardInterrupt` escape so the
    completed cells survive: ``results`` holds every finished
    ``(capacity, label) → ProtocolResult`` cell, and any checkpoint was
    flushed before this was raised — re-running with ``--resume`` skips
    the salvaged cells.
    """

    def __init__(self, results: Dict[Tuple[int, str], ProtocolResult]
                 ) -> None:
        self.results = dict(results)
        super().__init__(
            f"sweep interrupted; {len(self.results)} completed cell(s) "
            "salvaged (re-run with --resume to skip them)")


class CellExecutionError(SimulationError):
    """One or more cells raised when run in-process.

    Every *other* cell completed and was checkpointed before this was
    raised, so a ``--resume`` re-run retries only the failed cells.
    """

    def __init__(self, failures: Sequence[CellFailure],
                 results: Dict[Tuple[int, str], ProtocolResult]) -> None:
        self.failures = list(failures)
        self.results = dict(results)
        detail = "; ".join(
            f"(B={f.capacity}, {f.label}) {f.kind} after "
            f"{f.attempts} attempt(s): {f.error}"
            for f in self.failures)
        super().__init__(
            f"{len(self.failures)} sweep cell(s) failed permanently: "
            f"{detail}")


# -- checkpointing -------------------------------------------------------------


def workload_fingerprint(workload) -> str:
    """A short, stable description of a workload's parameterization."""
    parts = []
    for name, value in sorted(vars(workload).items()):
        if name.startswith("_") or callable(value):
            continue
        if isinstance(value, (int, float, str, bool)):
            parts.append(f"{name}={value!r}")
    return f"{type(workload).__name__}({', '.join(parts)})"


def grid_fingerprint(workload: Workload,
                     specs: Sequence[PolicySpec],
                     capacities: Sequence[int],
                     warmup: int,
                     measured: int,
                     seed: int,
                     repetitions: int) -> str:
    """A stable identity for one grid's inputs.

    Checkpoint records carry this fingerprint so one JSONL file can hold
    several grids and a resume against different inputs matches nothing
    instead of silently reusing stale cells. The workload contributes
    its type name and public scalar parameters
    (:func:`workload_fingerprint`), so a resume against differently
    parameterized workloads recomputes.
    """
    payload = {
        "workload": workload_fingerprint(workload),
        "labels": [spec.label for spec in specs],
        "capacities": [int(capacity) for capacity in capacities],
        "warmup": int(warmup),
        "measured": int(measured),
        "seed": int(seed),
        "repetitions": int(repetitions),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def serialize_result(result: ProtocolResult) -> Dict[str, object]:
    """Flatten a :class:`ProtocolResult` to a JSON-safe record."""
    return {
        "label": result.label,
        "capacity": result.capacity,
        "interval": {"mean": result.interval.mean,
                     "half_width": result.interval.half_width,
                     "count": result.interval.count},
        "runs": [{"label": run.label, "capacity": run.capacity,
                  "seed": run.seed, "hit_ratio": run.hit_ratio,
                  "hits": run.hits, "misses": run.misses,
                  "warmup_hit_ratio": run.warmup_hit_ratio,
                  "evictions": run.evictions,
                  "writebacks": run.writebacks}
                 for run in result.runs],
    }


def deserialize_result(record: Dict[str, object]) -> ProtocolResult:
    """Rebuild a :class:`ProtocolResult` bit-identically from its record.

    JSON floats serialize via ``repr`` (shortest round-trip form), so a
    resumed cell compares equal to the run that produced it.
    """
    interval = record["interval"]
    return ProtocolResult(
        label=record["label"],
        capacity=record["capacity"],
        interval=ConfidenceInterval(mean=interval["mean"],
                                    half_width=interval["half_width"],
                                    count=interval["count"]),
        runs=[RunResult(**run) for run in record["runs"]])


class SweepCheckpoint:
    """A JSONL ledger of completed grid cells, written as cells finish.

    Each line is ``{"grid": fingerprint, "capacity": B, "label": L,
    "result": {...}}``; the file is flushed after every record so a
    SIGKILLed parent loses at most the cell being written. Loading
    tolerates a truncated final line (the crash-mid-write case) by
    ignoring everything from the first unparseable record on.

    Open with ``resume=True`` to load existing cells and append;
    otherwise an existing file is truncated and the sweep starts fresh.
    """

    def __init__(self, path: str, resume: bool = False) -> None:
        self.path = path
        self.resumed_cells = 0
        self._cells: Dict[str, Dict[Tuple[int, str], Dict[str, object]]] = {}
        if resume and os.path.exists(path):
            self._load()
        self._handle = open(path, "a" if resume else "w", encoding="utf-8")

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    key = (int(record["capacity"]), str(record["label"]))
                    grid = str(record["grid"])
                    result = record["result"]
                except (ValueError, KeyError, TypeError):
                    break  # truncated tail from a crash mid-write
                self._cells.setdefault(grid, {})[key] = result
        self.resumed_cells = sum(len(cells)
                                 for cells in self._cells.values())

    def __len__(self) -> int:
        return sum(len(cells) for cells in self._cells.values())

    def completed(self, fingerprint: str
                  ) -> Dict[Tuple[int, str], ProtocolResult]:
        """Every checkpointed cell of the given grid, deserialized."""
        return {key: deserialize_result(record)
                for key, record in self._cells.get(fingerprint, {}).items()}

    def record(self, fingerprint: str, result: ProtocolResult) -> None:
        """Append one completed cell and flush it to disk."""
        payload = serialize_result(result)
        key = (result.capacity, result.label)
        self._cells.setdefault(fingerprint, {})[key] = payload
        json.dump({"grid": fingerprint, "capacity": result.capacity,
                   "label": result.label, "result": payload},
                  self._handle, separators=(",", ":"))
        self._handle.write("\n")
        self._handle.flush()

    def flush(self) -> None:
        """Push buffered records to disk."""
        if not self._handle.closed:
            self._handle.flush()

    def close(self) -> None:
        """Flush and close the ledger; idempotent."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
