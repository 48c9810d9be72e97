"""Experiment specifications: one object per paper table.

An :class:`ExperimentSpec` bundles a workload, the policy columns, the
buffer-size rows, the warm-up/measure protocol, and (optionally) the
equi-effective baseline/improved pair whose B(1)/B(2) ratio forms the last
column of the paper's tables. :func:`run_experiment` executes the spec and
returns an :class:`ExperimentResult` that renders as an ASCII table in the
paper's layout. The concrete Table 4.1/4.2/4.3 specs live in
:mod:`repro.experiments` so benchmarks, examples, and the CLI share them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SimulationError
from ..obs.dispatcher import EventDispatcher
from ..obs.runtime import narrate
from ..workloads.base import Workload
from . import recovery
from .equi_effective import baseline_evaluator, equi_effective_buffer_size
from .runner import PolicySpec, check_protocol
# run_paper_protocol is unused here but stays importable from this
# module: benchmarks/e2e/tracing.py wraps it by name.
from .runner import run_paper_protocol  # noqa: F401
from .sweep import SweepCell, sweep_buffer_sizes
from .tables import Table
from .trace_cache import TraceCache


@dataclass
class ExperimentSpec:
    """A full table-generating experiment."""

    name: str
    workload: Workload
    policies: Sequence[PolicySpec]
    capacities: Sequence[int]
    warmup: int
    measured: int
    seed: int = 0
    repetitions: int = 3
    #: (baseline_label, improved_label) for the B(1)/B(2) column, or None.
    equi_effective: Optional[Tuple[str, str]] = None
    #: Cap for the B(1) search (defaults to 64x the largest table capacity).
    equi_effective_high: Optional[int] = None
    caption: str = ""

    def __post_init__(self) -> None:
        check_protocol(self.capacities, self.warmup, self.measured,
                       self.repetitions)
        labels = {spec.label for spec in self.policies}
        if self.equi_effective is not None:
            baseline, improved = self.equi_effective
            if baseline not in labels or improved not in labels:
                raise ConfigurationError(
                    "equi-effective labels must be policy columns")

    def spec_by_label(self, label: str) -> PolicySpec:
        """Look a policy column up by its label."""
        for spec in self.policies:
            if spec.label == label:
                return spec
        raise ConfigurationError(f"no policy labelled {label!r}")


@dataclass
class ExperimentResult:
    """The sweep cells plus derived columns, renderable as a paper table."""

    spec: ExperimentSpec
    cells: List[SweepCell]
    equi_effective_ratios: Dict[int, Optional[float]] = field(
        default_factory=dict)

    def to_table(self) -> Table:
        """Render in the paper's layout: B, one column per policy, B(1)/B(2)."""
        columns = ["B"] + [spec.label for spec in self.spec.policies]
        if self.spec.equi_effective is not None:
            baseline, improved = self.spec.equi_effective
            columns.append(f"B({baseline})/B({improved})")
        table = Table(title=self.spec.name, columns=columns,
                      caption=self.spec.caption)
        for cell in self.cells:
            row: List = [cell.capacity]
            row.extend(cell.hit_ratio(spec.label)
                       for spec in self.spec.policies)
            if self.spec.equi_effective is not None:
                row.append(self.equi_effective_ratios.get(cell.capacity))
            table.add_row(*row)
        return table

    def hit_ratios(self, label: str) -> List[float]:
        """The hit-ratio column for one policy, ordered by capacity."""
        return [cell.hit_ratio(label) for cell in self.cells]

    @property
    def capacities(self) -> List[int]:
        """The buffer sizes (table rows), in order."""
        return [cell.capacity for cell in self.cells]


def run_experiment(spec: ExperimentSpec,
                   observability: Optional[EventDispatcher] = None,
                   jobs: Optional[int] = None,
                   checkpoint: Optional[recovery.SweepCheckpoint] = None
                   ) -> ExperimentResult:
    """Execute a spec: sweep all cells, then derive B(1)/B(2) per row.

    One trace cache backs the whole experiment: the sweep grid and every
    equi-effective probe replay the same materialized reference strings.
    The cache is scoped to this call — cleared on the way out, success or
    failure, so a long-lived process running many experiments does not
    pin every workload's traces forever.
    ``jobs`` fans the sweep grid out over worker processes;
    ``checkpoint`` records completed cells for ``--resume`` (see
    :mod:`repro.sim.recovery`). Each cell and each B(1)/B(2) ratio is
    narrated through :func:`repro.obs.runtime.narrate` (on
    ``observability``, else the ambient dispatcher).
    """
    trace_cache = TraceCache()
    try:
        # The sweep builds every column's stack pass into the cache, the
        # baseline's included, so the B(1) search below reads them.
        cells = sweep_buffer_sizes(
            spec.workload, spec.policies, spec.capacities,
            warmup=spec.warmup, measured=spec.measured,
            seed=spec.seed, repetitions=spec.repetitions,
            observability=observability, jobs=jobs,
            trace_cache=trace_cache, checkpoint=checkpoint)
        result = ExperimentResult(spec=spec, cells=cells)
        if spec.equi_effective is None:
            return result
        baseline_label, improved_label = spec.equi_effective
        high = (spec.equi_effective_high
                if spec.equi_effective_high is not None
                else 64 * max(spec.capacities))
        # One evaluator serves every row, so its passes (or simulated
        # capacities) are shared across the searches.
        evaluate = baseline_evaluator(
            spec.workload, spec.spec_by_label(baseline_label),
            spec.warmup, spec.measured, trace_cache, seed=spec.seed,
            repetitions=spec.repetitions, observability=observability,
            known={cell.capacity: cell.hit_ratio(baseline_label)
                   for cell in cells})
        for cell in cells:
            target = cell.hit_ratio(improved_label)
            try:
                b_baseline = equi_effective_buffer_size(
                    evaluate, target, low=1, high=high)
                ratio = b_baseline / cell.capacity
            except SimulationError:
                ratio = None  # target beyond the baseline's reach
            result.equi_effective_ratios[cell.capacity] = ratio
            if ratio is not None:
                narrate(f"B={cell.capacity:<6d} "
                        f"B({baseline_label})/B({improved_label})={ratio:.2f}",
                        observability)
        return result
    finally:
        trace_cache.clear()
