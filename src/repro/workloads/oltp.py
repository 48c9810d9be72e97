"""Synthetic bank OLTP trace — the Section 4.3 substitute.

The paper's third experiment replays "a one-hour page reference trace of
the production OLTP system of a large bank ... approximately 470,000 page
references to a CODASYL database with a total size of 20 Gigabytes". That
trace no longer exists outside the authors' archive, so — per the
substitution policy in DESIGN.md — this generator synthesizes a trace
with the *same locality profile*, which is all a replacement-policy study
consumes. The paper quantifies that profile precisely:

- "40% of the references access only 3% of the database pages that were
  accessed in the trace";
- "90% of the references access 65% of the pages";
- "only about 1400 pages satisfy the criterion of the Five Minute Rule to
  be kept in memory (i.e., are re-referenced within 100 seconds)";
- one hour / 470,000 references  ->  ~130 references per second, so the
  100-second five-minute-rule window is ~13,000 references.

The model mirrors the CODASYL mechanisms of :mod:`repro.db.codasyl` at
trace scale, with four reference classes over disjoint page regions:

==============  ========================  ==================  =============
class           mechanism                 pages (of touched)  reference mass
==============  ========================  ==================  =============
root/teller     CALC on tiny hot types    100                 4%
hot accounts    CALC, skew-popular keys   1,300               36%
warm accounts   VIA-set chain walks       ~62% (28,900)       50%
batch/cold      sequential scan cursors   ~35% (16,300)       10%
==============  ========================  ==================  =============

Touched total T ~= 46,700 pages, so the hot classes together are ~3% of T
carrying ~40% of references, the bottom ~35% carries ~10%, and ~1,400
pages (the two hot classes) have median re-reference intervals under the
13,000-reference five-minute window while warm pages (mean interarrival
~58,000) do not. ``tests/workloads/test_oltp.py`` asserts every one of
these calibration targets on the generated trace, and
:mod:`repro.analysis.trace_stats` recomputes them the way EXPERIMENTS.md
reports them.

The generator is process-annotated (teller processes, batch scanners) and
emits writes for the account-update fraction, so the same trace drives
both the policy-level simulator and the full buffer manager.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence

from ..errors import ConfigurationError
from ..stats import SeededRng
from ..types import AccessKind, PageId, Reference
from .base import Workload

#: The paper's trace length.
PAPER_TRACE_LENGTH = 470_000

#: The 100-second five-minute-rule window expressed in references
#: (470,000 references per hour ~= 130.6/s; 100 s ~= 13,000 references).
FIVE_MINUTE_WINDOW_REFERENCES = 13_000


@dataclass(frozen=True)
class _Region:
    """A contiguous page region with a reference-mass share."""

    first_page: PageId
    pages: int
    mass: float


class BankOLTPWorkload(Workload):
    """Synthetic CODASYL bank trace calibrated to the paper's Section 4.3.

    Parameters scale the default profile; the class-level defaults
    reproduce the published statistics (see module docstring). Page ids
    are dense from 0; the *database* behind the trace is far larger
    (20 GB ~ 5.2M pages) but untouched pages never appear in a reference
    string, so they need no ids.
    """

    def __init__(self,
                 root_pages: int = 100,
                 hot_pages: int = 1_300,
                 warm_pages: int = 28_900,
                 cold_pages: int = 16_300,
                 root_mass: float = 0.04,
                 hot_mass: float = 0.36,
                 warm_mass: float = 0.50,
                 chain_walk_length: int = 8,
                 scan_processes: int = 3,
                 write_fraction: float = 0.25,
                 hot_band_fraction: float = 0.5,
                 hot_drift_rotations: float = 1.0) -> None:
        masses = (root_mass, hot_mass, warm_mass)
        if any(m < 0 for m in masses) or sum(masses) >= 1.0:
            raise ConfigurationError(
                "root/hot/warm masses must be non-negative and leave "
                "positive mass for the cold class")
        for name, count in (("root", root_pages), ("hot", hot_pages),
                            ("warm", warm_pages), ("cold", cold_pages)):
            if count <= 0:
                raise ConfigurationError(f"{name}_pages must be positive")
        if chain_walk_length <= 0:
            raise ConfigurationError("chain_walk_length must be positive")
        if scan_processes <= 0:
            raise ConfigurationError("scan_processes must be positive")
        if not 0.0 <= write_fraction <= 1.0:
            raise ConfigurationError("write_fraction must lie in [0, 1]")
        if not 0.0 < hot_band_fraction <= 1.0:
            raise ConfigurationError("hot_band_fraction must lie in (0, 1]")
        if hot_drift_rotations < 0.0:
            raise ConfigurationError("hot_drift_rotations cannot be negative")

        cold_mass = 1.0 - sum(masses)
        first = 0
        self.root = _Region(first, root_pages, root_mass)
        first += root_pages
        self.hot = _Region(first, hot_pages, hot_mass)
        first += hot_pages
        self.warm = _Region(first, warm_pages, warm_mass)
        first += warm_pages
        self.cold = _Region(first, cold_pages, cold_mass)
        self.total_pages = first + cold_pages
        self.chain_walk_length = chain_walk_length
        self.scan_processes = scan_processes
        self.write_fraction = write_fraction
        # The instantaneous hot set is a band covering hot_band_fraction of
        # the hot region; it drifts hot_drift_rotations times across the
        # region over the trace. This models the slow intra-hour movement
        # of OLTP hot spots: access patterns are "fairly stable" (paper
        # Section 4.3) yet recent frequency beats lifetime frequency,
        # which is exactly why LRU-2 outperformed LFU on the real trace.
        self.hot_band_fraction = hot_band_fraction
        self.hot_drift_rotations = hot_drift_rotations

    # -- generation --------------------------------------------------------------

    def references(self, count: int,
                   seed: int = 0) -> Iterator[Reference]:
        rng = SeededRng(seed)
        # A warm draw emits a whole chain walk (chain_walk_length
        # references), so its draw weight is its mass divided by the walk
        # length; the other classes emit one reference per draw.
        weights = [self.root.mass, self.hot.mass,
                   self.warm.mass / self.chain_walk_length, self.cold.mass]
        total_weight = sum(weights)
        cumulative: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total_weight
            cumulative.append(acc)
        cumulative[-1] = 1.0

        # Scanner cursors spread across the cold region.
        cursors = [self.cold.first_page
                   + (p * self.cold.pages) // self.scan_processes
                   for p in range(self.scan_processes)]
        # One pending chain walk: (next page, remaining steps, process).
        walk_page = 0
        walk_remaining = 0
        walk_process = 0
        emitted = 0
        while emitted < count:
            if walk_remaining > 0:
                yield self._account_ref(rng, walk_page, walk_process)
                walk_page += 1
                if walk_page >= self.warm.first_page + self.warm.pages:
                    walk_page = self.warm.first_page
                walk_remaining -= 1
                emitted += 1
                continue
            u = rng.random()
            if u <= cumulative[0]:
                # CALC access to a root (branch/teller) page; usually a
                # balance update, hence frequently a write.
                page = self.root.first_page + rng.randrange(self.root.pages)
                yield self._account_ref(rng, page, process=1 + rng.randrange(8))
            elif u <= cumulative[1]:
                # CALC access to a hot account page, drawn from the
                # slowly drifting hot band (see __init__). The band
                # travels across the hot region without wrapping, so
                # pages it leaves behind go cold for good and pages ahead
                # of it start with zero history — the moving-hot-spot
                # structure that separates recent frequency (LRU-2) from
                # lifetime frequency (LFU).
                band = max(1, int(self.hot.pages * self.hot_band_fraction))
                travel = self.hot.pages - band
                drift = min(travel, int(travel * self.hot_drift_rotations
                                        * emitted / max(1, count)))
                page = self.hot.first_page + drift + rng.randrange(band)
                yield self._account_ref(rng, page, process=1 + rng.randrange(8))
            elif u <= cumulative[2]:
                # Navigational chain walk through VIA-clustered members:
                # emits chain_walk_length roughly-consecutive warm pages.
                walk_page = self.warm.first_page + rng.randrange(self.warm.pages)
                walk_remaining = self.chain_walk_length - 1
                walk_process = 1 + rng.randrange(8)
                yield self._account_ref(rng, walk_page, walk_process)
                walk_page += 1
                if walk_page >= self.warm.first_page + self.warm.pages:
                    walk_page = self.warm.first_page
            else:
                # Batch sequential scan over the cold region.
                scanner = rng.randrange(self.scan_processes)
                page = cursors[scanner]
                next_page = page + 1
                if next_page >= self.cold.first_page + self.cold.pages:
                    next_page = self.cold.first_page
                cursors[scanner] = next_page
                yield Reference(page=page, kind=AccessKind.READ,
                                process_id=100 + scanner)
            emitted += 1

    def _account_ref(self, rng: SeededRng, page: PageId,
                     process: int) -> Reference:
        kind = (AccessKind.WRITE if rng.random() < self.write_fraction
                else AccessKind.READ)
        return Reference(page=page, kind=kind, process_id=process)

    # -- metadata -----------------------------------------------------------------

    def pages(self) -> Sequence[PageId]:
        return range(self.total_pages)

    @property
    def five_minute_pages(self) -> int:
        """Pages expected to satisfy the five-minute-rule criterion."""
        return self.root.pages + self.hot.pages

    def region_of(self, page: PageId) -> str:
        """Which class a page belongs to (diagnostics)."""
        for name, region in (("root", self.root), ("hot", self.hot),
                             ("warm", self.warm), ("cold", self.cold)):
            if region.first_page <= page < region.first_page + region.pages:
                return name
        raise ConfigurationError(f"page {page} outside the workload")

    def expected_mass(self) -> Dict[str, float]:
        """Reference-mass shares by class (sums to 1)."""
        return {"root": self.root.mass, "hot": self.hot.mass,
                "warm": self.warm.mass, "cold": self.cold.mass}
