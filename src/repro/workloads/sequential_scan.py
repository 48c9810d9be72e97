"""Sequential scans and the Example 1.2 "cache swamping" scenario.

Example 1.2: "a multi-process database application with good 'locality'
... 5000 buffered pages out of 1 million disk pages get 95% of the
references ... Now if a few batch processes begin 'sequential scans'
through all pages of the database, the pages read in by the sequential
scans will replace commonly referenced pages in buffer with pages unlikely
to be referenced again."

:class:`SequentialScanWorkload` is the pure scan (each page once, in
order, optionally repeated); :class:`ScanSwampingWorkload` interleaves an
interactive hot-set stream with one or more concurrent scan processes and
is the driver of ablation bench A5, which shows LRU-1 collapsing and
LRU-2 shrugging the scan off.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, Sequence

from ..errors import ConfigurationError
from ..stats import SeededRng
from ..types import PageId, Reference
from .base import Workload

#: Process id used for the interactive (hot-set) stream.
INTERACTIVE_PROCESS = 0


class SequentialScanWorkload(Workload):
    """Scan ``n`` pages in order, cycling if more references are requested."""

    def __init__(self, n: int, first_page: PageId = 0) -> None:
        if n <= 0:
            raise ConfigurationError("scan length must be positive")
        if first_page < 0:
            raise ConfigurationError("first page must be non-negative")
        self.n = n
        self.first_page = first_page

    def page_ids(self, count: int, seed: int = 0) -> array:
        return array("q", [self.first_page + index % self.n
                           for index in range(count)])

    def pages(self) -> Sequence[PageId]:
        return range(self.first_page, self.first_page + self.n)


class ScanSwampingWorkload(Workload):
    """Hot-set locality stream disturbed by batch sequential scans.

    Parameters
    ----------
    db_pages:
        Total database size in pages (Example 1.2: one million).
    hot_pages:
        Size of the popular set (Example 1.2: 5000). Hot pages are ids
        ``0..hot_pages-1``; the interactive stream draws uniformly from
        them with probability ``hot_fraction`` and uniformly from the rest
        of the database otherwise.
    hot_fraction:
        Fraction of interactive references that hit the hot set (0.95).
    scan_processes:
        Number of concurrent batch scanners (the "few batch processes").
        Each owns a private cursor starting at a distinct offset.
    scan_share:
        Fraction of all references issued by scanners, i.e. how aggressively
        the scans compete for buffer slots.
    """

    def __init__(self, db_pages: int = 100_000, hot_pages: int = 500,
                 hot_fraction: float = 0.95, scan_processes: int = 2,
                 scan_share: float = 0.4) -> None:
        if hot_pages <= 0 or db_pages <= hot_pages:
            raise ConfigurationError("need 0 < hot_pages < db_pages")
        if not 0.0 < hot_fraction <= 1.0:
            raise ConfigurationError("hot_fraction must lie in (0, 1]")
        if scan_processes < 0:
            raise ConfigurationError("scan_processes cannot be negative")
        if not 0.0 <= scan_share < 1.0:
            raise ConfigurationError("scan_share must lie in [0, 1)")
        if scan_processes == 0 and scan_share > 0:
            raise ConfigurationError("scan_share > 0 needs scanners")
        self.db_pages = db_pages
        self.hot_pages = hot_pages
        self.hot_fraction = hot_fraction
        self.scan_processes = scan_processes
        self.scan_share = scan_share

    def references(self, count: int, seed: int = 0) -> Iterator[Reference]:
        rng = SeededRng(seed)
        cursors = [(p * self.db_pages) // max(1, self.scan_processes)
                   for p in range(self.scan_processes)]
        for _ in range(count):
            if self.scan_processes and rng.random() < self.scan_share:
                scanner = rng.randrange(self.scan_processes)
                page = cursors[scanner]
                cursors[scanner] = (page + 1) % self.db_pages
                yield Reference(page=page, process_id=scanner + 1)
            else:
                if rng.random() < self.hot_fraction:
                    page = rng.randrange(self.hot_pages)
                else:
                    page = self.hot_pages + rng.randrange(
                        self.db_pages - self.hot_pages)
                yield Reference(page=page, process_id=INTERACTIVE_PROCESS)

    def interactive_only(self) -> "ScanSwampingWorkload":
        """The same workload with the scanners switched off (baseline)."""
        return ScanSwampingWorkload(
            db_pages=self.db_pages, hot_pages=self.hot_pages,
            hot_fraction=self.hot_fraction, scan_processes=0, scan_share=0.0)

    def pages(self) -> Sequence[PageId]:
        return range(self.db_pages)

    def reference_probabilities(self) -> Dict[PageId, float]:
        """Marginals of the *interactive* stream (scan cursors are not IRM).

        Only valid as an A0 input when ``scan_share == 0``; the swamping
        bench uses it for the no-scan baseline.
        """
        interactive = 1.0 - self.scan_share
        hot_mass = interactive * self.hot_fraction / self.hot_pages
        cold_mass = (interactive * (1.0 - self.hot_fraction)
                     / (self.db_pages - self.hot_pages))
        probabilities = {page: hot_mass for page in range(self.hot_pages)}
        for page in range(self.hot_pages, self.db_pages):
            probabilities[page] = cold_mass
        return probabilities
