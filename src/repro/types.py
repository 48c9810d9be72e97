"""Core value types shared across the library.

The central type is :class:`Reference`: one element of a *page reference
string* :math:`r_1, r_2, \\ldots, r_t` in the sense of Section 2 of the
paper. A reference identifies the page touched and, optionally, which
process/transaction touched it and whether the access dirtied the page —
metadata the Correlated Reference Period machinery (Section 2.1.1) and the
buffer manager can exploit.

Time is measured in *logical* units: the subscript ``t`` of the reference
string, i.e. a count of page accesses. :mod:`repro.clock` maps logical time
to simulated seconds when wall-clock-denominated parameters (the paper's
"5 seconds" CRP, "200 seconds" RIP) are needed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

#: A page identifier. Pages are named by non-negative integers, exactly as
#: the paper's set ``N = {1, 2, ..., n}`` of disk pages.
PageId = int


class AccessKind(enum.Enum):
    """How a page was accessed.

    ``READ`` leaves the frame clean (if it was clean); ``WRITE`` marks it
    dirty so that eviction must write it back to disk.
    """

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True, slots=True)
class Reference:
    """One element of a page reference string.

    Parameters
    ----------
    page:
        The page touched.
    kind:
        Read or write access. Defaults to READ; replacement decisions in the
        paper are read/write agnostic, but the buffer manager uses this to
        count write-backs.
    process_id:
        Identifier of the process issuing the reference. Used by workload
        generators that model the paper's reference-pair taxonomy
        (Section 2.1.1); the default LRU-K configuration follows the paper
        in *not* distinguishing processes.
    txn_id:
        Identifier of the enclosing transaction, if any.
    """

    page: PageId
    kind: AccessKind = AccessKind.READ
    process_id: Optional[int] = None
    txn_id: Optional[int] = None

    @property
    def is_write(self) -> bool:
        """True when the access dirties the page."""
        return self.kind is AccessKind.WRITE


def as_reference(item: "Reference | PageId") -> Reference:
    """Coerce a bare page id into a read :class:`Reference`.

    Workload code and tests may supply plain integers; the simulator
    normalizes through this helper so every code path sees `Reference`.
    """
    if isinstance(item, Reference):
        return item
    return Reference(page=item)


def reference_stream(items: Iterable["Reference | PageId"]) -> Iterator[Reference]:
    """Normalize an iterable of page ids / references into references."""
    for item in items:
        yield as_reference(item)


@dataclass(slots=True)
class AccessOutcome:
    """The simulator's verdict for a single reference.

    Attributes
    ----------
    reference:
        The reference that was processed.
    time:
        Logical time (1-based reference-string subscript) at which it
        was processed.
    hit:
        True when the page was already resident.
    evicted:
        The page evicted to make room, or None when no eviction happened
        (hit, or free frame available).
    evicted_dirty:
        True when the evicted page required a write-back.
    """

    reference: Reference
    time: int
    hit: bool
    evicted: Optional[PageId] = None
    evicted_dirty: bool = False


@dataclass
class HitRatioCounter:
    """Streaming hit/miss counter yielding the paper's cache hit ratio C = h/T."""

    hits: int = 0
    misses: int = 0

    def record(self, hit: bool) -> None:
        """Account one reference."""
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    @property
    def total(self) -> int:
        """Number of references accounted so far."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """C = h / T; zero when nothing was recorded."""
        if self.total == 0:
            return 0.0
        return self.hits / self.total

    def reset(self) -> None:
        """Forget all recorded references (used at the warm-up boundary)."""
        self.hits = 0
        self.misses = 0

    def merge(self, other: "HitRatioCounter") -> "HitRatioCounter":
        """Return a new counter combining two measurement windows."""
        return HitRatioCounter(hits=self.hits + other.hits,
                               misses=self.misses + other.misses)
