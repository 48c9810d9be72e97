"""Injection of correlated reference pairs (paper Section 2.1.1).

The paper's taxonomy of reference pairs:

1. **Intra-transaction** — read a row, update it before commit;
2. **Transaction-retry** — abort and re-run the same accesses;
3. **Intra-process** — the next transaction of the same process touches
   the same page (batch update pattern);
4. **Inter-process** — independent re-reference (the only kind that should
   *count* toward interarrival estimation).

:class:`CorrelatedReferenceWrapper` takes any base workload, whose
references model the *independent* (type 4) accesses, and expands a
configurable fraction of them into short bursts of types 1-3: follow-up
references to the same page within a configurable gap, tagged with the
same process/transaction ids. Used by the CRP ablation (bench A2) to show
that LRU-2 *without* a Correlated Reference Period wrongly credits bursts
with short interarrival times, while a suitable CRP restores Table-4.1-
like discrimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from ..errors import ConfigurationError
from ..stats import SeededRng
from ..types import AccessKind, PageId, Reference
from .base import Workload


@dataclass(frozen=True)
class BurstSpec:
    """Shape of injected correlated bursts.

    ``extra_references`` follow-ups are appended after an expanded
    reference, each within ``max_gap`` stream positions of the previous
    one (gap >= 1 drawn uniformly). ``write_follow_up`` marks follow-ups
    as writes, modelling the read-then-update intra-transaction pair.
    """

    extra_references: int = 2
    max_gap: int = 3
    write_follow_up: bool = True

    def __post_init__(self) -> None:
        if self.extra_references <= 0:
            raise ConfigurationError("bursts need at least one follow-up")
        if self.max_gap <= 0:
            raise ConfigurationError("max_gap must be positive")


class CorrelatedReferenceWrapper(Workload):
    """Expand a fraction of base references into correlated bursts.

    The output stream interleaves pending follow-ups with fresh base
    references, so bursts overlap realistically instead of pausing the
    world. Each expanded reference gets a fresh transaction id shared by
    its follow-ups.
    """

    def __init__(self, base: Workload, burst_fraction: float = 0.3,
                 spec: BurstSpec = BurstSpec()) -> None:
        if not 0.0 <= burst_fraction <= 1.0:
            raise ConfigurationError("burst_fraction must lie in [0, 1]")
        self.base = base
        self.burst_fraction = burst_fraction
        self.spec = spec

    def references(self, count: int, seed: int = 0) -> Iterator[Reference]:
        rng = SeededRng(seed)
        base_iter = self.base.references(count, seed)
        # pending[d] holds follow-ups scheduled d positions in the future.
        pending: List[List[Reference]] = [[] for _ in range(self.spec.max_gap + 1)]
        emitted = 0
        next_txn = 1
        while emitted < count:
            due = pending[0]
            if due:
                yield due.pop()
                emitted += 1
            else:
                base_ref = next(base_iter, None)
                if base_ref is None:
                    # Base exhausted early (it was asked for `count`); flush
                    # whatever follow-ups remain.
                    flat = [r for bucket in pending for r in bucket]
                    for ref in flat[:count - emitted]:
                        yield ref
                        emitted += 1
                    return
                if rng.random() < self.burst_fraction:
                    txn = next_txn
                    next_txn += 1
                    first = Reference(page=base_ref.page, kind=base_ref.kind,
                                      process_id=base_ref.process_id,
                                      txn_id=txn)
                    yield first
                    emitted += 1
                    self._schedule(first, txn, pending, rng)
                else:
                    yield base_ref
                    emitted += 1
            # Advance the schedule by one stream position.
            pending.append([])
            carried = pending.pop(0)
            pending[0].extend(carried)

    def _schedule(self, first: Reference, txn: int,
                  pending: List[List[Reference]], rng: SeededRng) -> None:
        position = 0
        for follow_up in range(self.spec.extra_references):
            position += rng.randrange(1, self.spec.max_gap + 1)
            slot = min(position, len(pending) - 1)
            kind = (AccessKind.WRITE if self.spec.write_follow_up
                    else AccessKind.READ)
            pending[slot].append(Reference(
                page=first.page, kind=kind,
                process_id=first.process_id, txn_id=txn))

    def pages(self) -> Sequence[PageId]:
        return self.base.pages()
