"""The two-pool workload of Section 4.1 (modelling Example 1.1).

"We considered two pools of disk pages, Pool 1 with N1 pages and Pool 2
with N2 pages, with N1 < N2. ... alternating references are made to Pool 1
and Pool 2; then a page from that pool is randomly chosen. Thus each page
of Pool 1 has a probability of reference beta_1 = 1/(2*N1) ... and each
page of Pool 2 has probability beta_2 = 1/(2*N2)."

This models the B-tree-leaf / record-page alternation I1, R1, I2, R2, ...
of Example 1.1. Pool 1 pages are ids ``0 .. N1-1``; Pool 2 pages are ids
``N1 .. N1+N2-1``.

Strict alternation is *not* an Independent Reference Model string (the
pool sequence is deterministic), but the per-page marginal probabilities
are exactly the IRM vector above, which is what A0 consumes; the paper
measures A0 on the same alternating string. A ``strict_alternation=False``
mode draws the pool per reference with probability 1/2 each, giving a true
IRM source for the Section 3 analysis tests.
"""

from __future__ import annotations

from array import array
from typing import Dict, Sequence

from ..errors import ConfigurationError
from ..stats import SeededRng
from ..types import PageId
from .base import Workload


class TwoPoolWorkload(Workload):
    """Alternating references to a hot pool and a cold pool."""

    def __init__(self, n1: int = 100, n2: int = 10_000,
                 strict_alternation: bool = True) -> None:
        if n1 <= 0 or n2 <= 0:
            raise ConfigurationError("pool sizes must be positive")
        if n1 >= n2:
            raise ConfigurationError(
                "the paper requires N1 < N2 (hot pool smaller than cold)")
        self.n1 = n1
        self.n2 = n2
        self.strict_alternation = strict_alternation

    def page_ids(self, count: int, seed: int = 0) -> array:
        rng = SeededRng(seed)
        out = array("q", bytes(8 * count))
        for index in range(count):
            if self.strict_alternation:
                use_pool_1 = index % 2 == 0
            else:
                use_pool_1 = rng.random() < 0.5
            if use_pool_1:
                out[index] = rng.randrange(self.n1)
            else:
                out[index] = self.n1 + rng.randrange(self.n2)
        return out

    def pages(self) -> Sequence[PageId]:
        return range(self.n1 + self.n2)

    def pool_of(self, page: PageId) -> int:
        """1 for hot-pool pages, 2 for cold-pool pages."""
        if not 0 <= page < self.n1 + self.n2:
            raise ConfigurationError(f"page {page} outside the workload")
        return 1 if page < self.n1 else 2

    def reference_probabilities(self) -> Dict[PageId, float]:
        beta_1 = 1.0 / (2.0 * self.n1)
        beta_2 = 1.0 / (2.0 * self.n2)
        probabilities: Dict[PageId, float] = {}
        for page in range(self.n1):
            probabilities[page] = beta_1
        for page in range(self.n1, self.n1 + self.n2):
            probabilities[page] = beta_2
        return probabilities

    # -- paper protocol constants ------------------------------------------------

    @property
    def warmup_references(self) -> int:
        """The paper drops the first 10 * N1 references."""
        return 10 * self.n1

    @property
    def measured_references(self) -> int:
        """The paper measures the next 30 * N1 references."""
        return 30 * self.n1
