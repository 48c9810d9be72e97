"""Evolving access patterns: the moving-hotspot workload.

The paper repeatedly distinguishes LRU-K from LFU by adaptivity: LFU
"never forgets" and "does not adapt itself to evolving access patterns",
while "LRU-3 is less responsive than LRU-2 in the sense that it needs more
references to adapt itself to dynamic changes of reference frequencies"
(Section 4.1). Neither claim is exercised by the stationary Table 4.x
workloads, so this generator makes the phenomenon measurable: a hot set of
``hot_pages`` pages receives ``hot_fraction`` of the references, and every
``epoch_length`` references the hot set *jumps* to a disjoint region of
the page universe (or *drifts* by a configurable number of pages).

Ablation bench A4 runs LRU-1/LRU-2/LRU-3/LFU over this workload and
reports the per-epoch hit-ratio recovery, reproducing the paper's
qualitative ordering: LFU never recovers, high-K recovers slowly, LRU-2
recovers fast while still discriminating.
"""

from __future__ import annotations

from array import array
from typing import Dict, Sequence

from ..errors import ConfigurationError
from ..stats import SeededRng
from ..types import PageId
from .base import Workload


class MovingHotspotWorkload(Workload):
    """A skewed workload whose hot set relocates every epoch."""

    def __init__(self, db_pages: int = 10_000, hot_pages: int = 100,
                 hot_fraction: float = 0.8, epoch_length: int = 20_000,
                 drift_pages: int = 0) -> None:
        if hot_pages <= 0 or db_pages <= hot_pages:
            raise ConfigurationError("need 0 < hot_pages < db_pages")
        if not 0.0 < hot_fraction <= 1.0:
            raise ConfigurationError("hot_fraction must lie in (0, 1]")
        if epoch_length <= 0:
            raise ConfigurationError("epoch_length must be positive")
        if drift_pages < 0:
            raise ConfigurationError("drift_pages cannot be negative")
        self.db_pages = db_pages
        self.hot_pages = hot_pages
        self.hot_fraction = hot_fraction
        self.epoch_length = epoch_length
        # drift_pages == 0 means "jump": the hot set moves wholesale.
        self.drift_pages = drift_pages

    def hot_start(self, epoch: int) -> PageId:
        """First page of the hot set during the given epoch."""
        step = self.drift_pages if self.drift_pages else self.hot_pages
        return (epoch * step) % self.db_pages

    def page_ids(self, count: int, seed: int = 0) -> array:
        """Sample the stream, chunked by epoch (the hot-set start is
        loop-invariant within one epoch).

        Each reference draws one ``random()`` to pick hot or cold, then
        one ``randrange()`` over that set: a hot reference is uniform
        over the hot set, a cold one over the pages outside it.
        """
        rng = SeededRng(seed)
        random_ = rng.random
        getrandbits = rng.getrandbits
        db = self.db_pages
        hot = self.hot_pages
        cold = db - hot
        # randrange(n) is _randbelow: getrandbits(n.bit_length()),
        # rejected while >= n. Inlining it here skips randrange's
        # Python-level argument checking on every draw while consuming
        # the generator identically.
        bits_hot = hot.bit_length()
        bits_cold = cold.bit_length()
        fraction = self.hot_fraction
        epoch_length = self.epoch_length
        out = array("q", bytes(8 * count))
        index = 0
        while index < count:
            epoch = index // epoch_length
            start = self.hot_start(epoch)
            cold_base = start + hot
            end = min(count, (epoch + 1) * epoch_length)
            for i in range(index, end):
                if random_() < fraction:
                    draw = getrandbits(bits_hot)
                    while draw >= hot:
                        draw = getrandbits(bits_hot)
                    out[i] = (start + draw) % db
                else:
                    draw = getrandbits(bits_cold)
                    while draw >= cold:
                        draw = getrandbits(bits_cold)
                    out[i] = (cold_base + draw) % db
            index = end
        return out

    def pages(self) -> Sequence[PageId]:
        return range(self.db_pages)

    def epoch_probabilities(self, epoch: int) -> Dict[PageId, float]:
        """The stationary vector *within* one epoch (piecewise IRM)."""
        start = self.hot_start(epoch)
        hot_mass = self.hot_fraction / self.hot_pages
        cold_mass = (1.0 - self.hot_fraction) / (self.db_pages - self.hot_pages)
        probabilities = {page: cold_mass for page in range(self.db_pages)}
        for offset in range(self.hot_pages):
            probabilities[(start + offset) % self.db_pages] = hot_mass
        return probabilities
