"""Workload interface.

A workload is a reproducible source of page reference strings: given a
seed and a length it yields :class:`~repro.types.Reference` objects.
Synthetic workloads that satisfy the Independent Reference Model also
expose their true reference-probability vector, which is what the A0
oracle (Definition 3.1) and the Section 3 Bayesian analysis consume.

Each workload defines its stream exactly once. A *plain* workload, whose
references are reads with no process or transaction id, defines
:meth:`Workload.page_ids`, and the base :meth:`Workload.references`
yields one plain read per page of that column. A workload whose
references carry metadata defines :meth:`Workload.references`, and the
base :meth:`Workload.page_ids` returns None without generating anything.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence

from ..errors import OracleError
from ..stats import SeededRng
from ..types import PageId, Reference


class Workload:
    """A reproducible generator of page reference strings.

    A subclass overrides exactly one of :meth:`page_ids` (a plain stream)
    and :meth:`references` (a stream whose references carry metadata).
    """

    def page_ids(self, count: int, seed: int = 0) -> Optional[array]:
        """The page ids of ``count`` references as an ``array('q')``,
        deterministically for a given seed.

        A plain workload samples its stream here, with no per-reference
        :class:`~repro.types.Reference` object. This default returns
        None: the stream carries writes or process/transaction ids that
        a bare page-id array cannot represent, and callers fall back to
        :meth:`references`.
        """
        return None

    def references(self, count: int, seed: int = 0) -> Iterator[Reference]:
        """Yield ``count`` references, deterministically for a given seed.

        This default yields one plain read per page of :meth:`page_ids`,
        so a plain workload's two views are the same stream.
        """
        pages = self.page_ids(count, seed=seed)
        if pages is None:
            raise NotImplementedError(
                f"{type(self).__name__} defines neither page_ids nor "
                "references")
        for page in pages:
            yield Reference(page=page)

    def pages(self) -> Sequence[PageId]:
        """The page universe the workload may touch (best effort)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not enumerate its page universe")

    def reference_probabilities(self) -> Dict[PageId, float]:
        """True per-page reference probabilities (IRM workloads only).

        Raises :class:`~repro.errors.OracleError` when the workload is not
        an Independent Reference Model source (e.g. trace replay), since
        then no stationary vector exists for A0 to use.
        """
        raise OracleError(
            f"{type(self).__name__} has no stationary probability vector")


class SyntheticWorkload(Workload):
    """Base for IRM workloads defined by an explicit probability vector.

    Subclasses implement :meth:`reference_probabilities`;
    :meth:`page_ids` samples i.i.d. from that vector by inverse-CDF over
    a precomputed cumulative table.
    """

    _cdf_cache: Optional[List[float]] = None
    _page_cache: Optional[List[PageId]] = None

    def _tables(self) -> "tuple[List[PageId], List[float]]":
        if self._cdf_cache is None or self._page_cache is None:
            probabilities = self.reference_probabilities()
            pages = sorted(probabilities)
            cdf: List[float] = []
            acc = 0.0
            for page in pages:
                acc += probabilities[page]
            # Renormalize against floating error, then build the CDF.
            total = acc
            acc = 0.0
            for page in pages:
                acc += probabilities[page] / total
                cdf.append(acc)
            cdf[-1] = 1.0
            self._page_cache = pages
            self._cdf_cache = cdf
        return self._page_cache, self._cdf_cache

    def page_ids(self, count: int, seed: int = 0) -> array:
        """One uniform variate per reference, inverted through the CDF."""
        pages, cdf = self._tables()
        random_ = SeededRng(seed).random
        out = array("q", bytes(8 * count))
        for i in range(count):
            out[i] = pages[bisect_left(cdf, random_())]
        return out

    def pages(self) -> Sequence[PageId]:
        pages, _ = self._tables()
        return pages

