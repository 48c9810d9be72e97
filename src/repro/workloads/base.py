"""Workload interface.

A workload is a reproducible source of page reference strings: given a
seed and a length it yields :class:`~repro.types.Reference` objects.
Synthetic workloads that satisfy the Independent Reference Model also
expose their true reference-probability vector, which is what the A0
oracle (Definition 3.1) and the Section 3 Bayesian analysis consume.
"""

from __future__ import annotations

import abc
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from ..errors import OracleError
from ..types import AccessKind, PageId, Reference


class Workload(abc.ABC):
    """A reproducible generator of page reference strings."""

    @abc.abstractmethod
    def references(self, count: int, seed: int = 0) -> Iterator[Reference]:
        """Yield ``count`` references, deterministically for a given seed."""

    def pages(self) -> Sequence[PageId]:
        """The page universe the workload may touch (best effort)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not enumerate its page universe")

    def page_ids(self, count: int, seed: int = 0) -> Optional[array]:
        """Materialize ``count`` references straight into an ``array('q')``.

        The bulk analogue of :meth:`references` for metadata-free
        workloads: same pages, same order, same RNG consumption for a
        given seed, but no per-reference :class:`~repro.types.Reference`
        object is ever built. Returns None when the stream carries
        metadata (writes, process/transaction ids) that a bare page-id
        array cannot represent — callers then fall back to
        :meth:`references`.

        This default drains :meth:`references` through
        :func:`compact_reference_pages`; subclasses with cheap samplers
        override it with a direct fill loop (and metadata-carrying
        generators override it to return None without generating).
        """
        return compact_reference_pages(self.references(count, seed=seed))

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

    Subclasses implement :meth:`reference_probabilities` (and usually a
    faster direct sampler); the default :meth:`references` samples i.i.d.
    from that vector by inverse-CDF over a precomputed cumulative table.
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

    def sample_page(self, rng) -> PageId:
        """Draw one page from the stationary distribution."""
        import bisect
        pages, cdf = self._tables()
        return pages[bisect.bisect_left(cdf, rng.random())]

    def references(self, count: int, seed: int = 0) -> Iterator[Reference]:
        from ..stats import SeededRng
        rng = SeededRng(seed)
        for _ in range(count):
            yield Reference(page=self.sample_page(rng))

    def page_ids(self, count: int, seed: int = 0) -> array:
        """Bulk sampling: identical stream to :meth:`references`, no
        generator frames or ``Reference`` objects — one ``sample_page``
        call per slot of a preallocated array."""
        from ..stats import SeededRng
        rng = SeededRng(seed)
        sample = self.sample_page
        out = array("q", bytes(8 * count))
        for i in range(count):
            out[i] = sample(rng)
        return out

    def pages(self) -> Sequence[PageId]:
        pages, _ = self._tables()
        return pages


def materialize(workload: Workload, count: int,
                seed: int = 0) -> List[Reference]:
    """Fully expand a workload into a list (needed by the Belady oracle)."""
    return list(workload.references(count, seed))


def compact_reference_pages(
        references: Iterable[Reference]) -> Optional[array]:
    """Compact a reference stream to an ``array('q')`` of page ids.

    Returns the array only when every reference is *plain* — a read with
    no process/transaction annotation — so that the page id alone
    reconstructs the reference exactly. Streams carrying writes or
    process ids (the OLTP trace) return None;
    :meth:`repro.sim.CachedTrace.from_references` stores those as a
    page column plus a write column and, when ids are present, the
    :class:`~repro.types.Reference` list.
    """
    pages = array("q")
    append = pages.append
    for ref in references:
        if (ref.kind is not AccessKind.READ or ref.process_id is not None
                or ref.txn_id is not None):
            return None
        append(ref.page)
    return pages
