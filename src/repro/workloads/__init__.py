"""Workload generators producing page reference strings.

Each generator models one of the access patterns the paper evaluates or
motivates:

- :class:`~repro.workloads.two_pool.TwoPoolWorkload` — Section 4.1 / Example
  1.1 (alternating index/record references).
- :class:`~repro.workloads.zipfian.ZipfianWorkload` — Section 4.2 (80-20
  self-similar skew).
- :class:`~repro.workloads.oltp.BankOLTPWorkload` — Section 4.3 substitute
  (synthetic CODASYL bank trace; see DESIGN.md §3 for the calibration).
- :class:`~repro.workloads.sequential_scan.ScanSwampingWorkload` — Example
  1.2 (sequential scans swamping a hot set).
- :class:`~repro.workloads.hotspot.MovingHotspotWorkload` — evolving access
  patterns for the adaptivity ablation.
- :class:`~repro.workloads.correlated.CorrelatedReferenceWrapper` — injects
  the Section 2.1.1 correlated reference-pair types into any base stream.
- :mod:`~repro.workloads.mixed` — interleaving / concatenation combinators.

Each generator defines its stream once (see :mod:`~repro.workloads.base`):
the plain ones (two-pool, Zipfian, sequential scan, moving hotspot,
:class:`~repro.workloads.base.SyntheticWorkload`) sample a page-id array
in ``page_ids()`` and derive ``references()`` from it; the rest yield
annotated references from ``references()``.
"""

from .base import SyntheticWorkload, Workload
from .two_pool import TwoPoolWorkload
from .zipfian import ZipfianWorkload, zipf_theta, zipfian_probabilities
from .sequential_scan import ScanSwampingWorkload, SequentialScanWorkload
from .hotspot import MovingHotspotWorkload
from .oltp import BankOLTPWorkload
from .correlated import BurstSpec, CorrelatedReferenceWrapper
from .tpca import CustomerLookupWorkload
from .replay import TraceReplayWorkload
from .mixed import concatenate, interleave, ProbabilisticMix

__all__ = [
    "Workload",
    "SyntheticWorkload",
    "TwoPoolWorkload",
    "ZipfianWorkload",
    "zipf_theta",
    "zipfian_probabilities",
    "SequentialScanWorkload",
    "ScanSwampingWorkload",
    "MovingHotspotWorkload",
    "BankOLTPWorkload",
    "BurstSpec",
    "CorrelatedReferenceWrapper",
    "CustomerLookupWorkload",
    "TraceReplayWorkload",
    "concatenate",
    "interleave",
    "ProbabilisticMix",
]
