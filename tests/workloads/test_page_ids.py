"""Bulk trace materialization: ``Workload.page_ids`` vs ``references``.

Every workload defines its stream exactly once. A plain workload (reads
only, no process or transaction id) defines ``page_ids(count, seed)``,
and its ``references`` yields one plain read per page of that column. A
workload whose references carry metadata defines ``references``, and its
``page_ids`` returns None without generating anything;
:meth:`CachedTrace.materialize` then builds the trace's columns from
``references``.
"""

import importlib
import pkgutil
from array import array

import pytest

import repro.workloads
from repro.sim import CachedTrace
from repro.types import AccessKind
from repro.workloads import TwoPoolWorkload, ZipfianWorkload
from repro.workloads.base import SyntheticWorkload, Workload
from repro.workloads.correlated import CorrelatedReferenceWrapper
from repro.workloads.hotspot import MovingHotspotWorkload
from repro.workloads.oltp import BankOLTPWorkload
from repro.workloads.sequential_scan import (
    ScanSwampingWorkload,
    SequentialScanWorkload,
)


class UniformIRM(SyntheticWorkload):
    """Minimal SyntheticWorkload exercising the base bulk sampler."""

    def reference_probabilities(self):
        return {page: 1.0 / 25 for page in range(1, 26)}


PLAIN_WORKLOADS = [
    ZipfianWorkload(n=400),
    ZipfianWorkload(n=37, alpha=0.9, beta=0.1),
    MovingHotspotWorkload(db_pages=2000, hot_pages=50, epoch_length=333),
    MovingHotspotWorkload(db_pages=2000, hot_pages=50, epoch_length=333,
                          drift_pages=7),
    SequentialScanWorkload(17),
    UniformIRM(),
    TwoPoolWorkload(n1=20, n2=300),
    TwoPoolWorkload(n1=20, n2=300, strict_alternation=False),
]

METADATA_WORKLOADS = [
    BankOLTPWorkload(),
    ScanSwampingWorkload(),
    CorrelatedReferenceWrapper(ZipfianWorkload(n=100)),
]


class TestStreamIdentity:
    @pytest.mark.parametrize("workload", PLAIN_WORKLOADS,
                             ids=lambda w: type(w).__name__)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_page_ids_matches_references(self, workload, seed):
        bulk = workload.page_ids(1000, seed=seed)
        drained = list(workload.references(1000, seed=seed))
        assert bulk is not None
        assert all(ref.kind is AccessKind.READ and ref.process_id is None
                   and ref.txn_id is None for ref in drained)
        assert list(bulk) == [ref.page for ref in drained]

    @pytest.mark.parametrize("workload", PLAIN_WORKLOADS,
                             ids=lambda w: type(w).__name__)
    def test_page_ids_returns_compact_array(self, workload):
        bulk = workload.page_ids(64, seed=3)
        assert isinstance(bulk, array)
        assert bulk.typecode == "q"
        assert len(bulk) == 64

    def test_epoch_boundary_mid_stream(self):
        # A count that is not an epoch multiple exercises the chunked
        # fast path's final partial epoch.
        workload = MovingHotspotWorkload(db_pages=500, hot_pages=20,
                                         epoch_length=100)
        bulk = workload.page_ids(250, seed=2)
        drained = [r.page for r in workload.references(250, seed=2)]
        assert list(bulk) == drained


class TestMetadataStreams:
    @pytest.mark.parametrize("workload", METADATA_WORKLOADS,
                             ids=lambda w: type(w).__name__)
    def test_metadata_workloads_return_none(self, workload):
        assert workload.page_ids(50, seed=0) is None

    def test_materialize_falls_back_to_references(self):
        trace = CachedTrace.materialize(BankOLTPWorkload(), 300, 1)
        assert not trace.plain
        assert len(trace) == 300


class TestMaterialize:
    def test_plain_workload_materializes_compact(self):
        trace = CachedTrace.materialize(ZipfianWorkload(n=100), 500, 2)
        assert trace.plain
        assert len(trace) == 500

    def test_materialize_stream_unchanged_by_bulk_path(self):
        # The cached trace must contain the same stream the reference
        # generator produces, so seeded results are stable across the
        # bulk-materialization change.
        workload = ZipfianWorkload(n=100)
        trace = CachedTrace.materialize(workload, 500, 2)
        assert list(trace.page_ids()) == [
            r.page for r in workload.references(500, seed=2)]


def _workload_classes():
    """Every :class:`Workload` subclass defined in :mod:`repro.workloads`."""
    for module in pkgutil.iter_modules(repro.workloads.__path__):
        importlib.import_module(f"repro.workloads.{module.name}")
    found, pending = set(), [Workload]
    while pending:
        for subclass in pending.pop().__subclasses__():
            pending.append(subclass)
            if subclass.__module__.startswith("repro.workloads."):
                found.add(subclass)
    return sorted(found, key=lambda cls: cls.__qualname__)


class TestOneGenerator:
    @pytest.mark.parametrize("cls", _workload_classes(),
                             ids=lambda cls: cls.__qualname__)
    def test_defines_its_stream_once(self, cls):
        below = cls.__mro__[:cls.__mro__.index(Workload)]
        defined = [name for name in ("page_ids", "references")
                   if any(name in vars(klass) for klass in below)]
        assert len(defined) == 1, (
            f"{cls.__qualname__} defines {defined or 'neither'}; a plain "
            "workload defines page_ids, an annotated one references")
