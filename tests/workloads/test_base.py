"""Tests for the workload base classes."""

import pytest

from repro.analysis.irm import normalized
from repro.errors import OracleError
from repro.types import PageId
from repro.workloads.base import SyntheticWorkload, Workload


class _Plain(Workload):
    def references(self, count, seed=0):
        from repro.types import Reference
        for index in range(count):
            yield Reference(page=index % 3)


class _Irm(SyntheticWorkload):
    def __init__(self, probabilities):
        self._probabilities = probabilities

    def reference_probabilities(self):
        return dict(self._probabilities)


class TestWorkloadDefaults:
    def test_pages_not_implemented_by_default(self):
        with pytest.raises(NotImplementedError):
            _Plain().pages()

    def test_probabilities_raise_oracle_error_by_default(self):
        with pytest.raises(OracleError):
            _Plain().reference_probabilities()


class TestSyntheticWorkload:
    def test_sampling_matches_probabilities(self):
        workload = _Irm({1: 0.7, 2: 0.2, 3: 0.1})
        pages = [r.page for r in workload.references(20_000, seed=1)]
        share = pages.count(1) / len(pages)
        assert share == pytest.approx(0.7, abs=0.02)

    def test_unnormalized_probabilities_are_renormalized(self):
        workload = _Irm({1: 7.0, 2: 2.0, 3: 1.0})
        pages = [r.page for r in workload.references(10_000, seed=2)]
        assert pages.count(1) / len(pages) == pytest.approx(0.7, abs=0.03)

    def test_pages_enumerates_support(self):
        workload = _Irm({5: 0.5, 9: 0.5})
        assert list(workload.pages()) == [5, 9]

    def test_deterministic_per_seed(self):
        workload = _Irm({1: 0.5, 2: 0.5})
        first = [r.page for r in workload.references(50, seed=3)]
        second = [r.page for r in workload.references(50, seed=3)]
        assert first == second
