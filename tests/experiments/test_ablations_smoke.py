"""Smoke tests for the ablation functions at reduced sizes.

The full ablations run in ``benchmarks/``; here each function executes at
the smallest meaningful parameters so a regression in their plumbing (not
their science) is caught by the fast suite.
"""

import pytest

from repro.experiments.ablations import (
    ablation_adaptivity,
    ablation_analytic_cross_check,
    ablation_crp_sweep,
    ablation_k_sweep,
    ablation_multipool,
    ablation_rip_sweep,
    ablation_scaling,
    ablation_scan_swamping,
    ablation_victim_structure,
)
from repro.workloads import ZipfianWorkload


class TestAblationSmoke:
    def test_k_sweep(self):
        table = ablation_k_sweep(ks=(1, 2), capacity=60, scale=0.5)
        assert table.column("K") == [1, 2, "A0"]
        ratios = table.column("hit ratio")
        assert ratios[1] > ratios[0]  # K=2 beats K=1 even at tiny scale

    def test_crp_sweep(self):
        table = ablation_crp_sweep(crps=(0, 4), capacity=60,
                                   references=8000)
        assert len(table.rows) == 2
        correlated = dict(zip(table.column("CRP"),
                              table.column("correlated refs")))
        assert correlated[4] > correlated[0] == 0

    def test_rip_sweep(self):
        table = ablation_rip_sweep(rips=(200, None), scale=0.4)
        blocks = table.column("history blocks")
        assert blocks[0] < blocks[1]

    def test_adaptivity(self):
        table = ablation_adaptivity(policy_names=("lru", "lfu"),
                                    epochs=2, epoch_length=4000,
                                    capacity=60)
        assert table.columns == ["policy", "epoch 0", "epoch 1"]
        rows = {row[0]: row[1:] for row in table.rows}
        assert rows["LFU"][1] < rows["LFU"][0]  # LFU degrades after jump

    def test_scan_swamping(self):
        table = ablation_scan_swamping(capacity=300, references=15_000)
        degradation = dict(zip(table.column("policy"),
                               table.column("degradation")))
        assert degradation["LRU-1"] > degradation["LRU-2"]

    def test_scaling(self):
        table = ablation_scaling(size_factors=(1, 2))
        lru2 = table.column("LRU-2")
        assert abs(lru2[0] - lru2[1]) < 0.05

    def test_analytic(self):
        table = ablation_analytic_cross_check(capacities=(50,), n=200)
        row = table.rows[0]
        assert row[1] == pytest.approx(row[2], abs=0.05)

    def test_analytic_generates_each_trace_once(self, monkeypatch):
        seeds = []
        page_ids = ZipfianWorkload.page_ids

        def counted(self, count, seed=0):
            seeds.append(seed)
            return page_ids(self, count, seed)

        monkeypatch.setattr(ZipfianWorkload, "page_ids", counted)
        ablation_analytic_cross_check(capacities=(50, 100), n=200, seed=4)
        assert sorted(seeds) == [4, 5, 6]  # one per repetition's seed

    def test_multipool(self):
        table = ablation_multipool(capacity=120, scale=1.0)
        ratios = dict(zip(table.column("policy"),
                          table.column("hit ratio")))
        assert ratios["LRU-2"] > ratios["multi-pool (mistuned)"]

    def test_victim_structure(self):
        table = ablation_victim_structure(capacities=(50,),
                                          references=4000)
        assert table.rows[0][3] > 0  # a positive speedup number exists
