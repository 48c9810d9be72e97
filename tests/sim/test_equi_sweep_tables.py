"""Tests for equi-effective search, sweeps, tables, and experiments."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim import (
    ExperimentSpec,
    PolicySpec,
    Table,
    equi_effective_buffer_size,
    equi_effective_ratio,
    format_table,
    run_experiment,
    sweep_buffer_sizes,
)
from repro.workloads import TwoPoolWorkload


class TestEquiEffectiveSearch:
    def test_finds_threshold_of_monotone_function(self):
        # Synthetic hit ratio: saturating curve 1 - 1/(1+B/10).
        evaluate = lambda b: 1.0 - 1.0 / (1.0 + b / 10.0)
        found = equi_effective_buffer_size(evaluate, target_hit_ratio=0.5,
                                           low=1, high=10_000)
        assert found == 10  # first B with ratio >= 0.5

    def test_exact_boundary(self):
        evaluate = lambda b: min(1.0, b / 100.0)
        assert equi_effective_buffer_size(evaluate, 0.25) == 25

    def test_unreachable_target_raises(self):
        evaluate = lambda b: 0.3
        with pytest.raises(SimulationError):
            equi_effective_buffer_size(evaluate, 0.9, high=256)

    def test_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            equi_effective_buffer_size(lambda b: 0.5, target_hit_ratio=1.5)
        with pytest.raises(ConfigurationError):
            equi_effective_buffer_size(lambda b: 0.5, 0.5, low=0)

    def test_converges_when_the_search_needs_many_probes(self):
        # 39 bracketing doublings plus ~38 bisection steps: a probe budget
        # would stop early and return an unconverged capacity.
        evaluate = lambda b: min(1.0, b / 10**12)
        assert equi_effective_buffer_size(
            evaluate, 0.5, high=1 << 41) == 5 * 10**11

    def test_caches_probes(self):
        calls = []

        def evaluate(b):
            calls.append(b)
            return min(1.0, b / 64.0)

        equi_effective_buffer_size(evaluate, 0.5, low=1, high=1024)
        assert len(calls) == len(set(calls))  # no capacity probed twice

    def test_lru2_vs_lru1_ratio_exceeds_one(self):
        workload = TwoPoolWorkload(n1=20, n2=400)
        ratio = equi_effective_ratio(
            workload, baseline=PolicySpec.lru(), improved=PolicySpec.lruk(2),
            capacity=20, warmup=1000, measured=4000, seed=1)
        assert ratio > 1.2


class TestSweep:
    def test_sweep_shape(self):
        workload = TwoPoolWorkload(n1=10, n2=100)
        cells = sweep_buffer_sizes(
            workload, [PolicySpec.lru(), PolicySpec.lruk(2)],
            capacities=[10, 20], warmup=200, measured=800)
        assert [cell.capacity for cell in cells] == [10, 20]
        for cell in cells:
            assert set(cell.results) == {"LRU-1", "LRU-2"}

    def test_duplicate_labels_rejected(self):
        workload = TwoPoolWorkload(n1=10, n2=100)
        with pytest.raises(ConfigurationError):
            sweep_buffer_sizes(workload,
                               [PolicySpec.lru(), PolicySpec.lru()],
                               [10], 10, 10)

    def test_progress_callback_invoked(self):
        workload = TwoPoolWorkload(n1=10, n2=100)
        lines = []
        sweep_buffer_sizes(workload, [PolicySpec.lru()], [10],
                           warmup=100, measured=200,
                           progress=lines.append)
        assert lines


class TestTables:
    def test_render_alignment(self):
        table = Table(title="T", columns=["B", "ratio"])
        table.add_row(100, 0.5)
        table.add_row(2000, 0.75)
        rendered = format_table(table)
        lines = rendered.splitlines()
        assert lines[0] == "T"
        assert "B" in lines[1] and "ratio" in lines[1]
        assert "0.500" in rendered and "0.750" in rendered

    def test_row_width_validated(self):
        table = Table(title="T", columns=["a", "b"])
        with pytest.raises(ConfigurationError):
            table.add_row(1)

    def test_none_renders_dash(self):
        table = Table(title="", columns=["x"])
        table.add_row(None)
        assert "-" in table.render()

    def test_column_extraction(self):
        table = Table(title="", columns=["B", "C"])
        table.add_row(1, 0.1)
        table.add_row(2, 0.2)
        assert table.column("B") == [1, 2]


class TestExperiment:
    def test_full_experiment_with_equi_effective(self):
        workload = TwoPoolWorkload(n1=10, n2=100)
        spec = ExperimentSpec(
            name="mini",
            workload=workload,
            policies=[PolicySpec.lru(), PolicySpec.lruk(2)],
            capacities=[10, 20],
            warmup=500, measured=2000, repetitions=1,
            equi_effective=("LRU-1", "LRU-2"),
            equi_effective_high=110)
        result = run_experiment(spec)
        table = result.to_table()
        assert table.columns[-1] == "B(LRU-1)/B(LRU-2)"
        for capacity in (10, 20):
            ratio = result.equi_effective_ratios[capacity]
            assert ratio is None or ratio >= 1.0

    def test_equi_effective_labels_validated(self):
        workload = TwoPoolWorkload(n1=10, n2=100)
        with pytest.raises(ConfigurationError):
            ExperimentSpec(name="bad", workload=workload,
                           policies=[PolicySpec.lru()],
                           capacities=[10], warmup=10, measured=10,
                           equi_effective=("LRU-1", "LRU-9"))

    def test_hit_ratios_accessor(self):
        workload = TwoPoolWorkload(n1=10, n2=100)
        spec = ExperimentSpec(
            name="mini", workload=workload,
            policies=[PolicySpec.lru()], capacities=[5, 10, 20],
            warmup=200, measured=500, repetitions=1)
        result = run_experiment(spec)
        ratios = result.hit_ratios("LRU-1")
        assert len(ratios) == 3
        # Hit ratio grows with buffer size (within noise).
        assert ratios[0] <= ratios[-1] + 0.05
