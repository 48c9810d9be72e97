"""Edge cases of the measurement protocol and experiment machinery."""

import pytest

from repro.errors import ConfigurationError
from repro.policies import LRUPolicy
from repro.sim import (
    ExperimentSpec,
    PolicySpec,
    measure_hit_ratio,
    run_experiment,
)
from repro.sim.equi_effective import equi_effective_buffer_size
from repro.workloads import TwoPoolWorkload


class TestEquiEffectiveEdges:
    def test_target_zero_is_smallest_capacity(self):
        assert equi_effective_buffer_size(lambda b: 0.5, 0.0, low=3) == 3

    def test_noisy_monotone_function_still_converges(self):
        # A slightly noisy but monotone-by-trend curve; the bisection
        # must land within the noise band of the true threshold (64).
        def evaluate(b):
            wiggle = 0.004 if b % 2 else -0.004
            return min(1.0, b / 128.0) + wiggle

        found = equi_effective_buffer_size(evaluate, 0.5, low=1, high=4096)
        assert 55 <= found <= 72

    def test_low_above_true_threshold_returns_low(self):
        assert equi_effective_buffer_size(lambda b: 1.0, 0.5, low=10) == 10


class TestSpecValidation:
    """A spec checks its protocol when it is built, before any trace."""

    WINDOW = "warm-up must leave a non-empty measurement window"

    def spec(self, **changes):
        fields = dict(name="bad", workload=TwoPoolWorkload(n1=10, n2=100),
                      policies=[PolicySpec.lru()], capacities=[5, 10],
                      warmup=50, measured=100, repetitions=1)
        fields.update(changes)
        return ExperimentSpec(**fields)

    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_repetitions(self, repetitions):
        with pytest.raises(ConfigurationError, match="repetition"):
            self.spec(repetitions=repetitions)

    @pytest.mark.parametrize("warmup", [-1, -50])
    def test_warmup(self, warmup):
        with pytest.raises(ConfigurationError) as error:
            self.spec(warmup=warmup)
        assert str(error.value) == self.WINDOW

    @pytest.mark.parametrize("measured", [0, -5])
    def test_measured(self, measured):
        with pytest.raises(ConfigurationError) as error:
            self.spec(measured=measured)
        assert str(error.value) == self.WINDOW

    @pytest.mark.parametrize("capacities", [[], [0], [5, -1]])
    def test_capacities(self, capacities):
        with pytest.raises(ConfigurationError, match="capacity"):
            self.spec(capacities=capacities)

    def test_window_message_is_the_protocols(self):
        with pytest.raises(ConfigurationError) as error:
            measure_hit_ratio(LRUPolicy(), [1, 2, 3], 1, warmup=3)
        assert str(error.value) == self.WINDOW


class TestExperimentEdges:
    def test_equi_effective_none_when_unreachable(self):
        # Force an unreachably small search cap: the ratio column must
        # contain None rather than crash.
        workload = TwoPoolWorkload(n1=10, n2=100)
        spec = ExperimentSpec(
            name="edge", workload=workload,
            policies=[PolicySpec.lru(), PolicySpec.lruk(2)],
            capacities=[20], warmup=200, measured=800, repetitions=1,
            equi_effective=("LRU-1", "LRU-2"),
            equi_effective_high=21)
        result = run_experiment(spec)
        ratio = result.equi_effective_ratios[20]
        assert ratio is None or ratio <= 21 / 20

    def test_spec_by_label(self):
        workload = TwoPoolWorkload(n1=10, n2=100)
        spec = ExperimentSpec(
            name="edge", workload=workload,
            policies=[PolicySpec.lru()], capacities=[5],
            warmup=10, measured=10)
        assert spec.spec_by_label("LRU-1").label == "LRU-1"
        with pytest.raises(ConfigurationError):
            spec.spec_by_label("nope")

    def test_single_capacity_single_policy(self):
        workload = TwoPoolWorkload(n1=10, n2=100)
        spec = ExperimentSpec(
            name="tiny", workload=workload,
            policies=[PolicySpec.lru()], capacities=[5],
            warmup=50, measured=100, repetitions=1)
        result = run_experiment(spec)
        table = result.to_table()
        assert len(table.rows) == 1
        assert table.rows[0][0] == 5
