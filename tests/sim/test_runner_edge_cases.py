"""Edge cases of the measurement protocol and experiment machinery."""

from functools import partial

import pytest

from repro.errors import ConfigurationError
from repro.policies import LRUPolicy
from repro.sim import (
    ExperimentSpec,
    PolicySpec,
    measure_hit_ratio,
    run_experiment,
    sweep_buffer_sizes,
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
    """A spec checks its protocol when it is built, and a sweep before it
    builds any trace, with the same messages."""

    WINDOW = "warm-up must leave a non-empty measurement window"

    def rejected(self, **changes):
        """The one message both entry points reject ``changes`` with."""
        protocol = dict(capacities=[5, 10], warmup=50, measured=100,
                        repetitions=1)
        protocol.update(changes)
        workload, policies = TwoPoolWorkload(n1=10, n2=100), [PolicySpec.lru()]
        messages = set()
        for entry in (partial(ExperimentSpec, "bad", workload, policies),
                      partial(sweep_buffer_sizes, workload, policies)):
            with pytest.raises(ConfigurationError) as error:
                entry(**protocol)
            messages.add(str(error.value))
        assert len(messages) == 1, messages
        return messages.pop()

    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_repetitions(self, repetitions):
        assert "repetition" in self.rejected(repetitions=repetitions)

    @pytest.mark.parametrize("warmup", [-1, -50])
    def test_warmup(self, warmup):
        assert self.rejected(warmup=warmup) == self.WINDOW

    @pytest.mark.parametrize("measured", [0, -5])
    def test_measured(self, measured):
        assert self.rejected(measured=measured) == self.WINDOW

    # A repeated capacity would run its cells twice into a grid keyed by
    # (capacity, label), and leave cells_done short of cells_total.
    @pytest.mark.parametrize("capacities", [[], [0], [5, -1], [8, 8, 16]])
    def test_capacities(self, capacities):
        assert "capacity" in self.rejected(capacities=capacities)

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
