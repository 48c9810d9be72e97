"""End-to-end observability: metrics registry, events, and CLI flags."""

import json

import pytest

from repro import CacheSimulator, LRUKPolicy
from repro.cli import main
from repro.experiments import table_4_3_spec
from repro.obs import (
    EventDispatcher,
    MetricsRegistry,
    RingBufferSink,
    runtime,
)
from repro.sim import measure_hit_ratio, run_experiment
from repro.workloads import ZipfianWorkload


def run_zipfian(policy, references=8_000, capacity=60):
    """A skewed run long enough for full-K victims to dominate."""
    workload = ZipfianWorkload(n=500)
    simulator = CacheSimulator(policy, capacity=capacity)
    simulator.run(workload.references(references, seed=7))
    return simulator


class TestLRUKMetricsExport:
    def test_history_informed_evictions_populated(self):
        policy = LRUKPolicy(k=2)
        registry = MetricsRegistry()
        policy.export_metrics(registry)
        run_zipfian(policy)
        snapshot = registry.snapshot()
        assert snapshot["lruk.evictions"] > 0
        # The headline LRU-K discriminator: most victims at steady state
        # were chosen by their real backward K-distance, not by the
        # infinite-distance (no full history) tie-break.
        assert snapshot["lruk.history_informed_evictions"] > 0
        assert (snapshot["lruk.history_informed_evictions"]
                == snapshot["lruk.evictions"]
                - snapshot["lruk.infinite_distance_evictions"])
        assert snapshot["lruk.retained_history_blocks"] > 0

    def test_gauges_survive_policy_reset(self):
        policy = LRUKPolicy(k=2)
        registry = MetricsRegistry()
        policy.export_metrics(registry)
        run_zipfian(policy, references=1_000)
        assert registry.snapshot()["lruk.admissions"] > 0
        policy.reset()
        assert registry.snapshot()["lruk.admissions"] == 0.0

    def test_purge_events_reach_the_dispatcher(self):
        # A short RIP plus >256 touches triggers the amortized purge
        # demon; the policy reports each sweep as a PurgeEvent.
        dispatcher = EventDispatcher()
        ring = dispatcher.attach(RingBufferSink())
        policy = LRUKPolicy(k=2, retained_information_period=50)
        policy.bind_observability(dispatcher)
        run_zipfian(policy, references=4_000, capacity=20)
        purges = ring.events("purge")
        assert purges, "expected at least one purge sweep"
        assert all(event.dropped > 0 for event in purges)
        assert all(event.retained >= 0 for event in purges)


class TestRunnerSnapshots:
    def test_measurement_protocol_emits_three_phases(self):
        dispatcher = EventDispatcher()
        ring = dispatcher.attach(RingBufferSink())
        references = list(ZipfianWorkload(n=200).references(2_000, seed=3))
        measure_hit_ratio(LRUKPolicy(k=2), references,
                          capacity=30, warmup=500,
                          observability=dispatcher)
        phases = [event.phase for event in ring.events("snapshot")]
        assert phases == ["start", "measurement", "end"]
        end = ring.events("snapshot")[-1]
        assert 0.0 <= end.counters["hit_ratio"] <= 1.0
        assert end.counters["policy.history_informed_evictions"] >= 0


class TestCliObservability:
    @pytest.fixture()
    def jsonl(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        exit_code = main(["table4.1", "--scale", "0.1",
                          "--repetitions", "1", "--quiet",
                          "--metrics-out", str(path), "--timeline"])
        assert exit_code == 0
        out = capsys.readouterr().out
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        return records, out

    def test_metrics_out_is_parseable_jsonl(self, jsonl):
        records, _ = jsonl
        kinds = {record["event"] for record in records}
        assert {"access", "eviction", "snapshot", "window"} <= kinds
        final = records[-1]
        assert final["event"] == "snapshot"
        assert final["phase"] == "final"
        assert final["time"] is None
        # --metrics-out attaches a registry, so the final snapshot
        # carries whole-command protocol totals.
        assert final["counters"]["protocol.runs"] >= 1
        assert final["counters"]["protocol.references"] > 0

    def test_records_carry_run_context(self, jsonl):
        records, _ = jsonl
        evictions = [r for r in records if r["event"] == "eviction"]
        assert evictions
        sample = evictions[0]
        assert {"policy", "capacity", "seed"} <= set(sample)
        assert "backward_k_distance" in sample
        assert "history_informed" in sample

    def test_timeline_rendered_after_the_table(self, jsonl):
        _, out = jsonl
        assert "windowed hit ratio over time" in out

    def test_ambient_dispatcher_cleared_after_cli_run(self, jsonl):
        assert runtime.current() is None


class TestTierCounters:
    """Every run counts the tier that executed it, once."""

    def test_registry_only_dispatcher_keeps_table_4_3_on_kernels(self):
        # All 42 runs read the stack passes the sweep built: LRU-1's
        # curve, and the LRU-2 and LFU passes over the table's rows.
        dispatcher = EventDispatcher()
        dispatcher.metrics = MetricsRegistry()
        run_experiment(table_4_3_spec(scale=0.02, repetitions=1),
                       observability=dispatcher)
        counters = dispatcher.metrics.snapshot().counters
        assert counters.get("sim.tier.kernel", 0) == 0
        assert counters["sim.tier.stack"] == 42
        assert counters.get("sim.tier.object", 0) == 0
        assert counters["protocol.runs"] == 42

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_metrics_out_counts_every_run_as_object(self, tmp_path,
                                                     capsys, jobs):
        # --metrics-out attaches a sink that takes every access, which
        # demotes each run to the object path, in forked workers too.
        path = tmp_path / "metrics.jsonl"
        assert main(["table4.3", "--scale", "0.02", "--repetitions", "1",
                     "--quiet", "--jobs", jobs,
                     "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        final = json.loads(path.read_text().splitlines()[-1])
        counters = final["counters"]
        assert counters["sim.tier.object"] == 42
        assert counters.get("sim.tier.kernel", 0) == 0
