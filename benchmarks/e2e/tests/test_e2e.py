"""Self-tests of the end-to-end benchmark at smoke sizes.

Run with ``python -m pytest benchmarks/e2e/tests -q`` from the repository
root. Units run in-process here; the benchmark itself runs each unit in
a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import io
import re
import time

import pytest

from benchmarks.e2e import compare, units
from benchmarks.e2e.cli import render_set
from benchmarks.e2e.harness import DECLARATION, load_json, summarize_run
from benchmarks.e2e.stats import percentile, summarize
from benchmarks.e2e.workloads import WORKLOADS, params_for

SMOKE = {
    "zipf-table": {"scale": 0.05},
    "zipf-observed": {"scale": 0.05},
    "oltp-table": {"scale": 0.005},
    "serve-mixed": {"frames": 512, "warmup": 2000, "timed": 3000,
                    "cold_pages": 20_000, "span_requests": 1000,
                    "scrape_interval": 0.05},
}
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _unit(name: str, traced: bool, tmp_path) -> dict:
    """A unit run in this process; its set-up covers no interpreter start."""
    started = time.monotonic()
    result = units.run_unit({"workload": name, "seed": 0, "traced": traced,
                             "setup_only": False, "out_dir": str(tmp_path),
                             "params": params_for(name, SMOKE[name])})
    result["traced"] = traced
    result["setup_s"] = result["ready"] - started
    return result


@pytest.fixture(scope="module")
def smoke_units(tmp_path_factory):
    """An untraced and a traced unit of every workload."""
    out_dir = tmp_path_factory.mktemp("e2e")
    return {name: [_unit(name, False, out_dir), _unit(name, True, out_dir)]
            for name in WORKLOADS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_units_pass_their_own_checks(smoke_units, name):
    for unit in smoke_units[name]:
        assert unit["errors"] == []
        assert unit["failed"] == 0 and unit["attempted"] >= 1
        assert unit["run_s"] > 0


@pytest.mark.parametrize("name", ["zipf-table", "zipf-observed",
                                  "oltp-table"])
def test_tracing_keeps_the_table_output(smoke_units, name):
    plain, traced = smoke_units[name]
    assert plain["digest"] == traced["digest"]
    layers = traced["layers"]
    assert layers["sim.runs"] > 0 and layers["sweep.cells"] > 0
    assert layers["b1.searches"] > 0 and layers["b1.probes"] > 0
    assert layers["sim.refs"] == (layers["sim.refs_object"]
                                  + layers["sim.refs_kernel"]
                                  + layers["sim.refs_batch"])


def test_tiers_follow_the_trace_kind(smoke_units):
    zipf = smoke_units["zipf-table"][1]["layers"]
    observed = smoke_units["zipf-observed"][1]["layers"]
    oltp = smoke_units["oltp-table"][1]["layers"]
    assert zipf["trace.plain_share"] == 1.0 and zipf["sim.refs_kernel"] > 0
    assert observed["sim.kernel_share"] == 0.0
    assert oltp["trace.plain_share"] == 0.0 and oltp["sim.kernel_share"] == 0


def test_tracing_keeps_the_serve_hit_ratio(smoke_units):
    plain, traced = smoke_units["serve-mixed"]
    assert plain["hit_ratio"] == traced["hit_ratio"]
    layers = traced["layers"]
    assert layers["svc.fetch.s"] > 0
    assert layers["pool.fetch_miss_us"] > layers["pool.fetch_hit_us"] > 0


def test_wrappers_are_removed_after_a_traced_unit(smoke_units):
    from repro.buffer.pool import BufferPool
    from repro.service.sharded import ShardedBufferManager
    from repro.sim import experiment, runner
    from repro.sim.cache import CacheSimulator
    from repro.sim.trace_cache import CachedTrace

    for function in (ShardedBufferManager.fetch, BufferPool.fetch,
                     experiment.run_paper_protocol, runner.measure_hit_ratio,
                     CacheSimulator.run_fused, CachedTrace.materialize):
        assert not hasattr(function, "__wrapped__")


def test_seed_zero_matches_the_cli(tmp_path):
    from repro.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["table4.2", "--scale", "0.05", "--quiet"]) == 0
    unit = _unit("zipf-table", False, tmp_path)
    assert units.text_digest(stdout.getvalue()) == unit["digest"]


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1000))
    assert percentile(samples, 0.99) == 989
    with pytest.raises(ValueError):
        percentile(samples[:999], 0.99)
    with pytest.raises(ValueError):
        percentile(list(range(9999)), 0.999)
    assert percentile(list(range(10_000)), 0.999) == 9989


def test_declared_names_are_well_formed():
    declaration = load_json(DECLARATION)
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer")
             for entry in declaration[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert {entry["name"] for entry in declaration["workloads"]} == set(
        WORKLOADS)


def test_printed_names_are_declared(smoke_units):
    declaration = load_json(DECLARATION)
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        declared = [metric["name"] for metric in declaration[key]]
        results = {"workloads": {}}
        for name, pair in smoke_units.items():
            chosen = pair if traced else pair[:1]
            run = summarize_run(name, params_for(name, SMOKE[name]), 0,
                                chosen, [unit["setup_s"] for unit in chosen],
                                [], traced, declaration)
            assert run["correct"], run["errors"]
            assert sorted(run["metrics"]) == sorted(declared)
            results["workloads"][name] = {
                **run, "metrics": {
                    metric: {"unit": value["unit"],
                             "values": [value["value"]]}
                    for metric, value in run["metrics"].items()}}
        for line in render_set(results).splitlines():
            if line.startswith("  "):
                printed = line.split()[0]
                assert NAME.match(printed) and printed in declared


def _rows(base, change, better="lower", bound=0.1):
    metric = {"unit": "s", "better": better, "bound": bound}
    return compare.compare_results(
        {"workloads": {"w": {"metrics": {"m": {**metric,
                                                "values": base}}}}},
        {"workloads": {"w": {"metrics": {"m": {**metric,
                                                "values": change}}}}})


@pytest.mark.parametrize("base, change, better, expected", [
    ([1.00, 1.01, 0.99], [1.00, 1.02, 0.98], "lower", "ok"),
    ([1.00, 1.01, 0.99], [1.20, 1.21, 1.19], "lower", "regression"),
    ([1.00, 1.01, 0.99], [0.80, 0.81, 0.79], "lower", "ok"),
    ([1.00, 1.01, 0.99], [0.80, 0.81, 0.79], "higher", "regression"),
    ([1.0, 1.5, 0.7, 1.2], [1.1, 1.6, 0.8, 1.3], "lower", "unresolved"),
    ([1.0, 1.5, 0.7, 1.2], [0.5, 0.6, 0.55, 0.58], "lower", "ok"),
])
def test_compare_verdicts(base, change, better, expected):
    (row,) = _rows(base, change, better)
    assert row["verdict"] == expected


def test_compare_counts_paired_wins():
    (row,) = _rows([1.0, 1.0, 1.0], [0.9, 1.1, 1.0])
    assert (row["wins"], row["pairs"]) == (1, 3)
    assert row["base"] == summarize([1.0, 1.0, 1.0])
