"""A12 — bookkeeping overhead ("fairly simple and incurs little
bookkeeping overhead", paper Sections 1.2 / 2.1.3).

Run with::

    pytest benchmarks/bench_overhead.py --benchmark-only -s

Two views of the same claim:

- A12 measures mean per-reference processing cost for every registered
  policy on an identical Zipfian stream — LRU-2's overhead should be a
  small constant factor over classical LRU, not an asymptotic blow-up,
  thanks to the heap-backed victim selection (the literal Figure 2.1
  scan is bench A10's subject).
- A12b wraps each policy in :class:`repro.obs.ProfiledPolicy` and
  reports the p50/p95/p99 latency of every protocol hook (``observe`` /
  ``on_hit`` / ``on_admit`` / ``choose_victim`` / ``on_evict``). A mean
  can hide tail spikes in the lazy heap; the distribution cannot.
- A12c measures raw references/second for LRU-K's two victim selectors
  (heap vs literal Figure 2.1 scan), for the pre-normalized fast integer
  path, and for the fused simulation kernels
  (:mod:`repro.policies.kernel`), and writes the numbers to
  ``BENCH_overhead.json`` so CI can archive a perf trajectory (see
  docs/performance.md). The kernel rows gate CI: ``lruk_kernel`` must
  reach 1.5x ``lruk_heap`` (locally the target is 2x).
- A12d times a 4-policy x 4-capacity Table 4.2 sweep serially and under
  ``jobs=4``; on a multicore machine the parallel engine must deliver a
  >= 3x wall-clock speedup. Single-core machines record a
  ``skipped_reason`` instead of a meaningless speedup verdict; the
  payload also carries ``efficiency`` (speedup per usable core).
"""

from __future__ import annotations

import json
import os
import time

from repro.core import LRUKPolicy
from repro.obs import PROFILED_HOOKS, ProfiledPolicy
from repro.obs import perf as obs_perf
from repro.policies import make_policy
from repro.sim import (
    CachedTrace,
    CacheSimulator,
    PolicySpec,
    Table,
    fork_available,
    sweep_buffer_sizes,
)
from repro.workloads import ZipfianWorkload

from .conftest import bench_scale, emit

CAPACITY = 500
REFERENCES = 60_000
#: Hook-profiling stream length: timing every hook roughly doubles the
#: per-reference cost, so the distributional bench uses a shorter stream.
PROFILE_REFERENCES = 20_000

#: (label, factory) — one row each; capacity-aware policies get CAPACITY.
CONFIGS = (
    ("LRU-1", lambda: make_policy("lru")),
    ("LRU-2", lambda: LRUKPolicy(k=2)),
    ("LRU-2 +CRP", lambda: LRUKPolicy(k=2, correlated_reference_period=8)),
    ("LRU-3", lambda: LRUKPolicy(k=3)),
    ("LFU", lambda: make_policy("lfu")),
    ("FIFO", lambda: make_policy("fifo")),
    ("CLOCK", lambda: make_policy("clock")),
    ("GCLOCK", lambda: make_policy("gclock")),
    ("2Q", lambda: make_policy("2q", capacity=CAPACITY)),
    ("ARC", lambda: make_policy("arc", capacity=CAPACITY)),
    ("SLRU", lambda: make_policy("slru", capacity=CAPACITY)),
    ("FBR", lambda: make_policy("fbr", capacity=CAPACITY)),
)


def _run_overhead() -> Table:
    workload = ZipfianWorkload(n=20_000)
    references = list(workload.references(REFERENCES, seed=9))
    table = Table(
        title=f"A12 — per-reference policy overhead "
              f"(B={CAPACITY}, Zipfian N=20k, {REFERENCES} refs)",
        columns=["policy", "us/ref", "vs LRU-1"])
    timings = {}
    for label, factory in CONFIGS:
        simulator = CacheSimulator(factory(), CAPACITY)
        started = time.perf_counter()
        for reference in references:
            simulator.access(reference)
        timings[label] = ((time.perf_counter() - started)
                          / REFERENCES * 1e6)
    base = timings["LRU-1"]
    for label, _ in CONFIGS:
        table.add_row(label, timings[label], timings[label] / base)
    return table


def _run_hook_profiles() -> Table:
    """Drive every policy through a profiled simulator; tabulate tails."""
    workload = ZipfianWorkload(n=20_000)
    references = list(workload.references(PROFILE_REFERENCES, seed=9))
    table = Table(
        title=f"A12b — per-hook latency distribution, microseconds "
              f"(B={CAPACITY}, Zipfian N=20k, {PROFILE_REFERENCES} refs)",
        columns=["policy", "hook", "calls", "p50 us", "p95 us", "p99 us"])
    for label, factory in CONFIGS:
        profiled = ProfiledPolicy(factory())
        simulator = CacheSimulator(profiled, CAPACITY)
        for reference in references:
            simulator.access(reference)
        report = profiled.report()
        for hook in PROFILED_HOOKS:
            summary = report.get(hook)
            if summary is None:
                continue
            table.add_row(label, hook, int(summary["count"]),
                          summary["p50"], summary["p95"], summary["p99"])
    return table


def test_a12_bookkeeping_overhead(benchmark):
    table = benchmark.pedantic(_run_overhead, rounds=1, iterations=1)
    emit("A12 — bookkeeping overhead", table.render())
    factors = {row[0]: row[2] for row in table.rows}
    # "little bookkeeping overhead": LRU-2 within a small constant factor
    # of classical LRU on the same stream.
    assert factors["LRU-2"] < 5.0
    assert factors["LRU-3"] < 6.0


def _json_artifact_path() -> str:
    """Where A12c/A12d persist machine-readable numbers (CI uploads it)."""
    default = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_overhead.json")
    return os.environ.get("REPRO_BENCH_JSON", default)


#: Schema version stamped into every BENCH_*.json payload, so trend
#: tooling comparing artifacts across commits can detect shape changes
#: instead of mis-joining fields. Bump when a payload's keys change.
#: v3: a12c gained lruk_kernel/lru1_kernel rows; a12d gained
#: jobs/efficiency/skipped_reason.
#: v4: a12d speedup/efficiency are null when skipped_reason is present
#: (an unmeasurable run must not look like a sub-1.0 regression).
#: v5: top-level machine block (hostname/cpu_count/python); a12c gained
#: batch-kernel rows (lru1_batch/lruk_batch + same-trace *_kernel_hot
#: baselines, batch_trace config, numpy flag) and
#: trace_bake_refs_per_sec.
#: v6: the batch kernels and the columnar trace format are gone, and so
#: are the a12c rows, config blocks and flags that measured them.
BENCH_JSON_VERSION = 6


def _machine_block() -> dict:
    """Identify the box a payload was measured on.

    Perf numbers from different machines must never be compared as a
    trend; the trajectory tooling uses this block to partition records
    before diffing.
    """
    import platform
    import socket

    return {"hostname": socket.gethostname(),
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version()}


def _history_path() -> str:
    """The perf-trajectory ledger lives next to the JSON artifact."""
    return os.environ.get(
        "REPRO_BENCH_HISTORY",
        os.path.join(os.path.dirname(_json_artifact_path()),
                     obs_perf.HISTORY_FILENAME))


def _merge_json_artifact(payload: dict) -> None:
    """Merge a result block into the JSON artifact (bench order agnostic)."""
    path = _json_artifact_path()
    record = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            record = {}
    record.update(payload)
    record["version"] = BENCH_JSON_VERSION
    record["machine"] = _machine_block()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _throughput(policy, pages) -> float:
    """Drive the fast integer path; references per second."""
    simulator = CacheSimulator(policy, CAPACITY)
    access_page = simulator.access_page
    started = time.perf_counter()
    for page in pages:
        access_page(page)
    return len(pages) / (time.perf_counter() - started)


def _kernel_throughput(policy, pages) -> float:
    """Drive the fused kernel directly; references per second."""
    kernel = policy.make_kernel(CAPACITY)
    assert kernel is not None, "kernel unavailable"
    started = time.perf_counter()
    kernel(pages, 0, None)
    return len(pages) / (time.perf_counter() - started)


def _run_selector_throughput() -> "tuple[Table, dict]":
    """A12c: references/second, LRU-K heap vs scan vs the fused kernels."""
    count = max(10_000, int(REFERENCES * bench_scale(1.0)))
    workload = ZipfianWorkload(n=20_000)
    references = list(workload.references(count, seed=9))
    trace = CachedTrace.from_references(references)
    pages = trace.page_ids()

    rates = {
        "lruk_heap": _throughput(LRUKPolicy(k=2, selection="heap"), pages),
        "lruk_scan": _throughput(LRUKPolicy(k=2, selection="scan"), pages),
        "lru1": _throughput(make_policy("lru"), pages),
        "lruk_kernel": _kernel_throughput(LRUKPolicy(k=2), pages),
        "lru1_kernel": _kernel_throughput(make_policy("lru"), pages),
    }
    # The pre-fast-path baseline: the same stream as Reference objects
    # through the dispatching access() entry point.
    simulator = CacheSimulator(LRUKPolicy(k=2), CAPACITY)
    started = time.perf_counter()
    for reference in trace.references():
        simulator.access(reference)
    rates["lruk_heap_reference_objects"] = (
        count / (time.perf_counter() - started))

    payload = {"a12c": {"references": count, "capacity": CAPACITY,
                        "refs_per_sec": rates}}
    table = Table(
        title=f"A12c — victim-selector throughput "
              f"(B={CAPACITY}, Zipfian N=20k, {count} refs)",
        columns=["driver", "refs/sec", "vs scan"])
    for label in ("lruk_kernel", "lruk_heap", "lruk_scan",
                  "lruk_heap_reference_objects", "lru1_kernel", "lru1"):
        table.add_row(label, rates[label], rates[label] / rates["lruk_scan"])
    return table, payload


def _run_parallel_speedup() -> "tuple[Table, dict]":
    """A12d: serial vs jobs=4 wall clock on a 4x4 Table 4.2 grid."""
    scale = bench_scale(1.0)
    workload = ZipfianWorkload(n=1000)
    specs = [PolicySpec.lru(), PolicySpec.lruk(2), PolicySpec.lruk(3),
             PolicySpec.a0()]
    capacities = [60, 100, 140, 200]
    warmup = int(10_000 * scale)
    measured = int(30_000 * scale)

    def timed(jobs: int) -> "tuple[float, list]":
        started = time.perf_counter()
        cells = sweep_buffer_sizes(workload, specs, capacities,
                                   warmup=warmup, measured=measured,
                                   seed=5, repetitions=1, jobs=jobs)
        return time.perf_counter() - started, cells

    jobs = 4
    serial_elapsed, serial_cells = timed(1)
    parallel_elapsed, parallel_cells = timed(jobs)
    assert [c.results for c in serial_cells] == \
        [c.results for c in parallel_cells], "parallel sweep diverged"
    cores = os.cpu_count() or 1
    speedup = serial_elapsed / parallel_elapsed
    # Speedup is bounded by the cores the 4 workers can actually use, so
    # normalize it: efficiency ~1.0 means perfect scaling on this box,
    # and on a single core the whole exercise measures only fork
    # overhead — record why the verdict is skipped rather than a
    # meaningless sub-1.0 "speedup".
    usable = min(jobs, cores)
    efficiency = speedup / usable
    table = Table(
        title=f"A12d — parallel sweep engine, 4 policies x 4 capacities "
              f"(Zipfian N=1000, {warmup + measured} refs/cell, "
              f"{cores} cores)",
        columns=["mode", "seconds", "speedup"])
    table.add_row("serial", serial_elapsed, 1.0)
    table.add_row(f"jobs={jobs}", parallel_elapsed, speedup)
    stats = {"cores": cores,
             "jobs": jobs,
             "references_per_cell": warmup + measured,
             "serial_seconds": serial_elapsed,
             "parallel_seconds": parallel_elapsed,
             "speedup": speedup,
             "efficiency": efficiency}
    if cores < 2:
        stats["skipped_reason"] = (
            "single-core machine: parallel speedup is unmeasurable, "
            "only the serial/parallel equivalence check ran")
    elif not fork_available():
        stats["skipped_reason"] = (
            "fork start method unavailable: sweep ran serially")
    if "skipped_reason" in stats:
        # A skipped run measured nothing: a numeric sub-1.0 "speedup"
        # here would read as a regression to any consumer that misses
        # the reason field, so the measurement columns go null.
        stats["speedup"] = None
        stats["efficiency"] = None
    return table, {"a12d": stats}


def test_a12c_selector_throughput(benchmark):
    table, payload = benchmark.pedantic(_run_selector_throughput,
                                        rounds=1, iterations=1)
    emit("A12c — victim-selector throughput", table.render())
    _merge_json_artifact(payload)
    rates = payload["a12c"]["refs_per_sec"]
    obs_perf.append_record(
        _history_path(), "a12c", dict(rates),
        meta={"references": payload["a12c"]["references"],
              "capacity": CAPACITY, "cores": os.cpu_count() or 1})
    # The heap selector must beat the O(B) scan on a B=500 buffer, and
    # the fast integer path must beat driving Reference objects.
    assert rates["lruk_heap"] > rates["lruk_scan"]
    assert rates["lruk_heap"] > rates["lruk_heap_reference_objects"]
    # The fused kernel must deliver a real multiple over the per-reference
    # object path (CI re-checks this threshold on the fresh artifact).
    assert rates["lruk_kernel"] >= 1.5 * rates["lruk_heap"], rates


def test_a12d_parallel_sweep_speedup(benchmark):
    table, payload = benchmark.pedantic(_run_parallel_speedup,
                                        rounds=1, iterations=1)
    emit("A12d — parallel sweep speedup", table.render())
    _merge_json_artifact(payload)
    stats = payload["a12d"]
    meta = {"cores": stats["cores"], "jobs": stats["jobs"],
            "references_per_cell": stats["references_per_cell"]}
    if "skipped_reason" in stats:
        meta["skipped_reason"] = stats["skipped_reason"]
    obs_perf.append_record(
        _history_path(), "a12d",
        {"speedup": stats["speedup"], "efficiency": stats["efficiency"]},
        meta=meta)
    # The >= 3x target needs real cores and enough per-cell work to
    # amortize worker startup; on small machines the equivalence
    # assertion inside the run is still the functional check, and the
    # payload's skipped_reason documents why no verdict was rendered.
    if "skipped_reason" in stats:
        return
    if (fork_available() and (os.cpu_count() or 1) >= 4
            and stats["references_per_cell"] >= 20_000):
        assert stats["speedup"] >= 3.0, stats


def test_a12b_hook_latency_profile(benchmark):
    table = benchmark.pedantic(_run_hook_profiles, rounds=1, iterations=1)
    emit("A12b — per-hook latency distribution", table.render())
    by_policy = {}
    for policy, hook, calls, p50, p95, p99 in table.rows:
        assert calls > 0
        assert 0.0 <= p50 <= p95 <= p99
        by_policy.setdefault(policy, set()).add(hook)
    # Every policy exercised the full protocol on this stream.
    for policy, hooks in by_policy.items():
        assert hooks == set(PROFILED_HOOKS), (policy, hooks)
