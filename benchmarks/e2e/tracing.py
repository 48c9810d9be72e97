"""Outside-in layer tracing for the traced benchmark run.

The traced run wraps public entry points of the program from the
benchmark's own files; nothing inside ``src/`` changes. Each wrapper is
assigned to the name its caller looks up (a module global, a class
attribute, or the ``lock`` slot of a service shard), records a span at
that layer boundary and returns the wrapped call's result untouched, so
a traced run computes exactly what an untraced run computes.

The program's own tracer (:mod:`repro.obs.trace`) is deliberately not
used: while it is active the simulator declines its kernels, so it would
measure a different program.

A span is a list ``[span_id, name, parent_id, start_ns, end_ns, rid,
attrs]``, kept in memory and written out once the unit ends. Busy time
per span name accumulates for every call; the span list grows only
while :attr:`Recorder.keep` is set, which bounds memory on the
request-per-span service workload.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

_clock = time.perf_counter_ns

Span = list


class Recorder:
    """Collects spans from every installed wrapper."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.busy_ns: Dict[str, int] = defaultdict(int)
        #: Wrappers record only while enabled (the timed phase).
        self.enabled = False
        #: Completed spans are kept only while set.
        self.keep = True
        #: Run or request id stamped on new spans.
        self.rid: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, attrs: Optional[dict] = None) -> Span:
        """Open a span under the innermost open span of this thread."""
        stack = self._stack()
        span = [next(self._ids), name, stack[-1][0] if stack else None,
                _clock(), 0, self.rid, attrs]
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close the innermost open span (which must be ``span``)."""
        span[4] = _clock()
        self._stack().pop()
        self.busy_ns[span[1]] += span[4] - span[3]
        if self.keep:
            self.spans.append(span)

    def nearest(self, name: str) -> Optional[Span]:
        """The innermost open span called ``name`` on this thread."""
        for span in reversed(self._stack()):
            if span[1] == name:
                return span
        return None

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON, times in µs from the first span."""
        origin = min((span[3] for span in self.spans), default=0)
        records = [{"id": span[0], "name": span[1], "parent": span[2],
                    "start_us": (span[3] - origin) / 1e3,
                    "end_us": (span[4] - origin) / 1e3,
                    "rid": span[5], "attrs": span[6] or {}}
                   for span in sorted(self.spans, key=lambda s: s[3])]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(records, handle, separators=(",", ":"))
            handle.write("\n")


def _spanned(recorder: Recorder, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` in a span; ``before`` makes attrs, ``after`` amends them."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        span = recorder.begin(
            name, before(*args, **kwargs) if before is not None else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if after is not None:
            after(span, args, result)
        return result
    return wrapper


class _Patches:
    """Attribute assignments undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def assign(self, owner: object, name: str, value: object) -> None:
        try:
            original = vars(owner)[name]  # raw descriptor for classes
        except TypeError:  # a __slots__ instance
            original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def policy_label(policy: object) -> str:
    """The table column a policy instance belongs to (``lru-2``, ``a0``)."""
    policy = getattr(policy, "inner", policy)  # unwrap ProfiledPolicy
    name = type(policy).__name__
    if name == "LRUKPolicy":
        return f"lru-{policy.k}"
    return {"LRUPolicy": "lru-1", "LFUPolicy": "lfu",
            "A0Policy": "a0"}.get(name, name.lower())


def _policy_classes() -> list:
    from repro.core.lruk import LRUKPolicy
    from repro.policies.base import ReplacementPolicy

    seen, pending = [], [ReplacementPolicy, LRUKPolicy]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return [cls for cls in seen if "make_batch_kernel" in vars(cls)]


def _set_tier(recorder: Recorder, tier: str) -> None:
    simulate = recorder.nearest("simulate")
    if simulate is not None and simulate[6]["tier"] != "batch":
        simulate[6]["tier"] = tier


def _install_simulation(recorder: Recorder, patches: _Patches) -> None:
    from repro.sim import experiment, parallel, runner
    from repro.sim.cache import CacheSimulator
    from repro.sim.trace_cache import CachedTrace, TraceCache

    span = functools.partial(_spanned, recorder)
    patches.assign(parallel, "run_paper_protocol",
                   span("cell", parallel.run_paper_protocol))
    patches.assign(experiment, "run_paper_protocol",
                   span("b1.probe", experiment.run_paper_protocol))
    patches.assign(experiment, "equi_effective_buffer_size",
                   span("b1.search", experiment.equi_effective_buffer_size))
    patches.assign(experiment, "sweep_buffer_sizes",
                   span("sweep", experiment.sweep_buffer_sizes))
    patches.assign(experiment.ExperimentResult, "to_table",
                   span("report", experiment.ExperimentResult.to_table))
    patches.assign(runner, "measure_hit_ratio", span(
        "simulate", runner.measure_hit_ratio,
        before=lambda policy, references, *a, **k: {
            "policy": policy_label(policy), "refs": len(references),
            "tier": "object"}))

    def fused_ran(span_, args, ran):
        span_[6] = {"ran": ran}
        if ran:
            _set_tier(recorder, "kernel")

    patches.assign(CacheSimulator, "run_fused", span(
        "run_fused", CacheSimulator.run_fused, after=fused_ran))

    def materialized(span_, args, trace):
        span_[6] = {"refs": len(trace), "plain": trace.plain}

    materialize = vars(CachedTrace)["materialize"].__func__
    patches.assign(CachedTrace, "materialize", classmethod(span(
        "trace.materialize", materialize, after=materialized)))

    def cache_probe(span_, args, trace):
        span_[6]["hit"] = args[0].hits > span_[6].pop("hits_before")

    patches.assign(TraceCache, "get", span(
        "trace.get", TraceCache.get,
        before=lambda cache, *a, **k: {"hits_before": cache.hits},
        after=cache_probe))

    for cls in _policy_classes():
        patches.assign(cls, "make_batch_kernel", _batch_factory(
            recorder, vars(cls)["make_batch_kernel"]))


def _batch_factory(recorder: Recorder, make_batch_kernel: Callable):
    """Wrap a policy's ``make_batch_kernel``: ``None`` is a decline."""
    @functools.wraps(make_batch_kernel)
    def wrapper(self, capacity):
        kernel = make_batch_kernel(self, capacity)
        if kernel is None or not recorder.enabled:
            return kernel

        def batch(pages, warmup):
            span = recorder.begin("batch_kernel")
            try:
                result = kernel(pages, warmup)
            finally:
                recorder.end(span)
            span[6] = {"ran": result is not None}
            if result is not None:
                _set_tier(recorder, "batch")
            return result
        return batch
    return wrapper


class TimedLock:
    """A shard-lock proxy recording ``lock.wait`` and ``lock.hold`` spans."""

    __slots__ = ("_lock", "_recorder", "_hold")

    def __init__(self, lock, recorder: Recorder) -> None:
        self._lock = lock
        self._recorder = recorder
        self._hold: Optional[Span] = None

    def __enter__(self) -> bool:
        recorder = self._recorder
        if not recorder.enabled:
            self._lock.acquire()
            self._hold = None
            return True
        wait = recorder.begin("lock.wait")
        self._lock.acquire()
        recorder.end(wait)
        self._hold = recorder.begin("lock.hold")
        return True

    def __exit__(self, *exc: object) -> None:
        # Only the holder touches _hold, so no other thread races it.
        hold, self._hold = self._hold, None
        if hold is not None:
            self._recorder.end(hold)
        self._lock.release()


def _install_service(recorder: Recorder, patches: _Patches) -> None:
    from repro.buffer.pool import BufferPool
    from repro.service.sharded import ShardedBufferManager

    def fetched(span_, args, result):
        span_[6]["hit"] = result[1]

    patches.assign(ShardedBufferManager, "fetch", _spanned(
        recorder, "svc.fetch", ShardedBufferManager.fetch,
        before=lambda manager, page, tenant, *a, **k: {"tenant": tenant},
        after=fetched))
    patches.assign(BufferPool, "fetch", _spanned(
        recorder, "pool.fetch", BufferPool.fetch,
        before=lambda pool, page, *a, **k: {"hit": pool.is_resident(page)}))


@contextmanager
def installed(recorder: Recorder, manager=None) -> Iterator[Recorder]:
    """Install every wrapper (and shard-lock proxies on ``manager``).

    Everything is restored on exit, so tests can trace and untrace units
    in one process.
    """
    patches = _Patches()
    try:
        _install_simulation(recorder, patches)
        _install_service(recorder, patches)
        if manager is not None:
            for shard in manager.shards:
                patches.assign(shard, "lock", TimedLock(shard.lock, recorder))
        yield recorder
    finally:
        patches.undo()


# -- per-layer metrics from the recorded spans --------------------------------


def _seconds(ns: float) -> float:
    return ns / 1e9


def _median_us(values_ns: List[int]) -> float:
    return statistics.median(values_ns) / 1e3 if values_ns else 0.0


def _by_name(spans: List[Span]) -> Dict[str, List[Span]]:
    grouped: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        grouped[span[1]].append(span)
    return grouped


def _children(spans: List[Span]) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span[2] is not None:
            children[span[2]].append(span)
    return children


def self_time_ns(span: Span, children: Dict[int, List[Span]]) -> int:
    """A span's duration minus the time its child spans cover."""
    covered = sum(child[4] - child[3] for child in children[span[0]])
    return span[4] - span[3] - covered


def table_layers(recorder: Recorder, unit_ns: int) -> Dict[str, float]:
    """Per-layer metrics of one traced table unit."""
    spans = recorder.spans
    named = _by_name(spans)
    children = _children(spans)
    parents = {span[0]: span for span in spans}

    def under(span: Span, name: str) -> bool:
        parent = parents.get(span[2])
        while parent is not None:
            if parent[1] == name:
                return True
            parent = parents.get(parent[2])
        return False

    def total(name: str) -> int:
        return sum(span[4] - span[3] for span in named[name])

    simulate = named["simulate"]
    refs = sum(span[6]["refs"] for span in simulate)
    tier_refs = {"object": 0, "kernel": 0, "batch": 0}
    for span in simulate:
        tier_refs[span[6]["tier"]] += span[6]["refs"]
    sim_ns = total("simulate")
    materialized = named["trace.materialize"]
    materialized_refs = sum(span[6]["refs"] for span in materialized)
    plain_refs = sum(span[6]["refs"] for span in materialized
                     if span[6]["plain"])
    b1_ns = total("b1.search")
    layers = {
        "b1.searches": len(named["b1.search"]),
        "b1.s": _seconds(b1_ns),
        "b1.share": b1_ns / unit_ns if unit_ns else 0.0,
        "b1.probes": len(named["b1.probe"]),
        "b1.probe_refs": sum(span[6]["refs"] for span in simulate
                             if under(span, "b1.probe")),
        "sim.runs": len(simulate),
        "sim.s": _seconds(sim_ns),
        "sim.refs": refs,
        "sim.refs_per_s": refs / _seconds(sim_ns) if sim_ns else 0.0,
        "sim.refs_object": tier_refs["object"],
        "sim.refs_kernel": tier_refs["kernel"],
        "sim.refs_batch": tier_refs["batch"],
        "sim.kernel_share": ((tier_refs["kernel"] + tier_refs["batch"])
                             / refs if refs else 0.0),
        "trace.materialize.calls": len(materialized),
        "trace.materialize.s": _seconds(total("trace.materialize")),
        "trace.refs": materialized_refs,
        "trace.cache_hits": sum(1 for span in named["trace.get"]
                                if span[6]["hit"]),
        "trace.plain_share": (plain_refs / materialized_refs
                              if materialized_refs else 0.0),
        "sweep.s": _seconds(total("sweep")),
        "sweep.cells": len(named["cell"]),
        "sweep.self_s": _seconds(sum(self_time_ns(span, children)
                                     for span in named["sweep"])),
        "report.s": _seconds(total("report")),
    }
    for label in ("lru-1", "lru-2", "lfu", "a0"):
        layers[f"sim.{label}.s"] = _seconds(sum(
            span[4] - span[3] for span in simulate
            if span[6]["policy"] == label))
    return layers


def serve_layers(recorder: Recorder) -> Dict[str, float]:
    """Per-layer metrics of one traced service unit.

    Distributions come from the kept spans (the first requests of the
    timed phase); busy times cover every timed request.
    """
    spans = recorder.spans
    children = _children(spans)
    fetch_us: Dict[tuple, List[int]] = defaultdict(list)
    hold = {True: [], False: []}
    miss_overhead: List[int] = []
    post_lock: List[int] = []
    pool = {True: [], False: []}
    for span in spans:
        if span[1] == "pool.fetch":
            pool[span[6]["hit"]].append(span[4] - span[3])
        if span[1] != "svc.fetch":
            continue
        hit = span[6]["hit"]
        fetch_us[(span[6]["tenant"], hit)].append(span[4] - span[3])
        for held in children[span[0]]:
            if held[1] != "lock.hold":
                continue
            hold[hit].append(held[4] - held[3])
            post_lock.append(span[4] - held[4])
            if not hit:
                inside = sum(child[4] - child[3]
                             for child in children[held[0]]
                             if child[1] == "pool.fetch")
                miss_overhead.append(held[4] - held[3] - inside)
    return {
        "svc.hot_hit_us": _median_us(fetch_us[("hot", True)]),
        "svc.cold_hit_us": _median_us(fetch_us[("cold", True)]),
        "svc.cold_miss_us": _median_us(fetch_us[("cold", False)]),
        "svc.fetch.s": _seconds(recorder.busy_ns["svc.fetch"]),
        "svc.lock_wait.s": _seconds(recorder.busy_ns["lock.wait"]),
        "svc.lock_hold_hit_us": _median_us(hold[True]),
        "svc.lock_hold_miss_us": _median_us(hold[False]),
        "svc.miss_overhead_us": _median_us(miss_overhead),
        "svc.post_lock_us": _median_us(post_lock),
        "pool.fetch_hit_us": _median_us(pool[True]),
        "pool.fetch_miss_us": _median_us(pool[False]),
    }
