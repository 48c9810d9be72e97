"""The equi-effective buffer size metric B(1)/B(2).

Section 4.1: "for a given N1, N2 and buffer size B(2), if LRU-2 achieves a
cache hit ratio C(2), we expect that LRU-1 will achieve a smaller cache
hit ratio. But by increasing the number of buffer pages available, LRU-1
will eventually achieve an equivalent cache hit ratio, and we say that
this happens when the number of buffer pages equals B(1). Then the ratio
B(1)/B(2) ... is a measure of comparable buffering effectiveness of the
two algorithms."

:func:`equi_effective_buffer_size` is the one search: exponential
bracketing, then bisection, for the smallest capacity whose hit ratio
reaches the target. :func:`baseline_evaluator` supplies the hit ratio at
each probed capacity, in one of two ways:

- **Stack baselines.** A policy that declares the stack property (a
  ``stack_hits`` hook; only :class:`~repro.policies.LRUPolicy` does)
  holds, in a c-frame buffer, the pages it would hold in any larger
  one. One Mattson stack-distance pass per repetition trace therefore
  gives its measured hits at *every* capacity, and each probe is a
  lookup. A lookup returns the very float
  :func:`~repro.sim.runner.run_paper_protocol` would, so B(1) is
  bit-identical to bisecting over simulations; the curve is monotone,
  so that is the smallest capacity reaching the target.
- **Other baselines** simulate each probed capacity with
  :func:`~repro.sim.runner.run_paper_protocol`, cached per capacity.
  Their hit ratio need only be non-decreasing in the buffer size up to
  noise; bisection then finds a capacity where it crosses the target.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ConfigurationError, SimulationError
from ..obs import trace as obs_trace
from ..obs.dispatcher import EventDispatcher
from ..stats import mean_confidence_interval
from ..workloads.base import Workload
from .runner import PolicySpec, RunContext, run_paper_protocol
from .trace_cache import TraceCache

#: Evaluates the mean hit ratio of the baseline at a given capacity.
HitRatioFunction = Callable[[int], float]


def equi_effective_buffer_size(evaluate: HitRatioFunction,
                               target_hit_ratio: float,
                               low: int = 1,
                               high: int = 1 << 20) -> int:
    """Smallest capacity whose hit ratio reaches ``target_hit_ratio``.

    ``evaluate`` must be (noisily) non-decreasing in capacity. ``high`` is
    a hard cap: if even that capacity misses the target, a
    :class:`~repro.errors.SimulationError` is raised — for hit-ratio
    targets near the workload's compulsory-miss ceiling no finite buffer
    suffices. Both phases probe at most about ``log2(high / low)``
    capacities, and each capacity is evaluated once.
    """
    if not 0.0 <= target_hit_ratio <= 1.0:
        raise ConfigurationError("target hit ratio must lie in [0, 1]")
    if low <= 0 or high < low:
        raise ConfigurationError("need 0 < low <= high")

    cache: Dict[int, float] = {}

    def ratio(capacity: int) -> float:
        if capacity not in cache:
            cache[capacity] = evaluate(capacity)
        return cache[capacity]

    # Exponential bracketing upward from `low`.
    bracket_low = low
    bracket_high = low
    while ratio(bracket_high) < target_hit_ratio:
        if bracket_high >= high:
            raise SimulationError(
                f"hit ratio {target_hit_ratio:.4f} unreachable at "
                f"capacity {bracket_high} (got {ratio(bracket_high):.4f})")
        bracket_low = bracket_high
        bracket_high = min(high, bracket_high * 2)

    # Bisect for the smallest satisfying capacity.
    while bracket_low < bracket_high:
        middle = (bracket_low + bracket_high) // 2
        if ratio(middle) >= target_hit_ratio:
            bracket_high = middle
        else:
            bracket_low = middle + 1
    return bracket_high


def _stack_curves(workload: Workload, baseline: PolicySpec, capacity: int,
                  warmup: int, total: int, seed: int, repetitions: int,
                  trace_cache: TraceCache) -> Optional[List[Sequence[int]]]:
    """Measured hits by capacity, one curve per repetition, or None.

    None means the baseline does not declare the stack property. Traces
    come from ``trace_cache``, one repetition at a time.
    """
    if baseline.needs_trace:
        return None
    policy = baseline.build(RunContext(capacity=capacity, workload=workload))
    stack_hits = getattr(policy, "stack_hits", None)
    if stack_hits is None:
        return None
    curves = []
    with obs_trace.maybe_span("b1.curve", policy=baseline.label,
                              repetitions=repetitions, references=total):
        for repetition in range(repetitions):
            trace = trace_cache.get(workload, total, seed + repetition)
            pages = (trace.page_ids() if trace.plain
                     else [reference.page for reference in trace.references()])
            curves.append(stack_hits(pages, warmup))
    return curves


def baseline_evaluator(workload: Workload,
                       baseline: PolicySpec,
                       warmup: int,
                       measured: int,
                       trace_cache: TraceCache,
                       seed: int = 0,
                       repetitions: int = 1,
                       observability: Optional[EventDispatcher] = None,
                       known: Optional[Dict[int, float]] = None
                       ) -> HitRatioFunction:
    """The baseline's mean hit ratio as a function of capacity.

    The first lookup decides how later ones are answered (see the module
    docstring): stack baselines build their curves then and share them
    across every later lookup; other baselines run
    :func:`~repro.sim.runner.run_paper_protocol` per new capacity, with
    ``known`` hit ratios (e.g. a sweep's column) seeding that cache.
    Both read their traces from ``trace_cache``.
    """
    curves: Optional[List[Sequence[int]]] = None
    decided = False
    simulated: Dict[int, float] = dict(known or {})

    def evaluate(capacity: int) -> float:
        nonlocal curves, decided
        if not decided:
            curves = _stack_curves(workload, baseline, capacity, warmup,
                                   warmup + measured, seed, repetitions,
                                   trace_cache)
            decided = True
        if curves is not None:
            return mean_confidence_interval(
                [curve[min(capacity, len(curve) - 1)] / measured
                 for curve in curves]).mean
        if capacity not in simulated:
            simulated[capacity] = run_paper_protocol(
                workload, baseline, capacity, warmup, measured,
                seed=seed, repetitions=repetitions,
                observability=observability,
                trace_cache=trace_cache).hit_ratio
        return simulated[capacity]

    return evaluate


def equi_effective_ratio(workload: Workload,
                         baseline: PolicySpec,
                         improved: PolicySpec,
                         capacity: int,
                         warmup: int,
                         measured: int,
                         seed: int = 0,
                         repetitions: int = 1,
                         high: Optional[int] = None) -> float:
    """The paper's B(baseline)/B(improved) at the improved policy's capacity.

    Runs ``improved`` at ``capacity`` to get the target hit ratio, then
    searches for the baseline capacity matching it over the same traces.
    """
    trace_cache = TraceCache()
    try:
        target = run_paper_protocol(
            workload, improved, capacity, warmup, measured,
            seed=seed, repetitions=repetitions,
            trace_cache=trace_cache).hit_ratio
        evaluate = baseline_evaluator(
            workload, baseline, warmup, measured, trace_cache,
            seed=seed, repetitions=repetitions)
        upper = high if high is not None else max(64 * capacity, 4096)
        b_baseline = equi_effective_buffer_size(
            evaluate, target, low=max(1, capacity // 2), high=upper)
    finally:
        trace_cache.clear()
    return b_baseline / capacity
