"""Ablation experiments A1-A10 (DESIGN.md §2).

Each function runs one ablation and returns a
:class:`~repro.sim.tables.Table`; the ``benchmarks/`` directory wraps them
in pytest-benchmark entry points and the CLI exposes them by name. These
probe the design choices the paper discusses but does not tabulate:
the K sweep, the Correlated Reference Period, the Retained Information
Period, adaptivity to moving hot spots, sequential-scan immunity,
scale-invariance, analytic cross-checks, the post-1993 lineage, manual
pool tuning, and the victim-selection data structure.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..analysis import (
    a0_hit_ratio,
    fifo_hit_ratio_approximation,
    lru_hit_ratio_approximation,
)
from ..core import LRUKPolicy
from ..errors import ConfigurationError
from ..policies import MultiPoolPolicy, make_policy
from ..sim import (
    CachedTrace,
    CacheSimulator,
    PolicySpec,
    Table,
    TraceCache,
    measure_hit_ratio,
    run_paper_protocol,
)
from ..types import HitRatioCounter
from ..workloads import (
    BurstSpec,
    CorrelatedReferenceWrapper,
    MovingHotspotWorkload,
    ScanSwampingWorkload,
    TwoPoolWorkload,
    ZipfianWorkload,
)
from ..workloads.base import Workload


def ablation_k_sweep(ks: Sequence[int] = (1, 2, 3, 4, 5),
                     capacity: int = 100,
                     scale: float = 3.0,
                     seed: int = 0) -> Table:
    """A1: hit ratio vs K on the stable two-pool workload.

    The paper: "for K > 2, the LRU-K algorithm provides somewhat improved
    performance over LRU-2 for stable patterns of access" — expect a
    monotone-ish climb toward A0 with diminishing returns.
    """
    workload = TwoPoolWorkload()
    warmup = int(workload.warmup_references * scale)
    measured = int(workload.measured_references * scale)
    table = Table(
        title=f"A1 — LRU-K sweep on the stable two-pool workload (B={capacity})",
        columns=["K", "hit ratio"])
    traces = TraceCache()
    for k in ks:
        result = run_paper_protocol(
            workload, PolicySpec.lruk(k), capacity, warmup, measured,
            seed=seed, repetitions=3, trace_cache=traces)
        table.add_row(k, result.hit_ratio)
    a0 = run_paper_protocol(workload, PolicySpec.a0(), capacity,
                            warmup, measured, seed=seed, repetitions=3,
                            trace_cache=traces)
    table.add_row("A0", a0.hit_ratio)
    return table


def ablation_crp_sweep(crps: Sequence[int] = (0, 1, 2, 4, 8, 16, 32, 64),
                       capacity: int = 100,
                       burst_fraction: float = 0.4,
                       references: int = 40_000,
                       seed: int = 0) -> Table:
    """A2: LRU-2 hit ratio vs Correlated Reference Period under bursts.

    The base workload is the two-pool pattern; a fraction of references
    explode into correlated bursts (Section 2.1.1 pair types). Without a
    CRP, bursts fake short interarrival times and pollute the hot set;
    with a CRP covering the burst gaps, Table-4.1-like discrimination
    returns. The burst follow-ups inflate the trivially-hittable mass, so
    compare *relative* movement across CRP values, not Table 4.1 levels.
    """
    base = TwoPoolWorkload()
    workload = CorrelatedReferenceWrapper(
        base, burst_fraction=burst_fraction,
        spec=BurstSpec(extra_references=2, max_gap=3))
    warmup = references // 4
    measured = references - warmup
    table = Table(
        title=f"A2 — Correlated Reference Period sweep "
              f"(B={capacity}, burst fraction {burst_fraction:.0%})",
        columns=["CRP", "LRU-2 hit ratio", "uncorrelated refs",
                 "correlated refs"])
    trace = CachedTrace.materialize(workload, warmup + measured, seed)
    for crp in crps:
        policy = LRUKPolicy(k=2, correlated_reference_period=crp)
        simulator = measure_hit_ratio(policy, trace, capacity, warmup)
        table.add_row(crp, simulator.hit_ratio,
                      policy.stats.uncorrelated_references,
                      policy.stats.correlated_references)
    return table


def ablation_rip_sweep(rips: Sequence[Optional[int]] = (
        200, 400, 800, 1_600, 6_000, None),
                       capacity: int = 80,
                       scale: float = 1.0,
                       seed: int = 0) -> Table:
    """A3: Retained Information Period vs hit ratio and history memory.

    The Section 2.1.2 scenario needs history to outlive residence *and*
    the hot set to keep evolving (a static uniform hot set gets learned
    once through lucky residence overlaps and then never needs retained
    information again). Here 50 hot pages carry 1/16 of the references
    (per-page interarrival ~800) and the hot set jumps every 10,000
    references, while an unknown page's residence is only ~90 references:
    a newly-hot page is long gone from buffer before its second reference
    arrives, so only a retained HIST block (RIP >= the ~800 interarrival)
    lets LRU-2 recognize it — "otherwise we might reference the page p
    again relatively quickly and once again have no record of prior
    reference, drop it again, reference it again, etc." Below that
    threshold the re-learning after every jump is crippled; above it the
    hit ratio plateaus while the history footprint keeps growing —
    quantifying the paper's Section 5 "open issue" trade-off (the last
    column is the answer to "how much space we should set aside for
    history control blocks").
    """
    workload = MovingHotspotWorkload(db_pages=200_000, hot_pages=50,
                                     hot_fraction=0.0625,
                                     epoch_length=10_000)
    warmup = int(10_000 * scale)
    measured = int(30_000 * scale)
    table = Table(
        title=f"A3 — Retained Information Period sweep (B={capacity})",
        columns=["RIP", "LRU-2 hit ratio", "history blocks", "purged"])
    trace = CachedTrace.materialize(workload, warmup + measured, seed)
    for rip in rips:
        policy = LRUKPolicy(k=2, retained_information_period=rip)
        simulator = measure_hit_ratio(policy, trace, capacity, warmup)
        table.add_row("inf" if rip is None else rip,
                      simulator.hit_ratio,
                      policy.retained_blocks,
                      policy.history.purged_blocks)
    return table


def ablation_adaptivity(policy_names: Sequence[str] = (
        "lru", "lru-2", "lru-3", "lfu"),
                        epochs: int = 4,
                        epoch_length: int = 20_000,
                        capacity: int = 120,
                        seed: int = 0) -> Table:
    """A4: per-epoch hit ratios while the hot spot jumps.

    Expected shape (paper Sections 1.2/4.1/4.3): LFU never re-adapts,
    LRU-3 recovers more slowly than LRU-2, LRU-1 adapts instantly but
    discriminates poorly within an epoch.
    """
    workload = MovingHotspotWorkload(epoch_length=epoch_length)
    total = epochs * epoch_length
    columns = ["policy"] + [f"epoch {e}" for e in range(epochs)]
    table = Table(
        title=f"A4 — adaptivity to a moving hot spot "
              f"(B={capacity}, epoch={epoch_length})",
        columns=columns)
    for name in policy_names:
        if name.startswith("lru-") and name[4:].isdigit():
            policy = LRUKPolicy(k=int(name[4:]))
        else:
            policy = make_policy(name)
        simulator = CacheSimulator(policy, capacity)
        per_epoch: List[float] = []
        window = HitRatioCounter()
        for index, ref in enumerate(workload.references(total, seed=seed)):
            outcome = simulator.access(ref)
            window.record(outcome.hit)
            if (index + 1) % epoch_length == 0:
                per_epoch.append(window.hit_ratio)
                window.reset()
        label = "LRU-1" if name == "lru" else name.upper()
        table.add_row(label, *per_epoch)
    return table


def ablation_scan_swamping(capacity: int = 600,
                           references: int = 60_000,
                           seed: int = 0) -> Table:
    """A5: Example 1.2 — interactive hit ratio with scans on/off.

    Measures only the *interactive* stream's hit ratio. LRU-1 degrades
    sharply when scanners run (scan pages displace the hot set); LRU-2
    keeps the hot set because scan pages have infinite backward 2-distance.
    """
    swamped = ScanSwampingWorkload(hot_pages=500, db_pages=100_000,
                                   scan_processes=2, scan_share=0.4)
    quiet = swamped.interactive_only()
    warmup = references // 4
    table = Table(
        title=f"A5 — sequential-scan swamping, interactive hit ratio "
              f"(B={capacity})",
        columns=["policy", "no scans", "with scans", "degradation"])
    for name, label in (("lru", "LRU-1"), ("lru-2", "LRU-2"),
                        ("lfu", "LFU"), ("2q", "2Q")):
        ratios: Dict[str, float] = {}
        for scenario, workload in (("no scans", quiet),
                                   ("with scans", swamped)):
            if name == "2q":
                policy = make_policy(name, capacity=capacity)
            else:
                policy = make_policy(name)
            simulator = CacheSimulator(policy, capacity)
            interactive = HitRatioCounter()
            refs = workload.references(references, seed=seed)
            for index, ref in enumerate(refs):
                outcome = simulator.access(ref)
                if index >= warmup and ref.process_id == 0:
                    interactive.record(outcome.hit)
            ratios[scenario] = interactive.hit_ratio
        table.add_row(label, ratios["no scans"], ratios["with scans"],
                      ratios["no scans"] - ratios["with scans"])
    return table


def ablation_scaling(size_factors: Sequence[int] = (1, 2, 5, 10),
                     seed: int = 0) -> Table:
    """A6: scale-invariance of the two-pool results.

    The paper: "the same results hold if all page numbers N1, N2 and B are
    multiplied by 1000". We verify the hit-ratio surface is flat in the
    scale factor at B = 100 x factor.
    """
    table = Table(
        title="A6 — scale-invariance of the two-pool experiment "
              "(B = 100 x factor)",
        columns=["factor", "LRU-1", "LRU-2", "A0"])
    for factor in size_factors:
        workload = TwoPoolWorkload(n1=100 * factor, n2=10_000 * factor)
        capacity = 100 * factor
        warmup = workload.warmup_references
        measured = workload.measured_references
        traces = TraceCache()
        row: List = [factor]
        for spec in (PolicySpec.lru(), PolicySpec.lruk(2), PolicySpec.a0()):
            result = run_paper_protocol(workload, spec, capacity,
                                        warmup, measured, seed=seed,
                                        repetitions=2, trace_cache=traces)
            row.append(result.hit_ratio)
        table.add_row(*row)
    return table


def ablation_analytic_cross_check(capacities: Sequence[int] = (
        40, 100, 200, 300, 500),
                                  n: int = 1000,
                                  seed: int = 0) -> Table:
    """A7: simulated vs analytic hit ratios on the Zipfian workload.

    LRU simulation vs the characteristic-time approximation, FIFO vs its
    analogue, simulated A0 vs its closed form — the simulator and the
    Section 3 mathematics must agree. Every cell replays the same three
    seeds' traces, so one cache generates each of them once.
    """
    workload = ZipfianWorkload(n=n)
    probabilities = workload.reference_probabilities()
    warmup, measured = 10 * n, 30 * n
    table = Table(
        title=f"A7 — analytic cross-check on the Zipfian workload (N={n})",
        columns=["B", "LRU sim", "LRU analytic", "FIFO sim",
                 "FIFO analytic", "A0 sim", "A0 closed form"])
    traces = TraceCache()
    for capacity in capacities:
        lru, fifo, a0 = (
            run_paper_protocol(workload, spec, capacity, warmup, measured,
                               seed=seed, repetitions=3, trace_cache=traces)
            for spec in (PolicySpec.lru(),
                         PolicySpec.registry("FIFO", "fifo"),
                         PolicySpec.a0()))
        table.add_row(
            capacity,
            lru.hit_ratio,
            lru_hit_ratio_approximation(probabilities, capacity),
            fifo.hit_ratio,
            fifo_hit_ratio_approximation(probabilities, capacity),
            a0.hit_ratio,
            a0_hit_ratio(probabilities, capacity))
    return table


def ablation_lineage(capacity: int = 1000,
                     references: int = 150_000,
                     seed: int = 0) -> Table:
    """A8: LRU-2 against its descendants and the aging-counter family.

    2Q and ARC (post-1993 lineage), GCLOCK and LRD-V2 (the tuned-aging
    family the paper criticizes), on the OLTP trace.
    """
    from ..workloads import BankOLTPWorkload
    workload = BankOLTPWorkload()
    warmup = references // 5
    measured = references - warmup
    table = Table(
        title=f"A8 — lineage comparison on the OLTP trace (B={capacity})",
        columns=["policy", "hit ratio"])
    specs = [
        PolicySpec.lru(),
        PolicySpec.lruk(2),
        PolicySpec.lfu(),
        PolicySpec.capacity_aware("2Q", "2q"),
        PolicySpec.capacity_aware("ARC", "arc"),
        PolicySpec.capacity_aware("SLRU", "slru"),
        PolicySpec.capacity_aware("FBR", "fbr"),
        PolicySpec.capacity_aware("LIRS", "lirs"),
        PolicySpec.registry("GCLOCK", "gclock"),
        PolicySpec.registry("LRD-V2", "lrd-v2"),
    ]
    traces = TraceCache()
    for spec in specs:
        result = run_paper_protocol(workload, spec, capacity, warmup,
                                    measured, seed=seed, repetitions=1,
                                    trace_cache=traces)
        table.add_row(spec.label, result.hit_ratio)
    return table


def ablation_multipool(capacity: int = 150,
                       scale: float = 3.0,
                       seed: int = 0) -> Table:
    """A9: DBA-tuned multi-pool vs self-reliant LRU-2 (Section 1.1).

    The multi-pool baseline gets the *perfect* tuning for the two-pool
    workload: quota N1 for the hot pool, the rest for the cold pool. The
    paper's claim is that LRU-2 "approaches the effect of assigning page
    sets to different buffer pools of specifically tuned sizes" — without
    the hints. A mis-tuned variant shows the cost of stale hints.
    """
    workload = TwoPoolWorkload()
    warmup = int(workload.warmup_references * scale)
    measured = int(workload.measured_references * scale)
    hot_quota = min(workload.n1, capacity - 1)

    def tuned(ctx) -> MultiPoolPolicy:
        return MultiPoolPolicy(
            domain_of=lambda page: 1 if page < workload.n1 else 2,
            quotas={1: hot_quota, 2: ctx.capacity - hot_quota})

    def mistuned(ctx) -> MultiPoolPolicy:
        cold_quota = ctx.capacity - max(1, hot_quota // 4)
        return MultiPoolPolicy(
            domain_of=lambda page: 1 if page < workload.n1 else 2,
            quotas={1: max(1, hot_quota // 4), 2: cold_quota})

    specs = [
        PolicySpec("multi-pool (tuned)", tuned),
        PolicySpec("multi-pool (mistuned)", mistuned),
        PolicySpec.lruk(2),
        PolicySpec.lru(),
        PolicySpec.a0(),
    ]
    table = Table(
        title=f"A9 — manual pool tuning vs self-reliant LRU-2 (B={capacity})",
        columns=["policy", "hit ratio"])
    traces = TraceCache()
    for spec in specs:
        result = run_paper_protocol(workload, spec, capacity, warmup,
                                    measured, seed=seed, repetitions=3,
                                    trace_cache=traces)
        table.add_row(spec.label, result.hit_ratio)
    return table


def ablation_victim_structure(capacities: Sequence[int] = (100, 400, 1600),
                              references: int = 30_000,
                              seed: int = 0) -> Table:
    """A10: heap vs Figure 2.1 linear-scan victim selection.

    Decision-equivalence is property-tested elsewhere; this ablation
    reports wall-clock per reference, confirming the paper's remark that a
    real implementation "would actually be based on a search tree".
    """
    workload = ZipfianWorkload(n=20_000)
    table = Table(
        title="A10 — victim-selection data structure (LRU-2)",
        columns=["B", "heap us/ref", "scan us/ref", "speedup"])
    for capacity in capacities:
        timings: Dict[str, float] = {}
        for selection in ("heap", "scan"):
            policy = LRUKPolicy(k=2, selection=selection)
            simulator = CacheSimulator(policy, capacity)
            refs = list(workload.references(references, seed=seed))
            started = time.perf_counter()
            for ref in refs:
                simulator.access(ref)
            timings[selection] = ((time.perf_counter() - started)
                                  / references * 1e6)
        table.add_row(capacity, timings["heap"], timings["scan"],
                      timings["scan"] / timings["heap"])
    return table


#: Registry used by the CLI.
ABLATIONS = {
    "k-sweep": ablation_k_sweep,
    "crp": ablation_crp_sweep,
    "rip": ablation_rip_sweep,
    "adaptivity": ablation_adaptivity,
    "scan-swamping": ablation_scan_swamping,
    "scaling": ablation_scaling,
    "analytic": ablation_analytic_cross_check,
    "lineage": ablation_lineage,
    "multipool": ablation_multipool,
    "victim-structure": ablation_victim_structure,
}
