"""``python -m benchmarks.e2e compare BASE.json CHANGE.json``.

For each (workload, end-to-end metric) pair both result sets hold, the
verdict is:

- ``unresolved`` when either side's interquartile spread, as a share of
  its median, exceeds the metric's bound, unless every run of the change
  reads better than every run of the base;
- ``regression`` when the change's median is worse than the base's by
  more than the bound;
- ``ok`` otherwise.

The win fraction pairs the i-th run of each side; ties count for
neither. It supports later gain claims, which need nine tenths of pairs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .stats import relative_spread, summarize


def _better(a: float, b: float, direction: str) -> bool:
    """True when ``b`` reads better than ``a``."""
    return b < a if direction == "lower" else b > a


def verdict(base: Sequence[float], change: Sequence[float],
            direction: str, bound: float) -> Dict[str, object]:
    """Compare one metric's runs; see the module docstring."""
    base_summary, change_summary = summarize(base), summarize(change)
    base_median = base_summary["median"]
    shift = ((change_summary["median"] - base_median) / abs(base_median)
             if base_median else 0.0)
    worse_by = shift if direction == "lower" else -shift
    spread = max(relative_spread(base), relative_spread(change))
    dominates = all(_better(a, b, direction) for a in base for b in change)
    if spread > bound and not dominates:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "regression"
    else:
        outcome = "ok"
    pairs = list(zip(base, change))
    wins = sum(_better(a, b, direction) for a, b in pairs)
    return {"verdict": outcome, "base": base_summary,
            "change": change_summary, "shift": shift, "spread": spread,
            "wins": wins, "pairs": len(pairs)}


def compare_results(base: dict, change: dict) -> List[Dict[str, object]]:
    """One row per (workload, metric) present in both result sets."""
    rows = []
    for workload, base_entry in base["workloads"].items():
        change_entry = change["workloads"].get(workload)
        if change_entry is None:
            continue
        for metric, base_metric in base_entry["metrics"].items():
            change_metric = change_entry["metrics"].get(metric)
            if change_metric is None:
                continue
            row = verdict(base_metric["values"], change_metric["values"],
                          base_metric["better"], base_metric["bound"])
            row.update(workload=workload, metric=metric,
                       unit=base_metric["unit"], bound=base_metric["bound"])
            rows.append(row)
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    """The compare report, one line per (workload, metric)."""
    def side(summary: dict) -> str:
        return (f"{summary['median']:.4g} [{summary['q1']:.4g}, "
                f"{summary['q3']:.4g}]")

    lines = [f"{'workload':<14} {'metric':<12} {'base median [q1, q3]':<30} "
             f"{'change median [q1, q3]':<30} {'shift':>7} {'spread':>7} "
             f"{'bound':>6} {'wins':>6}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:<14} {row['metric']:<12} "
            f"{side(row['base']) + ' ' + row['unit']:<30} "
            f"{side(row['change']) + ' ' + row['unit']:<30} "
            f"{row['shift']:>+7.1%} {row['spread']:>7.1%} "
            f"{row['bound']:>6.0%} {row['wins']:>3}/{row['pairs']:<2}  "
            f"{row['verdict']}")
    return "\n".join(lines)
