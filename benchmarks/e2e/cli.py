"""Command line of the end-to-end benchmark.

One run of one workload (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload zipf-table --seed 0 \\
        --seconds 20 --trace 0

prints a human summary on stderr and, as the last line of stdout, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

A set of runs over every workload, round-robin so machine drift spreads
over all of them::

    PYTHONPATH=src python -m benchmarks.e2e --seed 0 --runs 3 --out DIR

One traced run per workload, printing the per-layer metrics::

    PYTHONPATH=src python -m benchmarks.e2e --traced --out DIR

Comparing two sets::

    python -m benchmarks.e2e compare BASE.json CHANGE.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import compare as compare_mod
from .harness import DECLARATION, ROOT, load_json, run_workload
from .stats import summarize
from .workloads import WORKLOADS


def machine() -> Dict[str, object]:
    """The block that tags results with the machine they came from."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"hostname": socket.gethostname(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform()}


def _metric_line(name: str, unit: str, values: List[float]) -> str:
    summary = summarize(values)
    line = f"  {name:<24} {summary['median']:>12.6g} {unit:<6}"
    if summary["n"] > 1:
        line += f" q1 {summary['q1']:.6g}  q3 {summary['q3']:.6g}"
    return f"{line}  n={summary['n']}"


def render_set(results: dict) -> str:
    """Every metric of a result set: median, quartiles, sample count."""
    lines = []
    for workload, entry in results["workloads"].items():
        status = "correct" if entry["correct"] else "INCORRECT"
        lines.append(f"{workload}: {entry['attempted']} ops attempted, "
                     f"{entry['failed']} failed, {status}")
        for error in entry.get("errors", []):
            lines.append(f"  ! {error}")
        for name, metric in entry["metrics"].items():
            lines.append(_metric_line(name, metric["unit"],
                                      metric["values"]))
    return "\n".join(lines)


def collect(declaration: dict, workloads: List[str], seed: int, runs: int,
            seconds: float, traced: bool, out_dir: Path) -> dict:
    """Run ``runs`` rounds over ``workloads``; the result-set document."""
    declared = {metric["name"]: metric for metric in
                declaration["per_layer" if traced else "end_to_end"]}
    entries = {name: {"correct": True, "attempted": 0, "failed": 0,
                      "errors": [], "runs": [], "metrics": {}}
               for name in workloads}
    for round_index in range(runs):
        for name in workloads:
            print(f"[round {round_index + 1}/{runs}] {name} ...",
                  file=sys.stderr, flush=True)
            run = run_workload(name, seed, seconds, traced, out_dir,
                               declaration=declaration)
            entry = entries[name]
            entry["runs"].append(run)
            entry["correct"] = entry["correct"] and run["correct"]
            entry["attempted"] += run["attempted"]
            entry["failed"] += run["failed"]
            entry["errors"].extend(run["errors"])
    for entry in entries.values():
        for name, metric in declared.items():
            values = [run["metrics"][name]["value"] for run in entry["runs"]
                      if name in run["metrics"]]
            if values:
                entry["metrics"][name] = {
                    "unit": metric["unit"], "better": metric["better"],
                    "bound": metric.get("bound"), "values": values,
                    **summarize(values)}
    return {"machine": machine(), "seed": seed, "runs": runs,
            "seconds": seconds, "traced": traced,
            "correct": all(entry["correct"] for entry in entries.values()),
            "workloads": entries}


def _single_run(args: argparse.Namespace, declaration: dict) -> int:
    out_dir = Path(args.out) if args.out else ROOT / ".e2e_out"
    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), out_dir, declaration=declaration)
    if not run["units"]:
        print("error: no unit ran: " + "; ".join(run["errors"]),
              file=sys.stderr)
        return 2
    for error in run["errors"]:
        print(f"! {error}", file=sys.stderr)
    for name, metric in run["metrics"].items():
        print(f"{args.workload} {name} {metric['value']:.6g} "
              f"{metric['unit']}", file=sys.stderr)
    print(json.dumps({key: run[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def _compare(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
    parser.add_argument("base", help="result set of the parent commit")
    parser.add_argument("change", help="result set of the change")
    args = parser.parse_args(argv)
    rows = compare_mod.compare_results(load_json(Path(args.base)),
                                       load_json(Path(args.change)))
    print(compare_mod.render(rows))
    return 0 if all(row["verdict"] == "ok" for row in rows) else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return _compare(argv[1:])
    declaration = load_json(DECLARATION)
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark (see benchmarks/e2e/README.md).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload once and print its JSON")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=declaration["run_seconds"],
                        help="run length in seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced runs, printing per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--runs", type=int, default=3,
                        help="rounds over every workload (default 3; "
                             "1 when traced)")
    parser.add_argument("--out", default=None,
                        help="directory for results and span files")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return _single_run(args, declaration)

    out_dir = Path(args.out or ".e2e_out")
    traced = bool(args.trace)
    results = collect(declaration, list(WORKLOADS), args.seed,
                      1 if traced else args.runs, args.seconds, traced,
                      out_dir)
    print(render_set(results))
    path = out_dir / ("traced.json" if traced else "results.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")
    print(f"results written to {path}", file=sys.stderr)
    return 0 if results["correct"] else 1
