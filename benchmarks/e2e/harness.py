"""Parent side: spawn units, repeat them for the run length, aggregate.

Every unit is a fresh child interpreter, so set-up time (interpreter
start, imports, the program's own set-up) is measured the way a user
pays it. One run of a workload repeats untraced units until the run
length has passed and reports each end-to-end metric as the median over
its units. A traced run makes one untraced unit and one traced unit.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from .workloads import params_for

ROOT = Path(__file__).resolve().parents[2]
DECLARATION = ROOT / "BENCHMARK.json"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: A run must exit well inside the 180 s every invocation is allowed.
RUN_DEADLINE_S = 170.0

#: Set-up-only probes after each untraced unit: interpreter start is the
#: noisiest measurement, so ``setup_s`` takes its median over about
#: three times as many samples as there are units.
SETUP_PROBES = 2


class UnitFailed(Exception):
    """A child unit exited abnormally or printed no result."""


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def spawn_unit(request: dict, timeout: float) -> dict:
    """Run one unit in a fresh interpreter; its result plus ``setup_s``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), str(ROOT),
                          env.get("PYTHONPATH")) if part)
    command = [sys.executable, "-m", "benchmarks.e2e.child",
               json.dumps(request)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise UnitFailed(f"unit exceeded {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise UnitFailed(f"unit exited {proc.returncode}: {tail[0]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def run_units(name: str, seed: int, seconds: float, traced: bool,
              out_dir: Path):
    """Spawn a run's units; ``(params, units, setups, failures)``.

    ``setups`` holds the set-up time of every unit and of
    :data:`SETUP_PROBES` set-up-only probes after each untraced unit.
    Stops at the first failure when no unit has succeeded, since then the
    program cannot run here at all.
    """
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    params = params_for(name)
    request = {"workload": name, "params": params, "seed": seed,
               "out_dir": str(out_dir), "traced": False,
               "setup_only": False}
    units: List[dict] = []
    setups: List[float] = []
    failures: List[str] = []

    def attempt(**flags) -> Optional[dict]:
        try:
            unit = spawn_unit({**request, **flags},
                              deadline - time.monotonic())
        except UnitFailed as exc:
            failures.append(str(exc))
            return None
        setups.append(unit["setup_s"])
        return unit

    def run_unit(traced_unit: bool = False) -> Optional[dict]:
        unit = attempt(traced=traced_unit)
        if unit is not None:
            unit["traced"] = traced_unit
            units.append(unit)
        return unit

    if traced:
        if run_unit() is not None:
            run_unit(traced_unit=True)
        return params, units, setups, failures
    while True:
        unit_start = time.monotonic()
        if run_unit() is None and not units:
            return params, units, setups, failures
        for _ in range(SETUP_PROBES):
            attempt(setup_only=True)
        now = time.monotonic()
        if now - started >= seconds or now + (now - unit_start) > deadline:
            return params, units, setups, failures


def _expected_digest(name: str, params: dict, seed: int) -> Optional[str]:
    entry = load_json(DIGESTS).get(name)
    if entry is None or entry["scale"] != params.get("scale"):
        return None
    return entry["seeds"].get(str(seed))


def summarize_run(name: str, params: dict, seed: int, units: List[dict],
                  setups: List[float], failures: List[str], traced: bool,
                  declaration: dict) -> dict:
    """The run's result in the benchmark's output form, plus ``errors``."""
    errors = list(failures)
    for unit in units:
        errors.extend(unit["errors"])
    # Traced or not, every unit of one seed must compute the same thing.
    if params["kind"] == "table":
        digests = {unit["digest"] for unit in units}
        if len(digests) > 1:
            errors.append("table output differs between units of one seed")
        expected = _expected_digest(name, params, seed)
        if expected is not None and digests - {expected}:
            errors.append(f"table digest differs from the recorded "
                          f"seed-{seed} digest")
    elif len({unit["hit_ratio"] for unit in units}) > 1:
        errors.append("hit ratio differs between units of one seed")

    untraced = [unit for unit in units if not unit["traced"]]
    if traced:
        values = layer_metrics(units, declaration)
    elif untraced:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(u["run_s"] for u in untraced),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"]
                                             for u in untraced),
        }
    else:
        values = {}
    declared = declaration["per_layer" if traced else "end_to_end"]
    units_by_name = {metric["name"]: metric["unit"] for metric in declared}
    return {
        "correct": not errors,
        "attempted": sum(unit["attempted"] for unit in units) + len(failures),
        "failed": sum(unit["failed"] for unit in units) + len(failures),
        "metrics": {metric: {"value": value, "unit": units_by_name[metric]}
                    for metric, value in values.items()},
        "errors": errors,
    }


def layer_metrics(units: List[dict], declaration: dict) -> Dict[str, float]:
    """Per-layer metrics of a traced run; bypassed layers read 0.

    Values the unit measures itself (latencies, hit ratio, scrapes, the
    program's own trace export) come from the untraced unit; values
    derived from wrapper spans come from the traced unit.
    """
    metrics = {metric["name"]: 0.0 for metric in declaration["per_layer"]}
    plain = next((unit for unit in units if not unit["traced"]), None)
    traced = next((unit for unit in units if unit["traced"]), None)
    if plain is not None:
        metrics.update((key, value) for key, value in plain["values"].items()
                       if key in metrics)
    if traced is not None:
        metrics.update(traced["layers"])
        if plain is not None:
            metrics["trace_overhead"] = traced["run_s"] / plain["run_s"]
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 out_dir: Path, declaration: dict) -> dict:
    """One benchmark run of one workload, summarized."""
    out_dir.mkdir(parents=True, exist_ok=True)
    params, units, setups, failures = run_units(name, seed, seconds,
                                                traced, out_dir)
    summary = summarize_run(name, params, seed, units, setups, failures,
                            traced, declaration)
    summary["units"] = len(units)
    return summary
