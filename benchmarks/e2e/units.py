"""Child-process units: one execution of one workload, with its checks.

A unit runs in a fresh interpreter. It reports ``ready`` (a
``time.monotonic`` stamp, comparable with the parent's spawn stamp on
Linux) once imports and the program's own set-up are done, then runs the
timed phase, then checks the outputs outside the timed phase. A
``setup_only`` unit stops at ``ready``: it is a set-up time probe.

The unit's result holds ``run_s`` (the timed phase), ``values`` measured
by the unit itself, and, when traced, ``layers`` derived from the
wrapper spans (see :mod:`benchmarks.e2e.tracing`).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import resource
import statistics
import threading
import time
from array import array
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence

from repro.core.lruk import LRUKPolicy
from repro.experiments import table_4_2_spec, table_4_3_spec
from repro.obs import trace as obs_trace
from repro.obs.telemetry import MetricsServer, parse_exposition
from repro.service import ShardedBufferManager
from repro.sim import run_experiment
from repro.types import AccessKind
from repro.workloads import ZipfianWorkload

from . import tracing
from .stats import percentile

TABLE_BUILDERS = {"4.2": table_4_2_spec, "4.3": table_4_3_spec}


def run_unit(request: dict) -> dict:
    """Run the unit ``request`` describes; its JSON-ready result."""
    runner = run_table if request["params"]["kind"] == "table" else run_serve
    result = runner(request)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return result


def _out_path(request: dict, prefix: str) -> str:
    return os.path.join(request["out_dir"],
                        f"{prefix}-{request['workload']}.json")


def text_digest(text: str) -> str:
    """sha256 of a command's stdout."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- the paper tables ---------------------------------------------------------


def run_table(request: dict) -> dict:
    """One table command: run the experiment and render it.

    With ``observed`` the run happens under the program's own tracer and
    the Chrome trace is written, which is what ``--trace-out`` does.
    """
    params = request["params"]
    spec = TABLE_BUILDERS[params["table"]](scale=params["scale"],
                                           seed=request["seed"])
    recorder = tracing.Recorder() if request["traced"] else None
    chrome_path = _out_path(request, "chrome")
    values: Dict[str, float] = {}
    with tracing.installed(recorder) if recorder else nullcontext():
        ready = time.monotonic()
        if request["setup_only"]:
            return {"ready": ready}
        if recorder is not None:
            recorder.enabled = True
            recorder.rid = request["seed"]
            unit = recorder.begin("unit")
        start = time.perf_counter()
        if params["observed"]:
            tracer = obs_trace.Tracer()
            with obs_trace.activate(tracer):
                result = run_experiment(spec)
                text = result.to_table().render() + "\n"
            export = time.perf_counter()
            obs_trace.write_chrome_trace(chrome_path, tracer)
            values["obs.export_s"] = time.perf_counter() - export
            values["obs.spans"] = len(tracer.spans)
        else:
            result = run_experiment(spec)
            text = result.to_table().render() + "\n"
        run_s = time.perf_counter() - start
        if recorder is not None:
            recorder.end(unit)
            recorder.enabled = False

    errors = check_table(result)
    if params["observed"]:
        values["obs.trace_mb"] = os.path.getsize(chrome_path) / 1e6
        errors += check_chrome_trace(chrome_path)
        plain = run_experiment(spec).to_table().render() + "\n"
        if plain != text:
            errors.append("observed table differs from the unobserved one")
    out = {"ready": ready, "run_s": run_s, "digest": text_digest(text),
           "attempted": 1, "failed": int(bool(errors)), "errors": errors,
           "values": values}
    if recorder is not None:
        out["layers"] = tracing.table_layers(recorder, unit[4] - unit[3])
        recorder.dump(_out_path(request, "spans"))
    return out


def check_table(result) -> List[str]:
    """Properties every correct table has, whatever the seed."""
    errors = []
    spec = result.spec
    if result.capacities != list(spec.capacities):
        errors.append("table rows differ from the spec's buffer sizes")
    for policy in spec.policies:
        if not all(0.0 <= ratio <= 1.0
                   for ratio in result.hit_ratios(policy.label)):
            errors.append(f"{policy.label} hit ratio outside [0, 1]")
    # LRU is a stack algorithm: on one trace a larger buffer never hits
    # less, so the LRU-1 column cannot fall down the table.
    lru = result.hit_ratios("LRU-1")
    if any(later < earlier for earlier, later in zip(lru, lru[1:])):
        errors.append("LRU-1 hit ratio falls as the buffer grows")
    if any(ratio is not None and not ratio > 0
           for ratio in result.equi_effective_ratios.values()):
        errors.append("non-positive B(1)/B(2) ratio")
    return errors


def check_chrome_trace(path: str) -> List[str]:
    """The ``--trace-out`` file parses and holds a ``sweep`` span."""
    try:
        with open(path, encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"chrome trace unreadable: {exc!r}"]
    if not any(event.get("ph") == "X" and event.get("name") == "sweep"
               for event in events):
        return ["chrome trace has no sweep span"]
    return []


# -- the buffer service -------------------------------------------------------


def make_requests(params: dict, seed: int):
    """``(tenants, pages, writes)`` columns of the seeded request stream.

    Tenant 0 (``hot``) and tenant 1 (``cold``) alternate by a seeded coin;
    the cold tenant's pages are offset so the two never share a page,
    and a seeded share of its requests are writes.
    """
    total = params["warmup"] + params["timed"]
    rng = random.Random(f"serve-mixed/{seed}")
    hot = ZipfianWorkload(n=params["hot_pages"]).page_ids(
        total, seed=rng.getrandbits(31))
    cold = ZipfianWorkload(n=params["cold_pages"]).page_ids(
        total, seed=rng.getrandbits(31))
    tenants = array("b", bytes(total))
    pages = array("q", bytes(8 * total))
    writes = array("b", bytes(total))
    offset, write_share = params["cold_offset"], params["write_share"]
    next_hot = next_cold = 0
    for index in range(total):
        if rng.random() < 0.5:
            pages[index] = hot[next_hot]
            next_hot += 1
        else:
            tenants[index] = 1
            pages[index] = cold[next_cold] + offset
            next_cold += 1
            writes[index] = rng.random() < write_share
    return tenants, pages, writes


def drive(sessions: Sequence, requests, lo: int, hi: int,
          samples: Optional[Sequence[array]] = None,
          recorder: Optional[tracing.Recorder] = None,
          span_requests: int = 0) -> int:
    """Issue requests ``lo..hi`` closed-loop; how many frames were wrong.

    Each request is the two calls :meth:`Session.access` makes, fetch and
    unpin, made here directly so the fetched frame can be checked.
    """
    tenants, pages, writes = requests
    kinds = (AccessKind.READ, AccessKind.WRITE)
    clock = time.perf_counter
    wrong = 0
    for index in range(lo, hi):
        tenant = tenants[index]
        page = pages[index]
        session = sessions[tenant]
        if recorder is not None:
            recorder.rid = index
            recorder.keep = index - lo < span_requests
            span = recorder.begin("request")
        start = clock()
        frame = session.fetch(page, kinds[writes[index]])
        session.unpin(page)
        elapsed = clock() - start
        if recorder is not None:
            recorder.end(span)
        if samples is not None:
            samples[tenant].append(elapsed)
        if frame.page_id != page:
            wrong += 1
    return wrong


_SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$')


def parse_problem(text: str) -> Optional[str]:
    """Why a ``/metrics`` payload does not parse, or None."""
    for line in text.splitlines():
        if line and not line.startswith("#"):
            if not _SAMPLE_LINE.match(line):
                return f"unparseable line {line[:80]!r}"
            try:
                float(line.rsplit(" ", 1)[1])
            except ValueError:
                return f"non-numeric sample {line[:80]!r}"
    if not parse_exposition(text).histograms:
        return "no histogram in the exposition"
    return None


def ladder_problem(text: str) -> Optional[str]:
    """Why a parsed payload's histograms are inconsistent, or None.

    Buckets must be cumulative and end in ``+Inf == _count``.
    """
    for name, series in parse_exposition(text).histograms.items():
        counts = [count for _, count in series.buckets]
        if series.buckets[-1][0] != float("inf"):
            return f"{name} has no +Inf bucket"
        if any(later < earlier for earlier, later in zip(counts,
                                                          counts[1:])):
            return f"{name} buckets are not cumulative"
        if counts[-1] != series.count:
            return f"{name} +Inf {counts[-1]} != _count {series.count}"
    return None


class Scraper:
    """Scrapes ``/metrics`` over one HTTP client connection.

    A scrape that errors or does not parse is a failed operation. A
    parsed scrape whose histogram ladder is inconsistent is *torn*: the
    renderer reads histograms while the session thread updates them
    without a common lock, so about one scrape in a few hundred catches
    an observation half-recorded. That is a known defect of the program,
    counted in ``scrape.torn`` so a fix shows there, and kept out of the
    failed operations so that their count does not change at random
    between runs of the same commit.
    """

    def __init__(self, port: int) -> None:
        self._connection = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=10)
        self.seconds: List[float] = []
        self.sizes: List[int] = []
        self.failures: List[str] = []
        self.torn: List[str] = []

    def scrape(self) -> None:
        start = time.perf_counter()
        torn = None
        try:
            self._connection.request("GET", "/metrics")
            response = self._connection.getresponse()
            body = response.read()
            if response.status != 200:
                problem = f"HTTP {response.status}"
            else:
                text = body.decode("utf-8")
                problem = parse_problem(text)
                torn = ladder_problem(text) if problem is None else None
        except (OSError, http.client.HTTPException, UnicodeDecodeError) as exc:
            self._connection.close()
            body, problem = b"", f"scrape failed: {exc!r}"
        self.seconds.append(time.perf_counter() - start)
        self.sizes.append(len(body))
        if problem is not None:
            self.failures.append(problem)
        if torn is not None:
            self.torn.append(torn)

    def close(self) -> None:
        self._connection.close()


def _disk_io(manager) -> tuple:
    reads = writes = 0
    for shard in manager.shards:
        with shard.lock:
            reads += shard.pool.disk.stats.reads
            writes += shard.pool.disk.stats.writes
    return reads, writes


def _tail_us(samples: array, q: float) -> Optional[float]:
    try:
        return percentile(samples, q) * 1e6
    except ValueError:  # too few samples beyond q for this size
        return None


def run_serve(request: dict) -> dict:
    """Warm the service up, then time requests while scraping /metrics."""
    params = request["params"]
    manager = ShardedBufferManager(
        params["frames"], shards=params["shards"],
        policy_factory=lambda: LRUKPolicy(k=params["k"]))
    server = MetricsServer(manager.registry, port=0)
    server.start()
    recorder = tracing.Recorder() if request["traced"] else None
    try:
        with (tracing.installed(recorder, manager) if recorder
              else nullcontext()):
            sessions = (manager.session("hot"), manager.session("cold"))
            ready = time.monotonic()
            if request["setup_only"]:
                return {"ready": ready}
            out = _serve(params, request["seed"], manager, server.port,
                         sessions, recorder)
            for session in sessions:
                session.close()
    finally:
        server.stop()
    out["ready"] = ready
    if recorder is not None:
        out["layers"] = tracing.serve_layers(recorder)
        recorder.dump(_out_path(request, "spans"))
    return out


def _serve(params: dict, seed: int, manager, port: int, sessions,
           recorder: Optional[tracing.Recorder]) -> dict:
    requests = make_requests(params, seed)
    warmup, timed = params["warmup"], params["timed"]
    wrong = drive(sessions, requests, 0, warmup)
    before = manager.stats()
    io_before = _disk_io(manager)
    hits_before = sum(session.stats.hits for session in sessions)

    samples = (array("d"), array("d"))
    outcome: dict = {}
    done = threading.Event()

    def session_thread() -> None:
        try:
            start = time.perf_counter()
            outcome["wrong"] = drive(sessions, requests, warmup,
                                     warmup + timed, samples, recorder,
                                     params["span_requests"])
            outcome["run_s"] = time.perf_counter() - start
        except Exception as exc:  # re-raised by the main thread
            outcome["error"] = exc
        finally:
            done.set()

    scraper = Scraper(port)
    thread = threading.Thread(target=session_thread, name="e2e-session")
    if recorder is not None:
        recorder.enabled = True
    thread.start()
    while not done.wait(params["scrape_interval"]):
        scraper.scrape()
    thread.join()
    if recorder is not None:
        recorder.enabled = False
    if "error" in outcome:
        raise outcome["error"]
    scraper.scrape()
    scraper.close()

    wrong += outcome["wrong"]
    errors = scraper.failures + _service_errors(manager, sessions)
    if wrong:
        errors.append(f"{wrong} fetched frame(s) held another page")
    after = manager.stats()
    io_after = _disk_io(manager)
    hits = sum(session.stats.hits for session in sessions) - hits_before
    values = {
        "req_per_s": timed / outcome["run_s"],
        "hit_ratio": hits / timed,
        "pool.misses": after.misses - before.misses,
        "pool.evictions": after.evictions - before.evictions,
        "pool.dirty_evictions": (after.dirty_evictions
                                 - before.dirty_evictions),
        "disk.reads": io_after[0] - io_before[0],
        "disk.writes": io_after[1] - io_before[1],
        "scrape.count": len(scraper.seconds),
        "scrape.failed": len(scraper.failures),
        "scrape.torn": len(scraper.torn),
        "scrape.p50_ms": statistics.median(scraper.seconds) * 1e3,
        "scrape.max_ms": max(scraper.seconds) * 1e3,
        "scrape.kb": statistics.median(scraper.sizes) / 1024,
    }
    for tenant, tenant_samples in zip(("hot", "cold"), samples):
        for key, q in ((f"{tenant}_p50_us", 0.5), (f"{tenant}_p99_us", 0.99),
                       (f"svc.{tenant}_p999_us", 0.999)):
            value = _tail_us(tenant_samples, q)
            if value is not None:
                values[key] = value
    return {"run_s": outcome["run_s"], "hit_ratio": values["hit_ratio"],
            "attempted": warmup + timed + len(scraper.seconds),
            "failed": wrong + len(scraper.failures), "errors": errors,
            "values": values}


def _service_errors(manager, sessions) -> List[str]:
    """Invariants of the service once every request has returned."""
    errors = []
    stats = manager.stats()
    if (sum(session.stats.hits for session in sessions),
            sum(session.stats.misses for session in sessions),
            sum(session.stats.requests for session in sessions)) != (
            stats.hits, stats.misses,
            stats.logical_reads + stats.logical_writes):
        errors.append("session totals differ from manager.stats()")
    for shard in manager.shards:
        with shard.lock:
            if any(shard.pool.pin_count(page)
                   for page in shard.pool.resident_pages):
                errors.append(f"pins remain in shard {shard.index}")
    return errors
