"""``repro top`` — a live ANSI terminal dashboard over ``/metrics``.

A curses-free counterpart of ``top(1)`` for a running sweep: poll the
``--serve-metrics`` endpoint (or read the final ``snapshot`` record of a
``--metrics-out`` JSONL file), derive rates from successive scrapes, and
render one compact frame per interval — windowed hit ratio, references
per second, cell completion, the sweep's failure counters (cells re-run
in-process and cells that failed), and the
:class:`~repro.obs.telemetry.ResourceSampler` gauges.

Everything here is plain string assembly over
:func:`~repro.obs.telemetry.parse_exposition`, so the frame builder is
directly testable without a terminal, an HTTP server, or timing.
"""

from __future__ import annotations

import json
import re
import sys
import time
import urllib.error
import urllib.request
from typing import IO, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from .telemetry import Exposition, HistogramSeries, parse_exposition

__all__ = ["fetch_url", "read_snapshot_file", "render_frame", "run_top"]

#: ANSI fragments, keyed so rendering can run colorless for tests/pipes.
_CODES = {"reset": "\x1b[0m", "bold": "\x1b[1m", "dim": "\x1b[2m",
          "red": "\x1b[31m", "green": "\x1b[32m", "yellow": "\x1b[33m",
          "cyan": "\x1b[36m"}
_CLEAR = "\x1b[2J\x1b[H"

_BLOCKS = " ▏▎▍▌▋▊▉█"


def fetch_url(url: str, timeout: float = 2.0) -> Exposition:
    """Scrape one exposition payload from a ``/metrics`` endpoint."""
    if not url.endswith("/metrics"):
        url = url.rstrip("/") + "/metrics"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        text = response.read().decode("utf-8", errors="replace")
    return parse_exposition(text)


def read_snapshot_file(path: str) -> Exposition:
    """Build an exposition view from a ``--metrics-out`` JSONL file.

    Uses the *last* ``snapshot`` event's counters — the flattened
    registry (``protocol.hits``, ``protocol.run_hit_ratio.p50``, ...).
    Dotted names are kept as-is; :meth:`Exposition.value` resolves both
    spellings, so the frame builder is source-agnostic.
    """
    exposition = Exposition()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # tolerate a torn tail while the run writes
            if record.get("event") != "snapshot":
                continue
            counters = record.get("counters")
            if not isinstance(counters, dict):
                continue
            samples = {name: float(value)
                       for name, value in counters.items()
                       if isinstance(value, (int, float))}
            if samples:
                exposition.samples = samples
    return exposition


# -- frame assembly ------------------------------------------------------------

_TENANT_HITS = re.compile(
    r"^service[._]tenant[._](?P<tenant>.+)[._]hits$")


def _tenant_rows(exposition: Exposition
                 ) -> List[Tuple[str, float, float]]:
    """``(tenant, hits, misses)`` rows from either name spelling.

    Tenant counters arrive as ``service_tenant_<t>_hits`` from a
    ``/metrics`` scrape and as ``service.tenant.<t>.hits`` from a
    snapshot file; both reduce to the same rows, sorted by tenant.
    """
    rows: List[Tuple[str, float, float]] = []
    for name in exposition.samples:
        match = _TENANT_HITS.match(name)
        if match is None:
            continue
        tenant = match.group("tenant")
        misses_name = name[:-len("hits")] + "misses"
        rows.append((tenant, exposition.samples[name],
                     exposition.value(misses_name, 0.0)))
    return sorted(rows)


def _bar(fraction: float, width: int = 24) -> str:
    """A unicode block-character progress bar for ``fraction`` in [0,1]."""
    fraction = max(0.0, min(1.0, fraction))
    eighths = round(fraction * width * 8)
    full, rem = divmod(eighths, 8)
    bar = "█" * full + (_BLOCKS[rem] if rem else "")
    return bar.ljust(width)


def _human_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            return (f"{value:,.0f} {unit}" if unit == "B"
                    else f"{value:,.1f} {unit}")
        value /= 1024.0
    return f"{value:,.1f} TiB"


def _hist_stats(exposition: Exposition, name: str
                ) -> Optional[Dict[str, float]]:
    """count/mean/p50/p95 for a histogram, from buckets or flat keys."""
    series: Optional[HistogramSeries] = exposition.histograms.get(name)
    if series is not None and series.count:
        stats = {"count": float(series.count), "mean": series.mean}
        for key, q in (("p50", 0.50), ("p95", 0.95)):
            quantile = series.quantile(q)
            if quantile is not None:
                stats[key] = quantile
        return stats
    dotted = name.replace("protocol_", "protocol.")
    count = exposition.value(f"{dotted}.count", 0.0)
    if count:
        return {key: exposition.value(f"{dotted}.{key}", 0.0)
                for key in ("count", "mean", "p50", "p95")}
    return None


def _bucket_sketch(series: HistogramSeries, groups: int = 16) -> str:
    """Collapse the cumulative bucket ladder into a density strip."""
    finite = [(edge, cum) for edge, cum in series.buckets
              if edge != float("inf")]
    if len(finite) < 2:
        return ""
    per_bin: List[int] = []
    previous = 0
    for _, cumulative in finite:
        per_bin.append(max(0, cumulative - previous))
        previous = cumulative
    size = max(1, len(per_bin) // groups)
    grouped = [sum(per_bin[i:i + size])
               for i in range(0, len(per_bin), size)]
    peak = max(grouped)
    if peak == 0:
        return ""
    strip = "".join(_BLOCKS[min(8, round(count / peak * 8))]
                    for count in grouped)
    low = finite[0][0] - (finite[1][0] - finite[0][0])
    return f"{low:.2f} ▕{strip}▏ {finite[-1][0]:.2f}"


def render_frame(current: Exposition,
                 previous: Optional[Exposition] = None,
                 elapsed: Optional[float] = None,
                 source: str = "", color: bool = False) -> str:
    """Build one dashboard frame as a plain string.

    ``previous``/``elapsed`` enable the rate-derived lines (references
    per second, windowed hit ratio over the poll interval); without them
    the frame falls back to cumulative ratios, which is also the
    ``--once`` and snapshot-file behavior.
    """
    def paint(code: str, text: str) -> str:
        if not color:
            return text
        return f"{_CODES[code]}{text}{_CODES['reset']}"

    def delta(name: str) -> Optional[float]:
        if previous is None or not previous.has(name):
            return None
        return current.value(name) - previous.value(name)

    lines: List[str] = []
    stamp = time.strftime("%H:%M:%S")
    header = f"repro top — {source or 'registry'} — {stamp}"
    lines.append(paint("bold", header))

    # -- sweep progress
    total = current.value("sweep.cells_total", 0.0)
    done = current.value("sweep.cells_done", 0.0)
    if total:
        fraction = done / total
        lines.append(
            f"  sweep    {paint('cyan', _bar(fraction))} "
            f"{int(done)}/{int(total)} cells ({fraction:.0%})")

    # -- throughput
    refs = current.value("protocol.references", 0.0)
    d_refs = delta("protocol.references")
    if d_refs is not None and elapsed and elapsed > 0:
        rate = d_refs / elapsed
        lines.append(f"  refs/sec {rate:>14,.0f}"
                     f"   (total {refs:,.0f})")
    elif refs:
        lines.append(f"  refs     {refs:>14,.0f}   (rate needs two polls)")

    hits, misses = (current.value("protocol.hits", 0.0),
                    current.value("protocol.misses", 0.0))
    d_hits, d_misses = delta("protocol.hits"), delta("protocol.misses")
    if (d_hits is not None and d_misses is not None
            and d_hits + d_misses > 0):
        window_ratio = d_hits / (d_hits + d_misses)
        lines.append(f"  hit window {_bar(window_ratio, 20)} "
                     f"{window_ratio:.4f} (this poll)")
    elif hits + misses > 0:
        ratio = hits / (hits + misses)
        lines.append(f"  hit ratio  {_bar(ratio, 20)} {ratio:.4f} "
                     "(cumulative)")

    # -- run hit-ratio distribution
    stats = _hist_stats(current, "protocol_run_hit_ratio")
    if stats:
        parts = [f"runs {int(stats.get('count', 0))}",
                 f"mean {stats.get('mean', 0.0):.4f}"]
        if "p50" in stats:
            parts.append(f"p50 {stats['p50']:.4f}")
        if "p95" in stats:
            parts.append(f"p95 {stats['p95']:.4f}")
        lines.append("  run C    " + "  ".join(parts))
        series = current.histograms.get("protocol_run_hit_ratio")
        if series is not None:
            sketch = _bucket_sketch(series)
            if sketch:
                lines.append(f"           {sketch}")

    # -- served buffer manager (repro serve-bench)
    service_requests = current.value("service.requests", 0.0)
    if service_requests:
        d_requests = delta("service.requests")
        if d_requests is not None and elapsed and elapsed > 0:
            lines.append(f"  service  {d_requests / elapsed:>14,.0f} req/s"
                         f"   (total {service_requests:,.0f})")
        else:
            lines.append(f"  service  requests {service_requests:>12,.0f}")
        s_hits = current.value("service.hits", 0.0)
        s_misses = current.value("service.misses", 0.0)
        if s_hits + s_misses > 0:
            ratio = s_hits / (s_hits + s_misses)
            lines.append(f"  svc hits   {_bar(ratio, 20)} {ratio:.4f} "
                         "(cumulative)")
        latency = current.histograms.get("service_request_ms")
        if latency is not None and latency.count:
            quantiles = [(label, latency.quantile(q))
                         for label, q in (("p50", 0.50), ("p99", 0.99),
                                          ("p999", 0.999))]
            rendered = "  ".join(f"{label} {value:.3f}"
                                 for label, value in quantiles
                                 if value is not None)
            lines.append(f"  svc ms   {rendered}")
        elif current.has("service.request_ms.count"):
            lines.append(
                "  svc ms   " + "  ".join(
                    f"{label} "
                    f"{current.value(f'service.request_ms.{label}'):.3f}"
                    for label in ("p50", "p95", "p99")
                    if current.has(f"service.request_ms.{label}")))
        for tenant, hits, misses in _tenant_rows(current):
            total_requests = hits + misses
            ratio = hits / total_requests if total_requests else 0.0
            lines.append(f"   tenant {tenant:<9} "
                         f"{_bar(ratio, 16)} {ratio:.4f} "
                         f"({int(total_requests):,} reqs)")

    # -- sweep failures
    fault_names = (("fallbacks", "sweep.cell.fallbacks"),
                   ("failures", "sweep.cell.failures"))
    faults = [(label, current.value(name, 0.0))
              for label, name in fault_names]
    if any(current.has(name) for _, name in fault_names) or any(
            value for _, value in faults):
        rendered = "  ".join(
            paint("red" if value else "green", f"{label} {int(value)}")
            for label, value in faults)
        lines.append(f"  faults   {rendered}")

    # -- resources
    rss = current.value("process.rss_bytes", 0.0)
    cpu = current.value("process.cpu_seconds", 0.0)
    if rss or cpu:
        threads = current.value("process.threads", 0.0)
        gc2 = current.value("process.gc_gen2_collections", 0.0)
        lines.append(
            f"  process  rss {_human_bytes(rss)}  cpu {cpu:,.1f}s"
            f"  threads {int(threads)}  gc2 {int(gc2)}")

    # -- worker-relayed gauges
    workers = sorted({labels["worker"]
                      for name, labels in current.labels.items()
                      if "worker" in labels})
    if workers:
        lines.append(paint(
            "dim", f"  workers  last gauge writes from: "
                   f"{', '.join(workers)}"))

    if len(lines) == 1:
        lines.append("  (no samples yet — is the sweep serving metrics?)")
    return "\n".join(lines)


# -- the polling loop ----------------------------------------------------------


def run_top(url: Optional[str] = None, file: Optional[str] = None,
            interval: float = 1.0, frames: Optional[int] = None,
            once: bool = False, color: Optional[bool] = None,
            stream: Optional[IO[str]] = None) -> int:
    """Drive the dashboard loop; returns the process exit code.

    Exactly one of ``url``/``file`` selects the source. ``once`` renders
    a single colorless frame without touching the terminal (scriptable);
    otherwise frames repaint in place every ``interval`` seconds until
    ``frames`` runs out, the endpoint disappears (a finished sweep), or
    Ctrl-C.
    """
    if (url is None) == (file is None):
        raise ConfigurationError(
            "repro top needs exactly one of --url/--port or --file")
    if interval <= 0:
        raise ConfigurationError("poll interval must be positive")
    out = stream if stream is not None else sys.stdout
    paint = (out.isatty() if color is None else color) and not once
    source = url or file or ""

    def load() -> Exposition:
        if url is not None:
            return fetch_url(url)
        assert file is not None
        return read_snapshot_file(file)

    previous: Optional[Exposition] = None
    previous_at: Optional[float] = None
    rendered = 0
    try:
        while True:
            try:
                exposition = load()
            except (urllib.error.URLError, OSError) as exc:
                if previous is not None:
                    print("endpoint gone (sweep finished?): "
                          f"{exc}", file=out)
                    return 0
                print(f"cannot read {source}: {exc}", file=out)
                return 1
            now = time.monotonic()
            elapsed = (now - previous_at
                       if previous_at is not None else None)
            frame = render_frame(exposition, previous, elapsed,
                                 source=source, color=paint)
            if once or frames is not None:
                print(frame, file=out)
            else:
                out.write(_CLEAR + frame + "\n")
                out.flush()
            rendered += 1
            if once or (frames is not None and rendered >= frames):
                return 0
            previous, previous_at = exposition, now
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
