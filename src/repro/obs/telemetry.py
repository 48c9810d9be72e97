"""Live telemetry plane: Prometheus exposition, ``/metrics``, sampling.

The registry (:mod:`repro.obs.registry`) answers "where are we now" —
but until this module, only code *inside* the process could ask. Three
pieces make a running sweep observable from outside, all zero-dependency
and strictly pay-for-what-you-use (nothing here touches the simulation
hot path; no thread or socket exists unless explicitly started):

- :func:`render_exposition` — serialize a :class:`MetricsRegistry` as
  Prometheus text exposition format (version 0.0.4): ``# HELP`` /
  ``# TYPE`` lines, counters, gauges (with a ``worker`` label for
  values relayed from forked sweep workers), and histograms as
  cumulative ``_bucket{le=...}`` series plus ``_sum`` / ``_count``.
  :func:`parse_exposition` is the matching reader used by ``repro top``
  and the tests.
- :class:`MetricsServer` — a stdlib :mod:`http.server` endpoint serving
  ``/metrics`` (exposition) and ``/healthz`` (liveness JSON) from a
  daemon thread; the CLI starts one under ``--serve-metrics PORT`` so a
  long-running ``--jobs N`` sweep can be scraped mid-flight.
- :class:`ResourceSampler` — a periodic daemon thread publishing
  process-level gauges (RSS and CPU from ``/proc/self``, GC state,
  thread count, sink depths, caller-supplied probes) into the registry
  on a configurable interval, behind ``--sample-resources SECONDS``.

See the "Live telemetry" section of ``docs/observability.md``.
"""

from __future__ import annotations

import gc
import json
import os
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from .dispatcher import EventDispatcher
from .registry import MetricsRegistry

__all__ = [
    "render_exposition",
    "parse_exposition",
    "Exposition",
    "HistogramSeries",
    "MetricsServer",
    "ResourceSampler",
]

# -- Prometheus text exposition ------------------------------------------------

#: Characters legal in a Prometheus metric name body.
_NAME_BODY = re.compile(r"[^a-zA-Z0-9_:]")


def exposition_name(name: str) -> str:
    """Map a dotted registry name onto the Prometheus grammar.

    ``protocol.run_hit_ratio`` becomes ``protocol_run_hit_ratio``; any
    character outside ``[a-zA-Z0-9_:]`` maps to ``_`` and a leading
    digit gains a ``_`` prefix. The original dotted name is preserved in
    the ``# HELP`` line, so a scrape remains joinable back to
    ``snapshot()`` keys.
    """
    sanitized = _NAME_BODY.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized or "_"


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` docstring (backslash and newline)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    """Escape a label value (backslash, quote, newline)."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    """Render a sample value: integral floats without the trailing .0."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_exposition(registry: MetricsRegistry) -> str:
    """Serialize every instrument as Prometheus text format 0.0.4.

    The text comes from one
    :meth:`~repro.obs.registry.MetricsRegistry.snapshot` of the registry.

    - Counters and gauges render one sample each; gauges whose value was
      merged from a forked sweep worker carry a ``worker="<pid>"`` label
      (see :meth:`~repro.obs.registry.MetricsRegistry.merge`).
    - Histograms render the full cumulative ``_bucket{le="..."}``
      ladder over their fixed binning, a terminal ``le="+Inf"`` bucket,
      and ``_sum`` / ``_count`` samples, all from one reading. The
      ladder, ``+Inf`` and ``_count`` come from the bin counts
      (out-of-range observations are clamped into the edge bins by
      :class:`repro.stats.Histogram`), so ``+Inf == _count`` always
      holds. *Empty* histograms are omitted entirely — a bucket ladder
      of zeros advertises a distribution that was never observed.
    - Families render in sorted instrument-name order, so successive
      scrapes of a quiescent registry are byte-identical.
    """
    snapshot = registry.snapshot()
    lines: List[str] = []

    for name, value in sorted(snapshot.counters.items()):
        exposed = exposition_name(name)
        lines.append(f"# HELP {exposed} {_escape_help(name)}")
        lines.append(f"# TYPE {exposed} counter")
        lines.append(f"{exposed} {_format_value(float(value))}")

    for name, gauge in sorted(snapshot.gauges.items()):
        exposed = exposition_name(name)
        lines.append(f"# HELP {exposed} {_escape_help(name)}")
        lines.append(f"# TYPE {exposed} gauge")
        label = (f'{{worker="{_escape_label(gauge.worker)}"}}'
                 if gauge.worker is not None else "")
        lines.append(f"{exposed}{label} {_format_value(gauge.value)}")

    for name, histogram in sorted(snapshot.histograms.items()):
        total = sum(histogram.counts)
        if total == 0:
            continue
        exposed = exposition_name(name)
        low, high = histogram.low, histogram.high
        width = (high - low) / histogram.bins
        lines.append(f"# HELP {exposed} {_escape_help(name)}")
        lines.append(f"# TYPE {exposed} histogram")
        cumulative = 0
        for index, count in enumerate(histogram.counts):
            cumulative += count
            edge = low + (index + 1) * width
            lines.append(f'{exposed}_bucket{{le="{_format_value(edge)}"}} '
                         f"{cumulative}")
        lines.append(f'{exposed}_bucket{{le="+Inf"}} {total}')
        lines.append(f"{exposed}_sum "
                     f"{_format_value(histogram.mean * total)}")
        lines.append(f"{exposed}_count {total}")

    return "\n".join(lines) + "\n" if lines else ""


class HistogramSeries:
    """One parsed histogram family: cumulative buckets plus sum/count."""

    __slots__ = ("buckets", "sum", "count")

    def __init__(self) -> None:
        #: ``[(upper_edge, cumulative_count)]`` in exposition order; the
        #: ``+Inf`` bucket appears as ``float("inf")``.
        self.buckets: List[Tuple[float, int]] = []
        self.sum = 0.0
        self.count = 0

    @property
    def mean(self) -> float:
        """Mean of the observed values (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Approximate q-quantile interpolated within the bucket ladder."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must be in [0, 1]")
        if self.count == 0:
            return None
        target = q * self.count
        previous_edge: Optional[float] = None
        previous_cumulative = 0
        for edge, cumulative in self.buckets:
            if cumulative >= target and cumulative > previous_cumulative:
                if previous_edge is None or edge == float("inf"):
                    return edge if edge != float("inf") else previous_edge
                within = ((target - previous_cumulative)
                          / (cumulative - previous_cumulative))
                return previous_edge + within * (edge - previous_edge)
            previous_edge = edge if edge != float("inf") else previous_edge
            previous_cumulative = cumulative
        return previous_edge


class Exposition:
    """A parsed ``/metrics`` payload: flat samples plus histograms."""

    def __init__(self) -> None:
        #: Scalar samples keyed by exposed metric name (labels stripped;
        #: last sample of a name wins — sufficient for this repo's
        #: single-label exposition).
        self.samples: Dict[str, float] = {}
        #: Label sets seen per metric name, e.g. ``{"worker": "123"}``.
        self.labels: Dict[str, Dict[str, str]] = {}
        #: ``# TYPE`` declarations by exposed name.
        self.types: Dict[str, str] = {}
        #: ``# HELP`` text by exposed name (the original dotted name).
        self.help: Dict[str, str] = {}
        #: Histogram families by exposed base name.
        self.histograms: Dict[str, HistogramSeries] = {}

    def value(self, name: str, default: float = 0.0) -> float:
        """A scalar sample by exposed *or* original dotted name."""
        if name in self.samples:
            return self.samples[name]
        return self.samples.get(exposition_name(name), default)

    def has(self, name: str) -> bool:
        """True when a scalar sample exists under either name form."""
        return (name in self.samples
                or exposition_name(name) in self.samples)


_SAMPLE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?'
    r'\s+(?P<value>\S+)\s*$')
_LABEL = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"]*)"')


def _parse_number(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def parse_exposition(text: str) -> Exposition:
    """Parse Prometheus text exposition into an :class:`Exposition`.

    Covers the grammar :func:`render_exposition` emits (which is also
    what a stock Prometheus server would accept from it): ``# HELP`` /
    ``# TYPE`` comments, optional ``{label="value"}`` sets, histogram
    ``_bucket`` / ``_sum`` / ``_count`` families. Unparseable lines are
    skipped rather than fatal — a dashboard poll must survive a scrape
    racing a writer.
    """
    exposition = Exposition()
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "HELP":
                exposition.help[parts[2]] = parts[3]
            elif len(parts) >= 4 and parts[1] == "TYPE":
                exposition.types[parts[2]] = parts[3]
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name = match.group("name")
        try:
            value = _parse_number(match.group("value"))
        except ValueError:
            continue
        labels: Dict[str, str] = {}
        if match.group("labels"):
            for pair in _LABEL.finditer(match.group("labels")):
                labels[pair.group("key")] = pair.group("value")
        if name.endswith("_bucket") and "le" in labels:
            base = name[:-len("_bucket")]
            family = exposition.histograms.setdefault(base,
                                                      HistogramSeries())
            try:
                edge = _parse_number(labels["le"])
            except ValueError:
                continue
            family.buckets.append((edge, int(value)))
            continue
        if name.endswith("_sum") and name[:-4] in exposition.histograms:
            exposition.histograms[name[:-4]].sum = value
            continue
        if name.endswith("_count") and name[:-6] in exposition.histograms:
            exposition.histograms[name[:-6]].count = int(value)
            continue
        exposition.samples[name] = value
        if labels:
            exposition.labels[name] = labels
    return exposition


# -- the /metrics endpoint -----------------------------------------------------


class _TelemetryHandler(BaseHTTPRequestHandler):
    """Serve ``/metrics`` and ``/healthz`` for one :class:`MetricsServer`."""

    # Set by MetricsServer via the handler class attribute.
    server_ref: "MetricsServer"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = self.server_ref.scrape().encode("utf-8")
            self._reply(200, "text/plain; version=0.0.4; charset=utf-8",
                        body)
        elif path == "/healthz":
            payload = json.dumps(self.server_ref.health())
            self._reply(200, "application/json", payload.encode("utf-8"))
        else:
            self._reply(404, "text/plain; charset=utf-8",
                        b"not found: try /metrics or /healthz\n")

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        """Scrapes are high-frequency; never narrate them to stderr."""


class MetricsServer:
    """A ``/metrics`` + ``/healthz`` HTTP endpoint over one registry.

    Zero-dependency (stdlib :class:`ThreadingHTTPServer`) and inert
    until :meth:`start` — constructing one opens no socket and spawns no
    thread, preserving the pay-for-what-you-use contract. ``port=0``
    binds an ephemeral port (the bound port is returned by ``start`` and
    exposed as :attr:`port`), which is what the tests use.

    Each scrape renders one registry snapshot, taken under the registry
    lock: a writer that holds the lock around its batch of updates is
    seen entirely or not at all, and ``+Inf``, ``_count`` and ``_sum``
    of a histogram come from the same reading.
    """

    def __init__(self, registry: MetricsRegistry, port: int = 0,
                 host: str = "127.0.0.1") -> None:
        if port < 0 or port > 65535:
            raise ConfigurationError("port must be in [0, 65535]")
        self.registry = registry
        self.host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self.scrapes = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port (the requested one until :meth:`start`)."""
        if self._httpd is not None:
            return int(self._httpd.server_address[1])
        return self._requested_port

    @property
    def url(self) -> str:
        """Base URL of the endpoint, e.g. ``http://127.0.0.1:9184``."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> int:
        """Bind the socket, spawn the daemon serving thread; the port."""
        if self._httpd is not None:
            return self.port
        handler = type("BoundTelemetryHandler", (_TelemetryHandler,),
                       {"server_ref": self})
        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), handler)
        self._httpd.daemon_threads = True
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name=f"repro-metrics-:{self.port}", daemon=True)
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Shut the endpoint down; idempotent."""
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- request bodies ----------------------------------------------------

    def scrape(self) -> str:
        """One exposition payload (also counts ``telemetry.scrapes``).

        Handler threads scrape concurrently, so both counts move under
        the registry lock.
        """
        with self.registry.lock:
            self.scrapes += 1
            self.registry.counter("telemetry.scrapes").inc()
        return render_exposition(self.registry)

    def health(self) -> Dict[str, object]:
        """The ``/healthz`` payload."""
        uptime = (time.monotonic() - self._started_at
                  if self._started_at is not None else 0.0)
        return {"status": "ok", "pid": os.getpid(),
                "uptime_seconds": round(uptime, 3),
                "scrapes": self.scrapes,
                "metrics": len(self.registry.names())}


# -- periodic resource sampling ------------------------------------------------


def _read_proc_self_status() -> Dict[str, int]:
    """``VmRSS``/``VmHWM`` in bytes from ``/proc/self/status`` (Linux).

    Returns an empty dict on platforms without procfs; the sampler then
    simply publishes no RSS gauges rather than failing.
    """
    fields: Dict[str, int] = {}
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(("VmRSS:", "VmHWM:")):
                    key, value = line.split(":", 1)
                    fields[key] = int(value.split()[0]) * 1024
    except OSError:
        return {}
    return fields


class ResourceSampler:
    """Publish process-health gauges into a registry on an interval.

    Entirely opt-in: nothing samples until :meth:`start` (or an explicit
    :meth:`sample_once`, which is also the synchronous form the tests
    drive). Each sweep publishes:

    - ``process.rss_bytes`` / ``process.rss_peak_bytes`` — resident set
      from ``/proc/self/status`` (absent off-Linux);
    - ``process.cpu_seconds`` — cumulative user+system CPU
      (:func:`os.times`);
    - ``process.gc_gen{0,1,2}_pending`` and ``..._collections`` — live
      allocation pressure and cumulative collector activity;
    - ``process.threads`` — :func:`threading.active_count`;
    - ``obs.sink.<Type>.depth`` — per-sink depth for any dispatcher
      sinks exposing ``__len__`` or ``written`` (ring occupancy, JSONL
      records written): the dispatcher queue-depth view;
    - one gauge per caller-supplied probe (``{name: callable}``), which
      is how the sweep engine's per-cell progress reaches the plane;

    plus a ``telemetry.samples`` counter so a dashboard can tell a live
    sampler from a stale snapshot.
    """

    def __init__(self, registry: MetricsRegistry,
                 interval: float = 1.0,
                 probes: Optional[Dict[str, Callable[[], float]]] = None,
                 dispatcher: Optional[EventDispatcher] = None) -> None:
        if interval <= 0:
            raise ConfigurationError("sampling interval must be positive")
        self.registry = registry
        self.interval = interval
        self.probes: Dict[str, Callable[[], float]] = dict(probes or {})
        self.dispatcher = dispatcher
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def running(self) -> bool:
        """True while the sampling thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register an extra gauge probe (sampled from the next sweep on)."""
        self.probes[name] = fn

    def sample_once(self) -> None:
        """Take one sample synchronously (what the thread loops on).

        The whole sample is published under the registry lock, so a
        scrape sees all of it or none of it.
        """
        registry = self.registry
        with registry.lock:
            status = _read_proc_self_status()
            if "VmRSS" in status:
                registry.set_gauge("process.rss_bytes", status["VmRSS"])
            if "VmHWM" in status:
                registry.set_gauge("process.rss_peak_bytes", status["VmHWM"])
            times = os.times()
            registry.set_gauge("process.cpu_seconds",
                               times.user + times.system)
            for generation, pending in enumerate(gc.get_count()):
                registry.set_gauge(f"process.gc_gen{generation}_pending",
                                   pending)
            for generation, stats in enumerate(gc.get_stats()):
                registry.set_gauge(f"process.gc_gen{generation}_collections",
                                   stats.get("collections", 0))
            registry.set_gauge("process.threads", threading.active_count())
            if self.dispatcher is not None:
                self._sample_sinks()
            for name, fn in list(self.probes.items()):
                try:
                    registry.set_gauge(name, float(fn()))
                except Exception:
                    # A dead probe (e.g. reading a torn-down sweep) must not
                    # kill the sampling thread mid-run.
                    continue
            registry.counter("telemetry.samples").inc()

    def _sample_sinks(self) -> None:
        """Publish a depth gauge per introspectable dispatcher sink."""
        assert self.dispatcher is not None
        seen: Dict[str, int] = {}
        for sink in self.dispatcher.sinks:
            depth: Optional[float] = None
            if hasattr(sink, "__len__"):
                depth = float(len(sink))  # type: ignore[arg-type]
            elif hasattr(sink, "written"):
                depth = float(sink.written)
            if depth is None:
                continue
            kind = type(sink).__name__
            index = seen.get(kind, 0)
            seen[kind] = index + 1
            suffix = f".{index}" if index else ""
            self.registry.set_gauge(f"obs.sink.{kind}{suffix}.depth", depth)

    # -- thread lifecycle --------------------------------------------------

    def start(self) -> "ResourceSampler":
        """Spawn the daemon sampling thread (samples immediately)."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-resource-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and take one final sample; idempotent."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        # The final sample closes the ledger: gauges reflect process
        # state at sweep end, not at the last interval tick.
        self.sample_once()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.sample_once()
            except Exception:
                # Sampling must never take the host process down.
                pass
            self._stop.wait(self.interval)
