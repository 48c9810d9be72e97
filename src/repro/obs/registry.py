"""Metrics registry: named counters, gauges, and histograms.

The event stream (:mod:`repro.obs.events`) answers "what happened, in
order"; the registry answers "where are we now". It is the export surface
for instruments that already exist in the codebase — e.g.
:class:`repro.core.lruk.LRUKStats` is published through gauges — and for
new ones. Histogram instruments reuse the statistics layer
(:class:`repro.stats.Histogram` bins + :class:`repro.stats.StreamingMoments`
for exact moments), so quantiles and means stay O(1)-per-observation.

:meth:`MetricsRegistry.snapshot` is the one way to read a registry: an
immutable :class:`RegistrySnapshot`, both a flat ``{name: value}``
mapping and each instrument's raw reading. A registry lives in one
process: a pooled sweep runs every cell in the parent, so nothing is
relayed into it from elsewhere.

The lock rule: :meth:`~MetricsRegistry.snapshot` and instrument
creation take the one re-entrant :attr:`MetricsRegistry.lock`.
Instruments take no lock, so a writer that can run beside a snapshot
holds ``lock`` around its whole batch of updates, and a snapshot sees
the batch entirely or not at all.
Quantiles and exposition text are computed from the copy after the lock
is released. The registry lock comes first in lock order: a snapshot
reads callable gauges while holding it, and a callable may take another
lock (a service shard's), so no code takes the registry lock while
holding such a lock.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from types import MappingProxyType
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..errors import ConfigurationError
from ..stats import Histogram, StreamingMoments


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add to the count (negative increments are rejected)."""
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value: either set directly or read from a callable.

    Callable-backed gauges make exporting live objects trivial::

        registry.gauge("lruk.evictions", lambda: policy.stats.evictions)
    """

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str,
                 fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self._value: float = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        """Pin the gauge to a value (only for non-callable gauges)."""
        if self._fn is not None:
            raise ConfigurationError(
                f"gauge {self.name!r} is callable-backed; cannot set")
        self._value = value

    def read(self) -> float:
        """The current value."""
        if self._fn is not None:
            return float(self._fn())
        return self._value


class HistogramReading(NamedTuple):
    """One histogram in a :class:`RegistrySnapshot`: binning, bins, moments."""

    low: float
    high: float
    bins: int
    counts: Tuple[int, ...]
    #: Raw ``(count, mean, m2)`` of :class:`repro.stats.StreamingMoments`.
    moments: Tuple[int, float, float]

    @property
    def count(self) -> int:
        """Observations recorded."""
        return self.moments[0]

    @property
    def mean(self) -> float:
        """Exact mean of the observations."""
        return self.moments[1]

    def _binned(self) -> Histogram:
        histogram = Histogram(self.low, self.high, self.bins)
        histogram.merge_counts(list(self.counts))
        return histogram

    def quantile(self, q: float) -> Optional[float]:
        """Approximate q-quantile (bin-interpolated).

        Total: an empty histogram has no quantiles, so this returns
        ``None`` rather than the binning range's lower bound (which is a
        configuration artifact, not an observation, and silently skewed
        dashboards that averaged percentiles across runs).
        """
        if self.count == 0:
            return None
        return self._binned().quantile(q)


class HistogramMetric:
    """A distribution instrument: binned quantiles + exact moments."""

    __slots__ = ("name", "_histogram", "_moments")

    def __init__(self, name: str, low: float, high: float,
                 bins: int = 64) -> None:
        self.name = name
        self._histogram = Histogram(low, high, bins)
        self._moments = StreamingMoments()

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._histogram.add(value)
        self._moments.add(value)

    @property
    def low(self) -> float:
        """Lower edge of the binning range."""
        return self._histogram.low

    @property
    def high(self) -> float:
        """Upper edge of the binning range."""
        return self._histogram.high

    @property
    def bins(self) -> int:
        """Number of uniform bins."""
        return self._histogram.bins

    @property
    def count(self) -> int:
        """Observations recorded so far."""
        return self._moments.count

    @property
    def mean(self) -> float:
        """Exact mean of all observations."""
        return self._moments.mean

    def quantile(self, q: float) -> Optional[float]:
        """Approximate q-quantile; ``None`` while empty."""
        return self._reading().quantile(q)

    def _reading(self) -> HistogramReading:
        return HistogramReading(self.low, self.high, self.bins,
                                tuple(self._histogram.counts),
                                self._moments.state())


class RegistrySnapshot(Mapping[str, float]):
    """An immutable reading of a whole registry, taken under its lock.

    As a read-only mapping it is the flat ``{name: value}`` view, sorted
    by name: counters and gauges by name, histograms expanded to
    ``name.count/.mean/.p50/.p95/.p99``. Percentiles are omitted while a
    histogram is empty, so a snapshot never fabricates numbers.
    :attr:`counters`, :attr:`gauges` and :attr:`histograms` carry the
    raw parts that the exposition renderer reads. The flat view (and its quantiles) is built on first
    use, from the copy.
    """

    __slots__ = ("_counters", "_gauges", "_histograms", "_flat")

    def __init__(self,
                 counters: Optional[Dict[str, int]] = None,
                 gauges: Optional[Dict[str, float]] = None,
                 histograms: Optional[Dict[str, HistogramReading]] = None
                 ) -> None:
        self._counters = dict(counters or {})
        self._gauges = dict(gauges or {})
        self._histograms = dict(histograms or {})
        self._flat: Optional[Dict[str, float]] = None

    @property
    def counters(self) -> Mapping[str, int]:
        """``{name: value}`` of every counter."""
        return MappingProxyType(self._counters)

    @property
    def gauges(self) -> Mapping[str, float]:
        """``{name: value}`` of every gauge."""
        return MappingProxyType(self._gauges)

    @property
    def histograms(self) -> Mapping[str, HistogramReading]:
        """``{name: HistogramReading}`` of every histogram."""
        return MappingProxyType(self._histograms)

    def _flattened(self) -> Dict[str, float]:
        if self._flat is None:
            flat: Dict[str, float] = {}
            for name, value in self._counters.items():
                flat[name] = float(value)
            flat.update(self._gauges)
            for name, histogram in self._histograms.items():
                flat[f"{name}.count"] = float(histogram.count)
                flat[f"{name}.mean"] = histogram.mean
                if histogram.count:
                    binned = histogram._binned()
                    for key, q in (("p50", 0.50), ("p95", 0.95),
                                   ("p99", 0.99)):
                        flat[f"{name}.{key}"] = binned.quantile(q)
            self._flat = dict(sorted(flat.items()))
        return self._flat

    def __getitem__(self, name: str) -> float:
        return self._flattened()[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._flattened())

    def __len__(self) -> int:
        return len(self._flattened())


class MetricsRegistry:
    """A namespace of uniquely named instruments (see the lock rule above)."""

    def __init__(self) -> None:
        #: The registry lock (see the lock rule in the module docstring).
        self.lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, HistogramMetric] = {}

    def _claim(self, name: str) -> None:
        if (name in self._counters or name in self._gauges
                or name in self._histograms):
            raise ConfigurationError(f"duplicate metric name {name!r}")

    def counter(self, name: str) -> Counter:
        """Create (or fetch) the counter with this name."""
        with self.lock:
            existing = self._counters.get(name)
            if existing is None:
                self._claim(name)
                existing = self._counters[name] = Counter(name)
            return existing

    def gauge(self, name: str,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        """Create a gauge; re-registering a name raises."""
        with self.lock:
            self._claim(name)
            gauge = self._gauges[name] = Gauge(name, fn)
            return gauge

    def set_gauge(self, name: str, value: float) -> Gauge:
        """Get-or-create the non-callable gauge ``name`` and set it.

        The instrument form used by periodically *published* values —
        the runner's per-run gauges and the
        :class:`~repro.obs.telemetry.ResourceSampler` — where the
        publisher runs repeatedly and re-registration must not raise.
        Callable-backed gauges (live views) keep their reject-on-set
        semantics: publishing over one raises.
        """
        with self.lock:
            existing = self._gauges.get(name)
            if existing is None:
                self._claim(name)
                existing = self._gauges[name] = Gauge(name)
            existing.set(float(value))
            return existing

    def histogram(self, name: str, low: float, high: float,
                  bins: int = 64) -> HistogramMetric:
        """Create (or fetch) the histogram instrument over ``[low, high)``.

        Re-registering the same name with the *same* binning returns the
        existing instrument (so per-run drivers can use get-or-create); a
        different binning raises.
        """
        with self.lock:
            existing = self._histograms.get(name)
            if existing is not None:
                if (existing.low, existing.high, existing.bins) != (
                        low, high, bins):
                    raise ConfigurationError(
                        f"histogram {name!r} already registered with "
                        f"binning [{existing.low}, {existing.high})/"
                        f"{existing.bins}")
                return existing
            self._claim(name)
            histogram = self._histograms[name] = HistogramMetric(
                name, low, high, bins)
            return histogram

    def percentile(self, name: str, q: float) -> Optional[float]:
        """The q-quantile of the named histogram, if it has one.

        Total over both failure modes: an unregistered name and an empty
        histogram both yield ``None``.
        """
        with self.lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                return None
            reading = histogram._reading()
        return reading.quantile(q)

    def names(self) -> List[str]:
        """All registered instrument names, sorted."""
        return sorted([*self._counters, *self._gauges, *self._histograms])

    def snapshot(self) -> RegistrySnapshot:
        """Copy every instrument under the registry lock."""
        with self.lock:
            counters = {name: counter.value
                        for name, counter in self._counters.items()}
            gauges = {name: gauge.read()
                      for name, gauge in self._gauges.items()}
            histograms = {name: histogram._reading()
                          for name, histogram in self._histograms.items()}
        return RegistrySnapshot(counters, gauges, histograms)
