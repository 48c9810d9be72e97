"""Per-hook latency profiling for replacement policies.

The paper claims LRU-K "is fairly simple and incurs little bookkeeping
overhead" (Sections 1.2, 2.1.3). A single wall-clock mean cannot defend
that claim against tail effects — a lazy heap that is O(log B) amortized
could still hide O(B) spikes in ``choose_victim``. :class:`ProfiledPolicy`
wraps any :class:`~repro.policies.base.ReplacementPolicy` and times every
protocol hook (``observe`` / ``on_hit`` / ``on_admit`` /
``choose_victim`` / ``on_evict``) with ``time.perf_counter``, reporting
p50/p95/p99 per hook. The wrapper is decision-transparent: it delegates
every call and attribute, so a profiled policy makes byte-identical
choices (property: same hit ratio, same evictions on the same stream).
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence

from ..errors import ConfigurationError
from ..policies.base import NO_EXCLUSIONS, ReplacementPolicy
from ..types import PageId

#: The protocol hooks a profile covers, in driver call order.
PROFILED_HOOKS = ("observe", "on_hit", "on_admit", "choose_victim",
                  "on_evict")


class HookProfile:
    """Latency samples (seconds) for one hook."""

    __slots__ = ("name", "_samples", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[float] = []
        self._sorted = True

    def add(self, seconds: float) -> None:
        """Record one invocation's duration."""
        self._samples.append(seconds)
        self._sorted = False

    @property
    def count(self) -> int:
        """Invocations recorded."""
        return len(self._samples)

    @property
    def total(self) -> float:
        """Sum of all durations (seconds)."""
        return math.fsum(self._samples)

    @property
    def mean(self) -> float:
        """Mean duration (seconds); 0.0 when empty."""
        if not self._samples:
            return 0.0
        return self.total / len(self._samples)

    def percentile(self, q: float) -> float:
        """Nearest-rank q-percentile (seconds); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("percentile must be in [0, 1]")
        if not self._samples:
            return 0.0
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        rank = max(1, math.ceil(q * len(self._samples)))
        return self._samples[rank - 1]

    def summary_us(self) -> Dict[str, float]:
        """count plus p50/p95/p99/mean in microseconds."""
        return {
            "count": float(self.count),
            "mean": self.mean * 1e6,
            "p50": self.percentile(0.50) * 1e6,
            "p95": self.percentile(0.95) * 1e6,
            "p99": self.percentile(0.99) * 1e6,
        }


class ProfiledPolicy(ReplacementPolicy):
    """A decision-transparent, hook-timing wrapper around a policy."""

    def __init__(self, inner: ReplacementPolicy,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        super().__init__()
        self.inner = inner
        self._clock = clock
        self.profiles: Dict[str, HookProfile] = {
            hook: HookProfile(hook) for hook in PROFILED_HOOKS}
        self.name = f"profiled({inner.name})"

    # -- timed protocol delegation ------------------------------------------------

    def observe(self, reference, now: int) -> None:
        started = self._clock()
        self.inner.observe(reference, now)
        self.profiles["observe"].add(self._clock() - started)

    def on_hit(self, page: PageId, now: int) -> None:
        started = self._clock()
        self.inner.on_hit(page, now)
        self.profiles["on_hit"].add(self._clock() - started)

    def on_admit(self, page: PageId, now: int) -> None:
        started = self._clock()
        self.inner.on_admit(page, now)
        self.profiles["on_admit"].add(self._clock() - started)

    def choose_victim(self, now: int,
                      incoming: Optional[PageId] = None,
                      exclude: FrozenSet[PageId] = NO_EXCLUSIONS) -> PageId:
        started = self._clock()
        victim = self.inner.choose_victim(now, incoming=incoming,
                                          exclude=exclude)
        self.profiles["choose_victim"].add(self._clock() - started)
        return victim

    def on_evict(self, page: PageId, now: int) -> None:
        started = self._clock()
        self.inner.on_evict(page, now)
        self.profiles["on_evict"].add(self._clock() - started)

    # -- untimed delegation -------------------------------------------------------

    def prepare(self, trace: Sequence[PageId]) -> None:
        self.inner.prepare(trace)

    def make_kernel(self, capacity: int) -> None:
        """Never offer a fused kernel: profiling needs per-hook calls.

        Without this override ``__getattr__`` would hand out the inner
        policy's kernel and the fused loop would silently bypass every
        timed hook.
        """
        return None

    #: No stack curve either: a run read off one calls no hook at all,
    #: so ``__getattr__`` must not hand out the inner policy's.
    stack_hits = None

    def reset(self) -> None:
        """Reset the wrapped policy; recorded profiles are kept."""
        self.inner.reset()

    def __contains__(self, page: PageId) -> bool:
        return page in self.inner

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def resident_pages(self) -> FrozenSet[PageId]:
        return self.inner.resident_pages

    def __getattr__(self, name: str) -> Any:
        # Fall through for policy-specific surface (backward_k_distance,
        # stats, history, ...) so telemetry helpers see the real policy.
        return getattr(self.inner, name)

    def __repr__(self) -> str:
        return f"ProfiledPolicy({self.inner!r})"

    # -- reporting ----------------------------------------------------------------

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per-hook summaries (microseconds) for hooks that were called."""
        return {hook: profile.summary_us()
                for hook, profile in self.profiles.items()
                if profile.count}
