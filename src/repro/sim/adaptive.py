"""Dynamic frame / history-block memory exchange (paper Section 5).

The paper closes with an open design question:

    "It is an open issue how much space we should set aside for history
    control blocks of non-resident pages. While estimates for an upper
    bound can be derived from workload properties and the specified
    Retained Information Period, a better approach would be to turn
    buffer frames into history control blocks dynamically, and vice
    versa."

:class:`AdaptiveCacheSimulator` implements that better approach: a single
memory budget ``M`` (denominated in frames) is shared between buffer
frames and HIST control blocks. A block costs ``block_cost`` frames
(default 0.01 — tens of bytes against a 4 KB frame). As the LRU-K policy
accretes history, frames are released to pay for it; when the Retained
Information Period purges blocks, the freed memory turns back into
frames. A ``max_history_fraction`` guardrail stops history from eating
the whole buffer, and shrinking evicts through the policy's own victim
selection so the displaced pages are the least valuable ones.

Benchmark A11 (``benchmarks/bench_adaptive_memory.py``) compares this
against static splits of the same budget.
"""

from __future__ import annotations

import math
from typing import Optional

from ..core.lruk import LRUKPolicy
from ..errors import ConfigurationError
from ..types import AccessOutcome, PageId, Reference
from .cache import CacheSimulator


class AdaptiveCacheSimulator(CacheSimulator):
    """Cache simulator whose frame count floats against history memory."""

    def __init__(self, policy: LRUKPolicy,
                 memory_budget: float,
                 block_cost: float = 0.01,
                 max_history_fraction: float = 0.5,
                 adjust_interval: int = 64,
                 min_frames: int = 1) -> None:
        if not isinstance(policy, LRUKPolicy):
            raise ConfigurationError(
                "the frame/history exchange only applies to LRU-K "
                "(other policies keep no retained information)")
        if memory_budget < min_frames + 1:
            raise ConfigurationError(
                "memory budget must cover at least min_frames + 1 frames")
        if not 0.0 < block_cost < 1.0:
            raise ConfigurationError("block_cost must lie in (0, 1) frames")
        if not 0.0 <= max_history_fraction < 1.0:
            raise ConfigurationError(
                "max_history_fraction must lie in [0, 1)")
        if adjust_interval <= 0:
            raise ConfigurationError("adjust_interval must be positive")
        if min_frames <= 0:
            raise ConfigurationError("min_frames must be positive")

        self.memory_budget = float(memory_budget)
        self.block_cost = block_cost
        self.max_history_fraction = max_history_fraction
        self.adjust_interval = adjust_interval
        self.min_frames = min_frames

        # Guardrail: bound the history footprint through the policy's own
        # block-bound machinery, then let frames float under it.
        max_blocks = int(memory_budget * max_history_fraction / block_cost)
        policy.max_history_blocks = max(1, max_blocks)

        super().__init__(policy, capacity=int(memory_budget))
        self._accesses_since_adjust = 0
        self.adjustments = 0
        self.min_capacity_seen = self.capacity
        self.max_capacity_seen = self.capacity

    # -- the exchange ------------------------------------------------------------

    def history_blocks(self) -> int:
        """Current HIST-block count of the wrapped policy."""
        policy = self.policy
        assert isinstance(policy, LRUKPolicy)
        return policy.retained_blocks

    def frames_affordable(self) -> int:
        """Frames the budget can pay for at the current history footprint."""
        frames = math.floor(self.memory_budget
                            - self.block_cost * self.history_blocks())
        return max(self.min_frames, frames)

    def rebalance(self) -> None:
        """Re-split the budget between frames and history, now."""
        target = self.frames_affordable()
        if target != self.capacity:
            self.set_capacity(target)
            self.adjustments += 1
            self.min_capacity_seen = min(self.min_capacity_seen, target)
            self.max_capacity_seen = max(self.max_capacity_seen, target)

    def access(self, item: "Reference | PageId") -> AccessOutcome:
        self._accesses_since_adjust += 1
        if self._accesses_since_adjust >= self.adjust_interval:
            self._accesses_since_adjust = 0
            self.rebalance()
        return super().access(item)

    # -- accounting ----------------------------------------------------------------

    @property
    def memory_in_use(self) -> float:
        """Frames plus history memory currently charged to the budget."""
        return self.capacity + self.block_cost * self.history_blocks()

    def assert_within_budget(self, slack: Optional[float] = None) -> None:
        """Raise when the split exceeds the budget (test support).

        Between rebalances the history side may transiently overshoot by
        up to ``adjust_interval`` newly created blocks; the default slack
        covers exactly that.
        """
        allowed = self.memory_budget + (
            slack if slack is not None
            else self.block_cost * self.adjust_interval)
        if self.memory_in_use > allowed + 1e-9:
            raise ConfigurationError(
                f"memory in use {self.memory_in_use:.2f} exceeds "
                f"budget {self.memory_budget:.2f} (+slack)")
