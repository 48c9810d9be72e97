"""Replacement policies: the paper's baselines, oracles, and lineage.

Importing this package registers every policy with the name registry, so
``make_policy("lru")`` etc. work immediately. The paper's own LRU-K lives
in :mod:`repro.core` and registers itself under ``"lru-k"``, ``"lru-2"``,
and ``"lru-3"`` when that package is imported (the top-level ``repro``
package imports both).
"""

from .base import (
    NO_EXCLUSIONS,
    ReplacementPolicy,
    available_policies,
    make_policy,
    register_policy,
    register_policy_factory,
)
from .kernel import SimulationKernel
from .lru import LRUPolicy
from .fifo import FIFOPolicy, MRUPolicy
from .random_policy import RandomPolicy
from .clock import ClockPolicy, GClockPolicy
from .lfu import AgedLFUPolicy, LFUPolicy
from .lrd import LRDV1Policy, LRDV2Policy
from .working_set import WorkingSetPolicy
from .a0 import A0Policy
from .belady import BeladyPolicy
from .two_q import TwoQPolicy
from .arc import ARCPolicy
from .fbr import FBRPolicy
from .lirs import LIRSPolicy
from .slru import SLRUPolicy
from .multi_pool import MultiPoolPolicy

__all__ = [
    "NO_EXCLUSIONS",
    "ReplacementPolicy",
    "available_policies",
    "make_policy",
    "register_policy",
    "register_policy_factory",
    "SimulationKernel",
    "LRUPolicy",
    "FIFOPolicy",
    "MRUPolicy",
    "RandomPolicy",
    "ClockPolicy",
    "GClockPolicy",
    "LFUPolicy",
    "AgedLFUPolicy",
    "LRDV1Policy",
    "LRDV2Policy",
    "WorkingSetPolicy",
    "A0Policy",
    "BeladyPolicy",
    "TwoQPolicy",
    "ARCPolicy",
    "FBRPolicy",
    "LIRSPolicy",
    "SLRUPolicy",
    "MultiPoolPolicy",
]
