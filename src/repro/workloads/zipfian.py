"""Zipfian random access of Section 4.2.

The paper (following [CKS] and Knuth) defines the skew through a
self-similar CDF: "the probability for referencing a page with page number
less than or equal to i is (i/N)^(log alpha / log beta)", so that "a
fraction alpha of the references accesses a fraction beta of the N pages
(and the same relationship holds recursively)". Table 4.2 uses
alpha = 0.8, beta = 0.2 — the classic 80-20 rule.

Sampling is exact and O(1) per reference by CDF inversion:
``F(i) = (i/N)**theta`` with ``theta = log(alpha)/log(beta)`` inverts to
``i = ceil(N * u**(1/theta))`` for uniform ``u``.

Page ids are 1-based (1..N) to keep the paper's "page number <= i"
formula literal; :meth:`reference_probabilities` returns the exact
per-page masses ``F(i) - F(i-1)``.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Sequence

from ..errors import ConfigurationError
from ..stats import SeededRng
from ..types import PageId
from .base import Workload


def zipf_theta(alpha: float, beta: float) -> float:
    """The paper's skew exponent log(alpha)/log(beta).

    alpha = beta gives theta = 1 (uniform); alpha -> 1 with small beta
    gives theta -> 0 (extreme skew).
    """
    if not 0.0 < alpha < 1.0 or not 0.0 < beta < 1.0:
        raise ConfigurationError("alpha and beta must lie strictly in (0, 1)")
    return math.log(alpha) / math.log(beta)


def zipfian_probabilities(n: int, alpha: float = 0.8,
                          beta: float = 0.2) -> Dict[PageId, float]:
    """Exact per-page probabilities under the self-similar CDF."""
    if n <= 0:
        raise ConfigurationError("page count must be positive")
    theta = zipf_theta(alpha, beta)
    probabilities: Dict[PageId, float] = {}
    previous = 0.0
    for i in range(1, n + 1):
        current = (i / n) ** theta
        probabilities[i] = current - previous
        previous = current
    return probabilities


class ZipfianWorkload(Workload):
    """Independent references with the paper's self-similar Zipfian skew."""

    def __init__(self, n: int = 1000, alpha: float = 0.8,
                 beta: float = 0.2) -> None:
        if n <= 0:
            raise ConfigurationError("page count must be positive")
        self.n = n
        self.alpha = alpha
        self.beta = beta
        self.theta = zipf_theta(alpha, beta)
        self._inverse_exponent = 1.0 / self.theta

    def page_ids(self, count: int, seed: int = 0) -> array:
        """Inverse-CDF sampling into a preallocated ``array('q')``: one
        uniform variate per reference; ids are 1..N."""
        rng = SeededRng(seed)
        random_ = rng.random
        ceil = math.ceil
        n = self.n
        inv = self._inverse_exponent
        out = array("q", bytes(8 * count))
        for i in range(count):
            # u == 0.0 would map to page 0; clamp into the support.
            page = ceil(n * random_() ** inv)
            out[i] = n if page > n else (1 if page < 1 else page)
        return out

    def pages(self) -> Sequence[PageId]:
        return range(1, self.n + 1)

    def reference_probabilities(self) -> Dict[PageId, float]:
        return zipfian_probabilities(self.n, self.alpha, self.beta)

    def hottest_pages(self, fraction: float) -> Sequence[PageId]:
        """The hottest ``fraction`` of pages (they absorb ~alpha^depth mass)."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError("fraction must lie in [0, 1]")
        return range(1, 1 + int(round(self.n * fraction)))
