"""Monte Carlo estimates with uncertainty and provenance."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class EstimateWithCI:
    """A point estimate with its standard error and replica accounting.

    ``n_effective`` is the effective sample size ((sum w)^2 / sum w^2 for
    weighted estimators, the replica count for plain means);
    ``truncated_fraction`` is the fraction of replicas that hit a simulation
    cap and were excluded or flagged.
    """

    value: float
    stderr: float
    n_effective: float
    truncated_fraction: float = 0.0
    extra: dict = field(default_factory=dict)

    def within(self, target: float, n_se: float) -> bool:
        return abs(self.value - target) <= n_se * self.stderr


def from_samples(x: np.ndarray, truncated_fraction: float = 0.0) -> EstimateWithCI:
    x = np.asarray(x, dtype=float)
    n = x.size
    if n == 0:
        return EstimateWithCI(math.nan, math.nan, 0.0,
                              truncated_fraction=truncated_fraction)
    m = float(x.mean())
    se = float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return EstimateWithCI(m, se, float(n), truncated_fraction=truncated_fraction)


def binomial_estimate(k: int, n: int,
                      truncated_fraction: float = 0.0) -> EstimateWithCI:
    if n <= 0:
        return EstimateWithCI(math.nan, math.nan, 0.0)
    p = k / n
    se = math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return EstimateWithCI(p, se, float(n), truncated_fraction=truncated_fraction)


def pooled_z(a, sa, b, sb):
    """|a - b| in units of the pooled error hypot(sa, sb), elementwise.

    A zero gap over a zero error is a match (0); a nonzero gap over a zero
    error is infinitely far (inf).
    """
    pooled = np.hypot(sa, sb)
    return np.where(pooled > 0, np.abs(a - b) / np.where(pooled > 0, pooled, 1.0),
                    np.where(a == b, 0.0, np.inf))
