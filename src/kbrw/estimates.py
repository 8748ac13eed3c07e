"""Monte Carlo estimates with uncertainty and provenance."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .seeds import SEED_SCHEME


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
    seed_schedule_id: str = SEED_SCHEME
    truncated_fraction: float = 0.0
    label: str = ""
    extra: dict = field(default_factory=dict)

    def ci(self, k: float = 1.96) -> tuple[float, float]:
        return (self.value - k * self.stderr, self.value + k * self.stderr)

    def within(self, target: float, n_se: float = 4.0, atol: float = 0.0) -> bool:
        return abs(self.value - target) <= n_se * self.stderr + atol

    def agrees_with(self, other: "EstimateWithCI", n_se: float = 4.0) -> bool:
        pooled = math.hypot(self.stderr, other.stderr)
        return abs(self.value - other.value) <= n_se * pooled

    def __str__(self) -> str:  # compact, for report tables
        return f"{self.value:.6g} +- {self.stderr:.2g} (n_eff={self.n_effective:.3g})"


def from_samples(x: np.ndarray, label: str = "", truncated_fraction: float = 0.0) -> EstimateWithCI:
    x = np.asarray(x, dtype=float)
    n = x.size
    if n == 0:
        return EstimateWithCI(math.nan, math.nan, 0.0, label=label,
                              truncated_fraction=truncated_fraction)
    m = float(x.mean())
    se = float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return EstimateWithCI(m, se, float(n), label=label, truncated_fraction=truncated_fraction)


def binomial_estimate(k: int, n: int, label: str = "",
                      truncated_fraction: float = 0.0) -> EstimateWithCI:
    if n <= 0:
        return EstimateWithCI(math.nan, math.nan, 0.0, label=label)
    p = k / n
    se = math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return EstimateWithCI(p, se, float(n), label=label, truncated_fraction=truncated_fraction)
