"""kbrw: a simulation and verification lab for branching random walks killed at zero.

The package simulates branching random walks on the real line in which every
particle entering the negative half-line is removed, and cross-checks the
simulations against exact enumeration, closed forms and spinal (size-biased)
estimators: total-progeny tails, leaf counts, renewal functions of the
associated tilted walks, survival above a moving level, and the additive /
derivative martingales.
"""

__version__ = "0.10.0"

from .models import (
    Regime,
    ModelAnalytics,
    IidModel,
    PatternModel,
    classify_regime,
    model_from_json,
    model_to_json,
    critical_binary_gaussian,
    subcritical_binary_gaussian,
    two_point_subcritical,
    critical_lattice_binary,
)
from .estimates import EstimateWithCI

__all__ = [
    "Regime",
    "ModelAnalytics",
    "IidModel",
    "PatternModel",
    "classify_regime",
    "model_from_json",
    "model_to_json",
    "critical_binary_gaussian",
    "subcritical_binary_gaussian",
    "two_point_subcritical",
    "critical_lattice_binary",
    "EstimateWithCI",
    "__version__",
]
