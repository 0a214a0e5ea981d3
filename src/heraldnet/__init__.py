"""Heralded multi-party GHZ distribution over lossy optical channels.

Exact sparse-amplitude simulation of three distribution schemes (Bell-pair
centralized, single-photon centralized, single-photon decentralized), their
closed-form metrics, and the comparison tooling between the two.

The top level holds the documented entry points; the engine (``fock``,
``optics``, ``schemes``) and the drivers (``experiments``, ``cli``) are
imported from their submodules.
"""

from .analytic import (
    closed_h_eff,
    closed_p_hr,
    closed_p_suc,
    crossover_radius,
    exact_h_eff,
    exact_p_hr,
    lhv_threshold,
    p_suc_crossing_party_count,
)
from .heralding import (
    Metrics,
    PatternOutcome,
    UndefinedMetricError,
    analyze_patterns,
    compute_metrics,
)
from .schemes import SchemeBuild, build_scheme

__version__ = "0.1.0"

__all__ = [
    "Metrics",
    "PatternOutcome",
    "SchemeBuild",
    "UndefinedMetricError",
    "analyze_patterns",
    "build_scheme",
    "closed_h_eff",
    "closed_p_hr",
    "closed_p_suc",
    "compute_metrics",
    "crossover_radius",
    "exact_h_eff",
    "exact_p_hr",
    "lhv_threshold",
    "p_suc_crossing_party_count",
]
