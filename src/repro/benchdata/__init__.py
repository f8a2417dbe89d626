"""Surrogate NAS-Bench-201 benchmark data.

The real NAS-Bench-201 ships pre-trained accuracy tables for all 15,625
architectures on CIFAR-10 / CIFAR-100 / ImageNet16-120; those tables are a
~2 GB gated download.  This package substitutes a deterministic *analytic
surrogate*: per-architecture accuracy is a function of the cell's
topological features (effective conv depth, operator composition, skip
connectivity, disconnection) plus seeded noise, calibrated to the
benchmark's published accuracy ranges.  A training-cost model provides the
simulated GPU-hours that train-based baselines (µNAS) pay per candidate.

See DESIGN.md §2 for the substitution rationale.
"""

from repro._lazy import lazy_exports as _lazy_exports

#: Public names by defining submodule, imported on first access (PEP 562).
_EXPORTS = {
    "surrogate": ("SurrogateModel", "accuracy_of"),
    "cost": ("TrainingCostModel",),
    "api": ("ArchRecord", "SurrogateBenchmarkAPI"),
    "oracle": ("OracleTable", "build_oracle_table"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
