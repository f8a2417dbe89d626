"""Search algorithms (Section II of the paper).

* :class:`MicroNASSearch` — the paper's hardware-aware pruning-based
  search over the supernet, driven by the hybrid objective (NTK + linear
  regions + FLOPs/latency indicators with tunable weights), with outer-loop
  weight adaptation under hard constraints,
* :class:`TENASSearch` — the TE-NAS baseline (same pruning, no hardware
  indicators),
* :class:`ZeroShotRandomSearch` — sample-and-rank baseline under the same
  proxy budget,
* :class:`ConstrainedEvolutionarySearch` — the µNAS-style train-based
  baseline (aging evolution; every candidate pays simulated training time),
* :class:`TrainlessEvolutionarySearch` — the same aging-evolution loop
  driven by the batched trainless engine (no training, cache-backed),
* :class:`SteadyStateEvolutionarySearch` — event-driven asynchronous
  evolution over the async runtime: ``n_workers`` candidates stay in
  flight, children are mutated from the current Pareto set the moment any
  future resolves (no generation barriers),
* :class:`MacroStageSearch` — the secondary stage: fit the discovered cell
  onto a device by searching cells-per-stage and channel width.

All indicator values flow through :class:`repro.engine.Engine` — the
batched, canonicalization-aware evaluation layer — rather than being
re-derived inline by each algorithm.
"""

from repro._lazy import lazy_exports as _lazy_exports

#: Public names by defining submodule, imported on first access (PEP 562):
#: a run loads the search module its algorithm runs, not all of them.
_EXPORTS = {
    "objective": ("HybridObjective", "ObjectiveWeights"),
    "costs": ("CostModel", "DeployPrecision", "DEPLOY_PRECISIONS",
              "FLOAT32_DEPLOY", "INT8_DEPLOY", "build_cost_model",
              "register_cost_model", "registered_cost_models",
              "resolve_deploy_precision"),
    "constraints": ("HardwareConstraints",),
    "result": ("SearchResult",),
    "pruning": ("MicroNASSearch",),
    "tenas": ("TENASSearch",),
    "random_search": ("ZeroShotRandomSearch",),
    "evolutionary": ("ConstrainedEvolutionarySearch",
                     "SteadyStateEvolutionarySearch",
                     "TrainlessEvolutionarySearch", "EvolutionConfig"),
    "macro": ("DeploymentPlan", "MacroCandidate", "MacroSearchSpace",
              "MacroStageSearch", "device_constraints", "plan_deployment"),
    "pareto": ("ParetoPoint", "ParetoResult", "ParetoZeroShotSearch",
               "crowding_distance", "dominates", "non_dominated_sort"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
