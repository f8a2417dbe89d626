"""Zero-cost performance indicators (Section II of the paper).

* :mod:`repro.proxies.ntk` — neural tangent kernel spectrum / condition
  numbers ``K_i`` (trainability),
* :mod:`repro.proxies.linear_regions` — ReLU linear-region count
  (expressivity),
* :mod:`repro.proxies.flops` — analytic FLOPs and parameter counts
  (hardware indicator ``F``),
* :mod:`repro.proxies.ranking` — rank aggregation used to combine
  indicators into the hybrid objective.
"""

from repro._lazy import lazy_exports as _lazy_exports

#: Public names by defining submodule, imported on first access (PEP 562):
#: the engine imports ``proxies.base`` without the sweep analysis and the
#: benchmark data it reads.
_EXPORTS = {
    "base": ("ProxyConfig",),
    "analysis": ("BatchSizeSweep", "ConditionNumberSweep",
                 "batch_size_sweep", "condition_number_sweep"),
    "ntk": ("NtkResult", "compute_ntk_gram", "condition_numbers",
            "ntk_condition_number"),
    "linear_regions": ("count_linear_regions",),
    "flops": ("count_flops", "count_params"),
    "ranking": ("rank_array", "combine_ranks"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
