"""Evaluation utilities: rank correlations and experiment reporting."""

from repro._lazy import lazy_exports as _lazy_exports

#: Public names by defining submodule, imported on first access (PEP 562):
#: ``repro.eval.benchconfig`` loads alone.
_EXPORTS = {
    "correlation": ("kendall_tau", "pearson", "spearman_rho"),
    "hypervolume": ("front_hypervolume", "hypervolume_2d",
                    "hypervolume_ratio"),
    "report": ("ExperimentRecord", "agreement_summary", "render_markdown",
               "within_factor"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
