"""The NAS-Bench-201 cell search space.

A cell is a directed acyclic graph with 4 nodes; each of the 6 edges carries
one of 5 candidate operations.  An architecture is one operation assignment
per edge (5^6 = 15,625 architectures).  Cells are stacked into the standard
NAS-Bench-201 macro skeleton: stem -> N cells -> reduction -> N cells ->
reduction -> N cells -> global pool -> classifier.
"""

from repro._lazy import lazy_exports as _lazy_exports

#: Public names by defining submodule, imported on first access (PEP 562):
#: ``import repro.searchspace.genotype`` does not build the module tree.
_EXPORTS = {
    "ops": ("CANDIDATE_OPS", "NUM_EDGES", "NUM_NODES", "OP_INDEX",
            "op_is_parametric"),
    "genotype": ("Genotype",),
    "specs": ("EdgeSpec", "MacroConfig"),
    "cell": ("Cell", "SuperCell", "build_op"),
    "network": ("NasBench201Network", "build_network"),
    "features": ("TopologyFeatures", "extract_features"),
    "space": ("NasBench201Space",),
    "stats": ("SpaceStatistics", "canonical_census", "class_of",
              "op_histogram", "space_statistics", "unique_sample"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
