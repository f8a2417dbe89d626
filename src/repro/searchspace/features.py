"""Topological feature extraction for genotypes.

These features drive the surrogate accuracy model and are also useful for
analysis: effective paths from the cell input to the cell output, conv
depth, skip connectivity, and disconnection detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

from repro.searchspace.genotype import Genotype
from repro.searchspace.ops import EDGES

if TYPE_CHECKING:
    import networkx as nx

#: Operations that propagate information (everything except ``none``).
_PASSING_OPS = {"skip_connect", "nor_conv_1x1", "nor_conv_3x3", "avg_pool_3x3"}
_CONV_OPS = {"nor_conv_1x1", "nor_conv_3x3"}


@dataclass(frozen=True)
class TopologyFeatures:
    """Structural summary of one cell architecture."""

    is_connected: bool
    num_paths: int
    max_conv_depth: int
    min_conv_depth: int
    mean_conv_depth: float
    num_conv3x3: int
    num_conv1x1: int
    num_skip: int
    num_pool: int
    num_none: int
    has_direct_skip: bool
    effective_edges: int
    pool_on_all_paths: bool

    @property
    def conv_count(self) -> int:
        return self.num_conv3x3 + self.num_conv1x1


def cell_graph(genotype: Genotype) -> nx.DiGraph:
    """Build the effective DAG of a genotype (``none`` edges removed)."""
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(range(4))
    for edge_idx, (src, dst) in enumerate(EDGES):
        op = genotype.ops[edge_idx]
        if op in _PASSING_OPS:
            graph.add_edge(src, dst, op=op, index=edge_idx)
    return graph


def effective_paths(genotype: Genotype) -> List[Tuple[str, ...]]:
    """All input→output op sequences through non-``none`` edges.

    Depth-first from node 0, taking each node's outgoing edges in
    ``EDGES`` order — the order ``networkx.all_simple_paths`` yields on
    :func:`cell_graph`.
    """
    paths: List[Tuple[str, ...]] = []

    def walk(node: int, ops: Tuple[str, ...]) -> None:
        if node == 3:
            paths.append(ops)
            return
        for edge_idx, (src, dst) in enumerate(EDGES):
            op = genotype.ops[edge_idx]
            if src == node and op in _PASSING_OPS:
                walk(dst, ops + (op,))

    walk(0, ())
    return paths


def extract_features(genotype: Genotype) -> TopologyFeatures:
    """Compute :class:`TopologyFeatures` for a genotype."""
    paths = effective_paths(genotype)
    conv_depths = [sum(1 for op in path if op in _CONV_OPS) for path in paths]
    pool_free_path = any(
        all(op != "avg_pool_3x3" for op in path) for path in paths
    )
    return TopologyFeatures(
        is_connected=bool(paths),
        num_paths=len(paths),
        max_conv_depth=max(conv_depths) if conv_depths else 0,
        min_conv_depth=min(conv_depths) if conv_depths else 0,
        mean_conv_depth=(sum(conv_depths) / len(conv_depths)) if conv_depths else 0.0,
        num_conv3x3=genotype.count("nor_conv_3x3"),
        num_conv1x1=genotype.count("nor_conv_1x1"),
        num_skip=genotype.count("skip_connect"),
        num_pool=genotype.count("avg_pool_3x3"),
        num_none=genotype.count("none"),
        has_direct_skip=genotype.op_on_edge(0, 3) == "skip_connect",
        effective_edges=sum(1 for op in genotype.ops if op in _PASSING_OPS),
        pool_on_all_paths=bool(paths) and not pool_free_path,
    )
