"""Cell modules: fixed-architecture cells and the pruning supernet cell.

Node semantics follow NAS-Bench-201: node 0 is the cell input, and each
later node is the *sum* of its incoming edge operations applied to the
corresponding source nodes.  Node 3 is the cell output.

The candidate operations' modules (:func:`build_op`) are built here;
their names and closed-form costs are in :mod:`repro.searchspace.ops`.
:class:`~repro.searchspace.specs.EdgeSpec` is re-exported for callers
that import it from this module.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.autograd import Tensor
from repro.errors import SearchSpaceError
from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Module,
    ModuleList,
    ReLU,
    Sequential,
)
from repro.searchspace.genotype import Genotype
from repro.searchspace.ops import CONV_KERNEL, EDGES, NUM_NODES
from repro.searchspace.specs import EdgeSpec
from repro.utils.rng import SeedLike, new_rng, stable_seed


class Zero(Module):
    """The ``none`` operation: output zeros of the input shape."""

    def forward(self, x: Tensor) -> Tensor:
        return x * 0.0


class Identity(Module):
    """The ``skip_connect`` operation."""

    def forward(self, x: Tensor) -> Tensor:
        return x


def build_op(op_name: str, channels: int, rng: SeedLike = None,
             record_patterns: bool = False) -> Module:
    """Instantiate a candidate operation at the given channel width.

    ``record_patterns`` turns on ReLU activation-pattern recording, which the
    linear-region proxy consumes.
    """
    if op_name == "none":
        return Zero()
    if op_name == "skip_connect":
        return Identity()
    if op_name == "avg_pool_3x3":
        return AvgPool2d(3, stride=1, padding=1)
    if op_name in CONV_KERNEL:
        kernel = CONV_KERNEL[op_name]
        return Sequential(
            ReLU(record_pattern=record_patterns),
            Conv2d(channels, channels, kernel, stride=1,
                   padding=kernel // 2, bias=False, rng=rng),
            BatchNorm2d(channels),
        )
    raise SearchSpaceError(f"unknown operation {op_name!r}")


class Cell(Module):
    """A cell with exactly one operation per edge (a concrete architecture)."""

    def __init__(self, genotype: Genotype, channels: int, rng: SeedLike = None,
                 record_patterns: bool = False) -> None:
        super().__init__()
        self.genotype = genotype
        self.channels = channels
        # Per-(edge, op) seeding mirrors SuperCell so that a supernet pruned
        # down to singletons realises exactly this cell's weights.
        base = int(new_rng(rng).integers(2**31))
        self.edge_ops = ModuleList(
            build_op(op_name, channels,
                     rng=stable_seed("supercell-op", base, edge_idx, op_name),
                     record_patterns=record_patterns)
            for edge_idx, op_name in enumerate(genotype.ops)
        )

    def forward(self, x: Tensor) -> Tensor:
        nodes: List[Tensor] = [x]
        for dst in range(1, NUM_NODES):
            total = None
            for edge_idx, (src, edge_dst) in enumerate(EDGES):
                if edge_dst != dst:
                    continue
                contribution = self.edge_ops[edge_idx](nodes[src])
                total = contribution if total is None else total + contribution
            if total is None:  # pragma: no cover - DAG guarantees incoming edges
                raise SearchSpaceError(f"node {dst} has no incoming edges")
            nodes.append(total)
        return nodes[-1]


class SuperCell(Module):
    """A cell whose edges each carry a *set* of candidate operations.

    The forward pass sums every alive operation's output on each edge and
    divides by the number of alive ops, so pruning an op changes the
    function smoothly.  This is the network the pruning-based search scores.
    """

    def __init__(
        self,
        edge_specs: Sequence[EdgeSpec],
        channels: int,
        rng: SeedLike = None,
        record_patterns: bool = False,
    ) -> None:
        super().__init__()
        if len(edge_specs) != len(EDGES):
            raise SearchSpaceError(
                f"need {len(EDGES)} edge specs, got {len(edge_specs)}"
            )
        self.edge_specs = list(edge_specs)
        self.channels = channels
        # Weight sharing across prunings: each (edge, op) module is seeded
        # independently of which *other* ops are alive, so removing one op
        # leaves every remaining weight identical.  The pruning search
        # relies on this — candidate scores then reflect the removed op's
        # contribution rather than re-initialisation noise (TE-NAS shares
        # supernet weights the same way).
        base = int(new_rng(rng).integers(2**31))
        self._edge_modules: Dict[Tuple[int, str], Module] = {}
        ops = ModuleList()
        for spec in self.edge_specs:
            for op_name in spec.alive_ops:
                op_seed = stable_seed("supercell-op", base, spec.edge_index, op_name)
                module = build_op(op_name, channels, rng=op_seed,
                                  record_patterns=record_patterns)
                self._edge_modules[(spec.edge_index, op_name)] = module
                ops.append(module)
        self.ops = ops

    def forward(self, x: Tensor) -> Tensor:
        nodes: List[Tensor] = [x]
        for dst in range(1, NUM_NODES):
            total = None
            for edge_idx, (src, edge_dst) in enumerate(EDGES):
                if edge_dst != dst:
                    continue
                spec = self.edge_specs[edge_idx]
                if not spec.alive_ops:
                    continue
                edge_out = None
                for op_name in spec.alive_ops:
                    module = self._edge_modules[(edge_idx, op_name)]
                    out = module(nodes[src])
                    edge_out = out if edge_out is None else edge_out + out
                edge_out = edge_out * (1.0 / len(spec.alive_ops))
                total = edge_out if total is None else total + edge_out
            if total is None:
                total = nodes[0] * 0.0
            nodes.append(total)
        return nodes[-1]
