"""The NAS-Bench-201 macro skeleton and network builders.

Layout (for ``MacroConfig(init_channels=C, cells_per_stage=N)``)::

    stem: 3x3 conv (3 -> C) + BN
    stage 1: N cells @ C
    reduction residual block (stride 2, C -> 2C)
    stage 2: N cells @ 2C
    reduction residual block (stride 2, 2C -> 4C)
    stage 3: N cells @ 4C
    BN-ReLU -> global average pool -> linear classifier

The proxies run on a *reduced* configuration (fewer cells, narrower, small
input) exactly as TE-NAS does; the hardware indicators are computed on the
full deployment configuration.

:class:`LinearRegionNetwork` is the BN-free conv+ReLU network the
linear-region proxy walks probe lines through.  :class:`~repro.searchspace.\
specs.MacroConfig` is re-exported for callers that import it from here.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.autograd import Tensor
from repro.errors import ProxyError
from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    Module,
    ModuleList,
    ReLU,
    Sequential,
)
from repro.searchspace.cell import Cell, Identity, SuperCell, Zero
from repro.searchspace.genotype import Genotype
from repro.searchspace.ops import CONV_KERNEL, EDGES, NUM_NODES
from repro.searchspace.specs import EdgeSpec, MacroConfig
from repro.utils.rng import SeedLike, new_rng, stable_seed


class ReductionBlock(Module):
    """NAS-Bench-201 inter-stage residual block (stride 2, doubles width)."""

    def __init__(self, in_channels: int, out_channels: int, rng: SeedLike = None) -> None:
        super().__init__()
        generator = new_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.main = Sequential(
            ReLU(),
            Conv2d(in_channels, out_channels, 3, stride=2, padding=1, rng=generator),
            BatchNorm2d(out_channels),
            ReLU(),
            Conv2d(out_channels, out_channels, 3, stride=1, padding=1, rng=generator),
            BatchNorm2d(out_channels),
        )
        self.shortcut = Sequential(
            AvgPool2d(2, stride=2),
            Conv2d(in_channels, out_channels, 1, stride=1, padding=0, rng=generator),
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.main(x) + self.shortcut(x)


class NasBench201Network(Module):
    """A complete network realising one genotype (or a supernet state)."""

    def __init__(
        self,
        config: MacroConfig,
        cell_factory: Callable[[int], Module],
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        self.config = config
        generator = new_rng(rng)
        c1, c2, c3 = config.stage_channels
        self.stem = Sequential(
            Conv2d(config.input_channels, c1, 3, stride=1, padding=1, rng=generator),
            BatchNorm2d(c1),
        )
        body: List[Module] = []
        for stage_idx, channels in enumerate((c1, c2, c3)):
            if stage_idx > 0:
                body.append(ReductionBlock(channels // 2, channels, rng=generator))
            for _ in range(config.cells_per_stage):
                body.append(cell_factory(channels))
        self.body = ModuleList(body)
        self.lastact = Sequential(BatchNorm2d(c3), ReLU())
        self.pool = GlobalAvgPool2d()
        self.classifier = Linear(c3, config.num_classes, rng=generator)

    def forward(self, x: Tensor) -> Tensor:
        out = self.stem(x)
        for block in self.body:
            out = block(out)
        out = self.lastact(out)
        out = self.pool(out)
        return self.classifier(out)

    def cells(self) -> List[Module]:
        """The cell modules in network order (excludes reduction blocks)."""
        return [m for m in self.body if isinstance(m, (Cell, SuperCell))]


def build_network(
    genotype: Genotype,
    config: Optional[MacroConfig] = None,
    rng: SeedLike = None,
    record_patterns: bool = False,
) -> NasBench201Network:
    """Build a full network for a concrete architecture."""
    config = config or MacroConfig.full()
    generator = new_rng(rng)

    def factory(channels: int) -> Module:
        return Cell(genotype, channels, rng=generator, record_patterns=record_patterns)

    return NasBench201Network(config, factory, rng=generator)


def build_supernet(
    edge_specs: Sequence[EdgeSpec],
    config: Optional[MacroConfig] = None,
    rng: SeedLike = None,
    record_patterns: bool = False,
) -> NasBench201Network:
    """Build a network whose cells carry the given alive-op sets."""
    config = config or MacroConfig.proxy()
    generator = new_rng(rng)

    def factory(channels: int) -> Module:
        return SuperCell(edge_specs, channels, rng=generator,
                         record_patterns=record_patterns)

    return NasBench201Network(config, factory, rng=generator)


def _build_lr_op(op_name: str, channels: int, rng) -> Module:
    """Edge operator of the piecewise-linear expressivity network."""
    if op_name == "none":
        return Zero()
    if op_name == "skip_connect":
        return Identity()
    if op_name == "avg_pool_3x3":
        return AvgPool2d(3, stride=1, padding=1)
    if op_name in CONV_KERNEL:
        kernel = CONV_KERNEL[op_name]
        return Sequential(
            Conv2d(channels, channels, kernel, stride=1, padding=kernel // 2,
                   bias=True, rng=rng),
            ReLU(record_pattern=True),
        )
    raise ProxyError(f"unknown operation {op_name!r}")


class LinearRegionNetwork(Module):
    """BN-free conv+ReLU realisation of a cell for region counting.

    The paper assesses expressivity on "a simple CNN with each layer
    containing a single convolutional operator followed by the ReLU
    activation function" (:mod:`repro.proxies.linear_regions`).
    ``edge_op_sets`` holds one tuple of alive operation names per edge: a
    concrete genotype has singleton tuples, the pruning supernet may have
    several alive ops per edge (their outputs are averaged, matching
    :class:`~repro.searchspace.cell.SuperCell` semantics).
    """

    def __init__(self, edge_op_sets, channels: int, num_cells: int,
                 rng: SeedLike = None) -> None:
        super().__init__()
        generator = new_rng(rng)
        self.edge_op_sets = [tuple(ops) for ops in edge_op_sets]
        if len(self.edge_op_sets) != len(EDGES):
            raise ProxyError(
                f"need {len(EDGES)} edge op sets, got {len(self.edge_op_sets)}"
            )
        self.stem = Sequential(
            Conv2d(3, channels, 3, stride=1, padding=1, bias=True, rng=generator),
            ReLU(record_pattern=True),
        )
        # Weight sharing across prunings: seed each (cell, edge, op) module
        # independently of the other alive ops (see SuperCell).
        base = int(generator.integers(2**31))
        cells = []
        for cell_idx in range(num_cells):
            edge_modules = ModuleList()
            for edge_idx, ops in enumerate(self.edge_op_sets):
                edge_modules.append(ModuleList(
                    _build_lr_op(
                        op, channels,
                        new_rng(stable_seed("lr-op", base, cell_idx, edge_idx, op)),
                    )
                    for op in ops
                ))
            cells.append(edge_modules)
        self.cells = ModuleList(cells)

    @classmethod
    def from_genotype(cls, genotype: Genotype, channels: int, num_cells: int,
                      rng: SeedLike = None) -> "LinearRegionNetwork":
        return cls([(op,) for op in genotype.ops], channels, num_cells, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        out = self.stem(x)
        for cell in self.cells:
            nodes: List[Tensor] = [out]
            for dst in range(1, NUM_NODES):
                total = None
                for edge_idx, (src, edge_dst) in enumerate(EDGES):
                    if edge_dst != dst:
                        continue
                    ops = cell[edge_idx]
                    if len(ops) == 0:
                        continue
                    edge_out = None
                    for op in ops:
                        contribution = op(nodes[src])
                        edge_out = (contribution if edge_out is None
                                    else edge_out + contribution)
                    edge_out = edge_out * (1.0 / len(ops))
                    total = edge_out if total is None else total + edge_out
                nodes.append(total if total is not None else nodes[0] * 0.0)
            out = nodes[-1]
        return out
