"""Linear-region count proxy (Section II-A-2).

The paper assesses expressivity on "a simple CNN with each layer containing
a single convolutional operator followed by the ReLU activation function":
the cell DAG is re-materialised with BN-free conv+ReLU edges (skip and pool
unchanged), so the network is exactly piecewise linear.

Two estimators are provided:

* :func:`count_line_regions` (default) — the number of distinct activation
  patterns crossed while walking straight line segments through input
  space.  Each ReLU unit whose decision boundary intersects the segment
  splits it; expressive cells cut the segment into many pieces.  This is
  the 1-D restriction studied by Xiong et al. (2020) and it does not
  saturate with sample count.
* :func:`count_sample_regions` — distinct patterns over i.i.d. random
  inputs (the TE-NAS estimator); kept for comparison and ablations.

Higher is better.

``ProxyConfig.lr_mode`` selects how line counts run.  ``"batched"``
(default) sends every line's points through one forward of a compiled,
forward-only :class:`~repro.engine.plan.LinePlan` over a weight bank: no
module tree is built.  Supernet states share one bank (weights, then the
probe lines) per process and ``(config, repeat)``.  The patterns equal
:func:`repro.engine.kernels.batched_line_patterns` over the
:class:`LinearRegionNetwork` the same seed builds.  ``"reference"``
builds that network and runs one forward per line.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.autograd.precision import precision
from repro.errors import ProxyError
from repro.nn import AvgPool2d, Conv2d, Module, ModuleList, ReLU, Sequential
from repro.nn.layers.activation import ReLU as ReLULayer
from repro.proxies.base import ProxyConfig
from repro.searchspace.genotype import Genotype
from repro.searchspace.ops import CONV_KERNEL, EDGES, NUM_NODES
from repro.utils.rng import SeedLike, new_rng, stable_seed


def _build_lr_op(op_name: str, channels: int, rng) -> Module:
    """Edge operator of the piecewise-linear expressivity network."""
    if op_name == "none":
        return _Zero()
    if op_name == "skip_connect":
        return _Identity()
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


class _Zero(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x * 0.0


class _Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class LinearRegionNetwork(Module):
    """BN-free conv+ReLU realisation of a cell for region counting.

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


def _forward_patterns(network: Module, images: np.ndarray) -> np.ndarray:
    """Concatenated binary ReLU patterns, one row per input."""
    relus = [m for m in network.modules() if isinstance(m, ReLULayer)]
    if not relus:
        raise ProxyError("network has no ReLU units; linear regions undefined")
    for relu in relus:
        relu.record_pattern = True
        relu.last_pattern = None
    network.train(True)
    with no_grad():
        network(Tensor(images))
    batch = images.shape[0]
    parts = [
        relu.last_pattern.reshape(batch, -1)
        for relu in relus
        if relu.last_pattern is not None
    ]
    return np.concatenate(parts, axis=1)


def count_distinct_patterns(patterns: np.ndarray) -> int:
    """Number of unique rows in a binary pattern matrix."""
    packed = np.packbits(patterns.astype(np.uint8), axis=1)
    return int(np.unique(packed, axis=0).shape[0])


def _regions_along_line(network: Module, start: np.ndarray, stop: np.ndarray,
                        num_points: int) -> int:
    """Distinct activation patterns along the segment start→stop."""
    ts = np.linspace(0.0, 1.0, num_points).reshape(-1, 1, 1, 1)
    line = start[None] * (1.0 - ts) + stop[None] * ts
    patterns = _forward_patterns(network, line)
    # Count boundary crossings: consecutive points with different patterns.
    changed = (patterns[1:] != patterns[:-1]).any(axis=1)
    return int(changed.sum()) + 1


def _draw_lines(generator, shape, num_lines: int):
    """Random segment endpoints, drawn in the per-line reference order."""
    starts = np.empty((num_lines, *shape))
    stops = np.empty((num_lines, *shape))
    for line in range(num_lines):
        starts[line] = generator.normal(size=shape) * 2.0
        stops[line] = generator.normal(size=shape) * 2.0
    return starts, stops


def _count_lines(edge_op_sets, config: ProxyConfig, generator, num_lines: int,
                 mode: str, bank=None) -> List[int]:
    """Region counts for ``num_lines`` random segments in the given mode.

    ``"batched"`` runs every line's sample points through one compiled
    :class:`~repro.engine.plan.LinePlan` forward over a weight bank drawn
    from ``generator`` (or the given ``bank``), bit-identical to the
    stacked ``batched_line_patterns`` forward; ``"reference"`` builds the
    network and runs the original one-forward-per-line loop.
    """
    if mode == "batched":
        # Deferred import: the engine package imports this module.
        from repro.engine.plan import LinePlan, draw_lr_bank

        if bank is None:
            bank = draw_lr_bank(edge_op_sets, config, generator, num_lines)
        plan = LinePlan(edge_op_sets, config.lr_channels, config.lr_num_cells,
                        config.lr_input_size)
        return [int(c) for c in plan.count(bank)]
    if mode != "reference":
        raise ProxyError(f"unknown linear-region mode {mode!r}")
    network = LinearRegionNetwork(edge_op_sets, channels=config.lr_channels,
                                  num_cells=config.lr_num_cells, rng=generator)
    shape = (3, config.lr_input_size, config.lr_input_size)
    counts = []
    for _ in range(num_lines):
        start = generator.normal(size=shape) * 2.0
        stop = generator.normal(size=shape) * 2.0
        counts.append(_regions_along_line(network, start, stop,
                                          config.lr_num_samples))
    return counts


def count_line_regions(
    genotype: Genotype,
    config: Optional[ProxyConfig] = None,
    rng: SeedLike = None,
    num_lines: int = 4,
    mode: Optional[str] = None,
) -> float:
    """Mean number of linear regions crossed by random input segments."""
    config = config or ProxyConfig()
    mode = mode or config.lr_mode
    counts = []
    with precision(config.precision_policy()):
        for repeat in range(config.repeats):
            generator = new_rng(
                stable_seed("lr", config.seed, repeat, genotype.to_index())
                if rng is None
                else rng
            )
            counts.extend(_count_lines([(op,) for op in genotype.ops], config,
                                       generator, num_lines, mode))
    return float(np.mean(counts))


def count_sample_regions(
    genotype: Genotype,
    config: Optional[ProxyConfig] = None,
    rng: SeedLike = None,
) -> float:
    """Distinct patterns over i.i.d. inputs (TE-NAS estimator; saturates)."""
    config = config or ProxyConfig()
    counts = []
    with precision(config.precision_policy()):
        for repeat in range(config.repeats):
            generator = new_rng(
                stable_seed("lr-sample", config.seed, repeat, genotype.to_index())
                if rng is None
                else rng
            )
            network = LinearRegionNetwork.from_genotype(
                genotype,
                channels=config.lr_channels,
                num_cells=config.lr_num_cells,
                rng=generator,
            )
            images = generator.uniform(
                -1.0, 1.0,
                size=(config.lr_num_samples, 3,
                      config.lr_input_size, config.lr_input_size),
            )
            counts.append(
                count_distinct_patterns(_forward_patterns(network, images))
            )
    return float(np.mean(counts))


def count_linear_regions(
    genotype: Genotype,
    config: Optional[ProxyConfig] = None,
    rng: SeedLike = None,
) -> float:
    """The paper's expressivity indicator (line-restriction estimator)."""
    return count_line_regions(genotype, config, rng=rng)


def supernet_line_regions(
    edge_op_sets,
    config: Optional[ProxyConfig] = None,
    rng: SeedLike = None,
    num_lines: int = 4,
    mode: Optional[str] = None,
) -> float:
    """Line-region count of a pruning-supernet state (alive-op sets)."""
    config = config or ProxyConfig()
    mode = mode or config.lr_mode
    counts = []
    with precision(config.precision_policy()):
        for repeat in range(config.repeats):
            # Config-only seed: candidate prunings share weights and test
            # lines (see supernet_ntk_condition_number); in batched mode the
            # process draws them once per (config, repeat).
            generator = bank = None
            if mode == "batched" and rng is None:
                from repro.engine.plan import supernet_lr_bank

                bank = supernet_lr_bank(config, repeat, num_lines)
            else:
                generator = new_rng(
                    stable_seed("lr-super", config.seed, repeat)
                    if rng is None
                    else rng
                )
            counts.extend(_count_lines(edge_op_sets, config, generator,
                                       num_lines, mode, bank=bank))
    return float(np.mean(counts))
