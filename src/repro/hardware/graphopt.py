"""Deployment-graph optimisation: what an optimising MCU runtime executes.

:func:`repro.hardware.layers.network_layers` enumerates the *naive*
kernel sequence (every edge's op runs, every multi-input node pays
explicit adds, every ``skip_connect`` is a buffer copy).  Real runtimes
(TFLite-Micro with a graph compiler, microTVM, Glow) apply three cheap
rewrites first:

* **dead-code elimination** — ops on paths that never reach the cell
  output compute values nobody reads,
* **copy elision** — a ``skip_connect`` copy is an alias: its consumer
  reads the source buffer directly,
* **accumulator fusion** — when several edges feed one node, the first
  producer writes the accumulator and each further *conv* producer
  accumulates inside its own GEMM epilogue (``beta = 1``), so only
  non-conv extra inputs still pay an ``add`` kernel.

:func:`optimized_network_layers` mirrors ``network_layers`` under those
rules and :func:`optimization_stats` quantifies what each rewrite removed
— the A10 ablation measures the latency these rewrites are worth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.hardware.layers import LayerOp, _reduction_layers
from repro.searchspace.genotype import Genotype
from repro.searchspace.ops import CONV_KERNEL, EDGES, NUM_NODES
from repro.searchspace.specs import MacroConfig


def live_nodes(genotype: Genotype) -> Set[int]:
    """Nodes on some input→output path of the cell DAG.

    A node is live iff it is reachable from the input (node 0) through
    non-``none`` edges *and* the output (node 3) is reachable from it.
    """
    active = [
        (src, dst)
        for idx, (src, dst) in enumerate(EDGES)
        if genotype.ops[idx] != "none"
    ]
    forward = {0}
    for src, dst in active:  # EDGES is topologically ordered
        if src in forward:
            forward.add(dst)
    backward = {NUM_NODES - 1}
    for src, dst in reversed(active):
        if dst in backward:
            backward.add(src)
    return forward & backward


@dataclass(frozen=True)
class CellOptimization:
    """The optimised kernel sequence of one cell plus rewrite counters."""

    layers: Tuple[LayerOp, ...]
    dead_ops_removed: int
    copies_elided: int
    adds_fused: int


def optimize_cell(genotype: Genotype, channels: int,
                  size: int) -> CellOptimization:
    """Apply DCE, copy elision and accumulator fusion to one cell."""
    keep = live_nodes(genotype)
    layers: List[LayerOp] = []
    dead = 0
    copies_elided = 0
    adds_fused = 0
    # Producers per node, in edge order, considering only live edges.
    producers: List[List[str]] = [[] for _ in range(NUM_NODES)]
    for idx, (src, dst) in enumerate(EDGES):
        op = genotype.ops[idx]
        if op == "none":
            continue
        if src not in keep or dst not in keep:
            dead += 1
            continue
        producers[dst].append(op)
        if op in CONV_KERNEL:
            layers.append(LayerOp("conv", channels, channels, size, size,
                                  kernel=CONV_KERNEL[op]))
        elif op == "avg_pool_3x3":
            layers.append(LayerOp("pool", channels, channels, size, size,
                                  kernel=3))
        elif op == "skip_connect":
            copies_elided += 1  # consumer aliases the source buffer
    for node in range(1, NUM_NODES):
        inputs = producers[node]
        if len(inputs) <= 1:
            continue
        convs = sum(op in CONV_KERNEL for op in inputs)
        pools = sum(op == "avg_pool_3x3" for op in inputs)
        skips = sum(op == "skip_connect" for op in inputs)
        # The compiler orders producers so a conv (if any) writes the
        # accumulator first; every further conv accumulates inside its own
        # GEMM epilogue (beta=1).  Pool results and aliased skip sources
        # still enter through an add kernel each — except that when no
        # conv exists, the first add can write instead of accumulate.
        adds_fused += max(convs - 1, 0)
        adds_needed = pools + skips
        if convs == 0 and adds_needed > 0:
            adds_needed -= 1
        for _ in range(adds_needed):
            layers.append(LayerOp("add", channels, channels, size, size))
    return CellOptimization(
        layers=tuple(layers),
        dead_ops_removed=dead,
        copies_elided=copies_elided,
        adds_fused=adds_fused,
    )


@dataclass(frozen=True)
class OptimizationStats:
    """Whole-network effect of the graph rewrites."""

    kernels_before: int
    kernels_after: int
    dead_ops_removed: int
    copies_elided: int
    adds_fused: int

    @property
    def kernels_removed(self) -> int:
        return self.kernels_before - self.kernels_after

    def describe(self) -> str:
        return (
            f"{self.kernels_before} -> {self.kernels_after} kernels "
            f"({self.dead_ops_removed} dead, {self.copies_elided} copies, "
            f"{self.adds_fused} adds fused)"
        )


def optimized_network_layers(
    genotype: Genotype,
    config: Optional[MacroConfig] = None,
) -> List[LayerOp]:
    """The optimised deployment kernel sequence (cf. ``network_layers``)."""
    config = config or MacroConfig.full()
    channels = config.stage_channels
    sizes = config.stage_sizes
    layers: List[LayerOp] = [
        LayerOp("conv", config.input_channels, channels[0],
                config.image_size, config.image_size, kernel=3)
    ]
    for stage in range(3):
        if stage > 0:
            layers.extend(
                _reduction_layers(channels[stage - 1], channels[stage],
                                  sizes[stage])
            )
        cell = optimize_cell(genotype, channels[stage], sizes[stage])
        for _ in range(config.cells_per_stage):
            layers.extend(cell.layers)
    layers.append(LayerOp("gap", channels[2], channels[2], sizes[2], sizes[2]))
    layers.append(LayerOp("linear", channels[2], config.num_classes, 1, 1))
    return layers


def optimization_stats(
    genotype: Genotype,
    config: Optional[MacroConfig] = None,
) -> OptimizationStats:
    """Count what the rewrites remove across the whole network."""
    from repro.hardware.layers import network_layers

    config = config or MacroConfig.full()
    before = len(network_layers(genotype, config))
    after = len(optimized_network_layers(genotype, config))
    dead = copies = fused = 0
    for channels, size in zip(config.stage_channels, config.stage_sizes):
        cell = optimize_cell(genotype, channels, size)
        dead += config.cells_per_stage * cell.dead_ops_removed
        copies += config.cells_per_stage * cell.copies_elided
        fused += config.cells_per_stage * cell.adds_fused
    return OptimizationStats(
        kernels_before=before,
        kernels_after=after,
        dead_ops_removed=dead,
        copies_elided=copies,
        adds_fused=fused,
    )
