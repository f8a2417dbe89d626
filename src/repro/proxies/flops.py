"""Analytic FLOPs and parameter counting (hardware indicator ``F``).

Counts follow the NAS-Bench-201 convention (1 multiply-add = 1 FLOP), so
values are comparable with the paper's Table I (e.g. the all-3×3 cell at
the full 16-channel / 5-cell configuration lands near 190 MFLOPs and
1.3 M parameters).
"""

from __future__ import annotations

from typing import Optional

from repro.searchspace.genotype import Genotype
from repro.searchspace.ops import op_flops, op_params
from repro.searchspace.specs import MacroConfig


def _reduction_flops(c_in: int, c_out: int, out_size: int) -> int:
    """FLOPs of the inter-stage residual block at its *output* resolution."""
    area = out_size * out_size
    conv1 = c_in * c_out * 9 * area
    conv2 = c_out * c_out * 9 * area
    shortcut_pool = 4 * c_in * area
    shortcut_conv = c_in * c_out * area
    return conv1 + conv2 + shortcut_pool + shortcut_conv


def _reduction_params(c_in: int, c_out: int) -> int:
    conv1 = c_in * c_out * 9 + 2 * c_out
    conv2 = c_out * c_out * 9 + 2 * c_out
    shortcut = c_in * c_out
    return conv1 + conv2 + shortcut


def count_flops(genotype: Genotype, config: Optional[MacroConfig] = None) -> int:
    """Total network FLOPs for a genotype at a macro configuration."""
    config = config or MacroConfig.full()
    channels = config.stage_channels
    sizes = config.stage_sizes
    total = 0
    # Stem: 3x3 conv input_channels -> C at full resolution.
    total += config.input_channels * channels[0] * 9 * config.image_size**2
    cell_flops_per_stage = []
    for c, s in zip(channels, sizes):
        per_cell = sum(op_flops(op, c, s, s) for op in genotype.ops)
        cell_flops_per_stage.append(per_cell)
        total += config.cells_per_stage * per_cell
    for stage in (1, 2):
        total += _reduction_flops(channels[stage - 1], channels[stage], sizes[stage])
    # Classifier (global pooling cost negligible; linear = C3 * classes MACs).
    total += channels[2] * config.num_classes
    return total


def count_params(genotype: Genotype, config: Optional[MacroConfig] = None) -> int:
    """Learnable parameter count for a genotype at a macro configuration.

    Matches ``build_network(...).num_parameters()`` exactly (validated by
    tests), so the analytic count can stand in for building the network.
    """
    config = config or MacroConfig.full()
    channels = config.stage_channels
    total = 0
    # Stem conv + BN.
    total += config.input_channels * channels[0] * 9 + 2 * channels[0]
    for c in channels:
        per_cell = sum(op_params(op, c) for op in genotype.ops)
        total += config.cells_per_stage * per_cell
    for stage in (1, 2):
        total += _reduction_params(channels[stage - 1], channels[stage])
    # Final BN + classifier (weights + bias).
    total += 2 * channels[2]
    total += channels[2] * config.num_classes + config.num_classes
    return total
