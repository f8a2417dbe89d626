"""Symbolic layer enumeration of a genotype's deployment network.

Both the latency ground truth and the LUT estimator work over the same
list of :class:`LayerOp` descriptors, so they agree on *what* executes and
differ only in *how* each layer's time is obtained (exact cycle model vs
profiled lookup table).

Deployment-graph conventions (mirroring an optimising MCU runtime):

* ``none`` edges are removed — they execute nothing,
* BatchNorm is folded into the preceding convolution (zero runtime cost),
* each cell node with ``k`` incoming non-none edges costs ``k - 1``
  elementwise-add kernels,
* ``skip_connect`` is a buffer copy (it cannot always be aliased because
  the destination accumulates multiple edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.searchspace.genotype import Genotype
from repro.searchspace.ops import CONV_KERNEL, EDGES, NUM_NODES
from repro.searchspace.specs import MacroConfig


@dataclass(frozen=True)
class LayerOp:
    """One runtime kernel invocation.

    ``kind`` is one of ``conv``, ``pool``, ``add``, ``copy``, ``linear``,
    ``gap`` (global average pool).  Shapes describe the *output* feature
    map except for ``copy``/``add`` where input and output agree.
    """

    kind: str
    c_in: int
    c_out: int
    height: int
    width: int
    kernel: int = 1
    stride: int = 1

    @property
    def key(self) -> Tuple:
        """Hashable LUT key."""
        return (self.kind, self.c_in, self.c_out, self.height, self.width,
                self.kernel, self.stride)

    @property
    def out_elements(self) -> int:
        return self.c_out * self.height * self.width

    @property
    def macs(self) -> int:
        if self.kind == "conv":
            return self.c_in * self.c_out * self.kernel**2 * self.height * self.width
        if self.kind == "linear":
            return self.c_in * self.c_out
        return 0


def op_layer(op_name: str, channels: int, size: int) -> Optional[LayerOp]:
    """The kernel a single cell operation executes (None for ``none``)."""
    if op_name == "none":
        return None
    if op_name in CONV_KERNEL:
        return LayerOp("conv", channels, channels, size, size,
                       kernel=CONV_KERNEL[op_name])
    if op_name == "avg_pool_3x3":
        return LayerOp("pool", channels, channels, size, size, kernel=3)
    if op_name == "skip_connect":
        return LayerOp("copy", channels, channels, size, size)
    raise ValueError(f"unknown operation {op_name!r}")


def _cell_layers(genotype: Genotype, channels: int, size: int) -> List[LayerOp]:
    """Kernel sequence of one cell at a given width/resolution."""
    layers: List[LayerOp] = []
    incoming_count = [0] * NUM_NODES
    for edge_idx, (src, dst) in enumerate(EDGES):
        op = genotype.ops[edge_idx]
        if op == "none":
            continue
        incoming_count[dst] += 1
        if op in CONV_KERNEL:
            layers.append(LayerOp("conv", channels, channels, size, size,
                                  kernel=CONV_KERNEL[op]))
        elif op == "avg_pool_3x3":
            layers.append(LayerOp("pool", channels, channels, size, size, kernel=3))
        elif op == "skip_connect":
            layers.append(LayerOp("copy", channels, channels, size, size))
    for node in range(1, NUM_NODES):
        extra = max(0, incoming_count[node] - 1)
        for _ in range(extra):
            layers.append(LayerOp("add", channels, channels, size, size))
    return layers


def _reduction_layers(c_in: int, c_out: int, out_size: int) -> List[LayerOp]:
    return [
        LayerOp("conv", c_in, c_out, out_size, out_size, kernel=3, stride=2),
        LayerOp("conv", c_out, c_out, out_size, out_size, kernel=3, stride=1),
        LayerOp("pool", c_in, c_in, out_size, out_size, kernel=2, stride=2),
        LayerOp("conv", c_in, c_out, out_size, out_size, kernel=1, stride=1),
        LayerOp("add", c_out, c_out, out_size, out_size),
    ]


def network_layers(genotype: Genotype, config: Optional[MacroConfig] = None) -> List[LayerOp]:
    """Every kernel invocation of the deployment network, in order."""
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
                _reduction_layers(channels[stage - 1], channels[stage], sizes[stage])
            )
        cell = _cell_layers(genotype, channels[stage], sizes[stage])
        for _ in range(config.cells_per_stage):
            layers.extend(cell)
    layers.append(LayerOp("gap", channels[2], channels[2], sizes[2], sizes[2]))
    layers.append(LayerOp("linear", channels[2], config.num_classes, 1, 1))
    return layers
