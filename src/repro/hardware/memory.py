"""Peak-memory estimation (the paper's §IV future-work extension).

MCU deployment is gated by two budgets:

* **SRAM** — peak live activation bytes during inference.  We schedule the
  cell DAG topologically and track which node buffers are live at each
  kernel, including the im2col scratch of the running convolution.
* **Flash** — weights plus a code/runtime footprint.

Estimates assume float32 activations/weights (``element_bytes=4``);
``element_bytes=1`` models an int8-quantised deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.proxies.flops import count_params
from repro.searchspace.genotype import Genotype
from repro.searchspace.ops import CONV_KERNEL, EDGES, NUM_NODES
from repro.searchspace.specs import MacroConfig


@dataclass(frozen=True)
class MemoryReport:
    """Peak memory demands of one architecture."""

    peak_sram_bytes: int
    flash_bytes: int
    params: int

    def fits(self, sram_bytes: int, flash_bytes: int) -> bool:
        return (self.peak_sram_bytes <= sram_bytes
                and self.flash_bytes <= flash_bytes)


class MemoryEstimator:
    """Estimates peak SRAM and flash for genotypes at a macro config."""

    def __init__(self, config: Optional[MacroConfig] = None,
                 element_bytes: int = 4, code_bytes: int = 120 * 1024) -> None:
        self.config = config or MacroConfig.full()
        self.element_bytes = element_bytes
        self.code_bytes = code_bytes

    # ------------------------------------------------------------------
    def _buffer_bytes(self, channels: int, size: int) -> int:
        return channels * size * size * self.element_bytes

    def _cell_peak(self, genotype: Genotype, channels: int, size: int) -> int:
        """Peak live bytes while executing one cell.

        Node buffers: a node's accumulator is allocated when its first
        incoming edge executes and freed after its last consumer edge.
        Edges execute in canonical order; conv edges additionally hold an
        im2col patch buffer while running.
        """
        buffer = self._buffer_bytes(channels, size)
        last_use = [0] * NUM_NODES  # edge index after which a node is dead
        first_def = [None] * NUM_NODES
        active_edges = [
            (idx, src, dst)
            for idx, (src, dst) in enumerate(EDGES)
            if genotype.ops[idx] != "none"
        ]
        if not active_edges:
            return buffer  # degenerate: only the input buffer exists
        for idx, src, dst in active_edges:
            last_use[src] = idx
            if first_def[dst] is None:
                first_def[dst] = idx
        last_use[3] = active_edges[-1][0]  # output survives the cell
        peak = 0
        for idx, src, dst in active_edges:
            live = 0
            for node in range(NUM_NODES):
                defined = (node == 0) or (
                    first_def[node] is not None and first_def[node] <= idx
                )
                alive = defined and (last_use[node] >= idx or node == 3)
                if alive:
                    live += buffer
            op = genotype.ops[idx]
            if op in CONV_KERNEL and CONV_KERNEL[op] > 1:
                kernel = CONV_KERNEL[op]
                live += channels * kernel * kernel * size * self.element_bytes
            peak = max(peak, live)
        return peak

    def report(self, genotype: Genotype) -> MemoryReport:
        """Peak SRAM / flash for one genotype."""
        config = self.config
        channels = config.stage_channels
        sizes = config.stage_sizes
        # Stem: input image + output feature map.
        peak = (self._buffer_bytes(config.input_channels, config.image_size)
                + self._buffer_bytes(channels[0], config.image_size))
        for c, s in zip(channels, sizes):
            peak = max(peak, self._cell_peak(genotype, c, s))
        # Reduction blocks: input + both conv outputs + shortcut buffer.
        for stage in (1, 2):
            c_in, c_out, out = channels[stage - 1], channels[stage], sizes[stage]
            block = (self._buffer_bytes(c_in, out * 2)
                     + 2 * self._buffer_bytes(c_out, out))
            peak = max(peak, block)
        params = count_params(genotype, config)
        flash = params * self.element_bytes + self.code_bytes
        return MemoryReport(peak_sram_bytes=int(peak), flash_bytes=int(flash),
                            params=params)

    def peak_sram_bytes(self, genotype: Genotype) -> int:
        return self.report(genotype).peak_sram_bytes
