"""Static tensor-arena planning: buffer liveness and offset assignment.

:class:`~repro.hardware.memory.MemoryEstimator` answers "what peak SRAM
does this architecture *need*?".  This module answers the deployment-side
question an MCU runtime (TFLite-Micro style) actually solves: lay every
intermediate tensor out in one static arena so that buffers whose
lifetimes overlap never share bytes, and make the arena as small as
possible.

Pipeline:

* :func:`tensor_lifetimes` — walk a genotype's deployment network and
  emit one :class:`BufferLifetime` per intermediate tensor (node
  accumulators, reduction temporaries, im2col scratch), with birth and
  death expressed in kernel-execution steps,
* :func:`plan_memory` — assign byte offsets under a strategy:
  ``no_reuse`` (every tensor gets private storage — the upper bound),
  ``first_fit`` (execution order, lowest non-conflicting offset) or
  ``greedy_by_size`` (largest tensors first — the TFLite-Micro planner),
* :func:`liveness_lower_bound` — max live bytes over steps; no valid plan
  can beat it,
* :func:`arena_report` — all of the above for one architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import HardwareModelError
from repro.searchspace.genotype import Genotype
from repro.searchspace.ops import CONV_KERNEL, EDGES, NUM_NODES
from repro.searchspace.specs import MacroConfig

PLANNING_STRATEGIES = ("no_reuse", "first_fit", "greedy_by_size")


@dataclass(frozen=True)
class BufferLifetime:
    """One intermediate tensor: its size and its live step interval.

    A buffer is live on every step in ``[start, end]`` inclusive: it is
    written at ``start`` (or enters the network there, for the input) and
    last read at ``end``.
    """

    name: str
    size_bytes: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise HardwareModelError(f"buffer {self.name!r} has no bytes")
        if self.end < self.start:
            raise HardwareModelError(
                f"buffer {self.name!r} dies before it is born"
            )

    def overlaps_in_time(self, other: "BufferLifetime") -> bool:
        return self.start <= other.end and other.start <= self.end


class _NetworkWalker:
    """Emits buffer lifetimes while symbolically executing the network."""

    def __init__(self, element_bytes: int) -> None:
        self.element_bytes = element_bytes
        self.step = 0
        self.buffers: List[BufferLifetime] = []
        self._open: Dict[str, Tuple[int, int, int]] = {}  # name -> (size, start, last_use)

    def _tensor_bytes(self, channels: int, size: int) -> int:
        return channels * size * size * self.element_bytes

    def open_buffer(self, name: str, size_bytes: int) -> None:
        if name in self._open:
            raise HardwareModelError(f"buffer {name!r} opened twice")
        self._open[name] = (size_bytes, self.step, self.step)

    def touch(self, name: str) -> None:
        size, start, _ = self._open[name]
        self._open[name] = (size, start, self.step)

    def close_buffer(self, name: str) -> None:
        size, start, last = self._open.pop(name)
        self.buffers.append(BufferLifetime(name, size, start, last))

    def scratch(self, name: str, size_bytes: int) -> None:
        """A buffer that lives only for the current step (im2col patch)."""
        self.buffers.append(BufferLifetime(name, size_bytes, self.step, self.step))

    def advance(self) -> None:
        self.step += 1

    def finish(self) -> List[BufferLifetime]:
        for name in list(self._open):
            self.close_buffer(name)
        return sorted(self.buffers, key=lambda b: (b.start, b.name))


def _walk_cell(walker: _NetworkWalker, genotype: Genotype, channels: int,
               size: int, input_name: str, prefix: str) -> str:
    """Execute one cell; returns the name of its output buffer (node 3)."""
    node_names = {0: input_name}
    active = [
        (idx, src, dst)
        for idx, (src, dst) in enumerate(EDGES)
        if genotype.ops[idx] != "none"
    ]
    incoming = [0] * NUM_NODES
    for _, _, dst in active:
        incoming[dst] += 1
    # The cell output: nodes with no incoming edges pass nothing; a fully
    # disconnected cell degenerates to its input buffer.
    if incoming[3] == 0:
        return input_name
    for idx, src, dst in active:
        op = genotype.ops[idx]
        src_name = node_names.get(src)
        if src_name is None:
            # Source node never received an edge: contributes zeros; the
            # runtime skips the kernel, no buffer traffic.
            continue
        dst_name = f"{prefix}/node{dst}"
        if dst not in node_names:
            walker.open_buffer(dst_name, walker._tensor_bytes(channels, size))
            node_names[dst] = dst_name
        walker.touch(src_name)
        walker.touch(dst_name)
        if op in CONV_KERNEL and CONV_KERNEL[op] > 1:
            kernel = CONV_KERNEL[op]
            # CMSIS-NN streams im2col one output row at a time, so the
            # scratch holds a row of patches, not the full patch matrix
            # (same convention as MemoryEstimator).
            walker.scratch(
                f"{prefix}/e{idx}-im2col",
                channels * kernel * kernel * size * walker.element_bytes,
            )
        walker.advance()
    output = node_names.get(3)
    if output is None:
        # Every path into the output node came from dead interior nodes:
        # the cell contributes zeros and no kernel ran, so downstream
        # reuses the input buffer.
        for node in (1, 2):
            name = node_names.get(node)
            if name is not None and name in walker._open:
                walker.close_buffer(name)
        return input_name
    # Close internal accumulators; the output buffer stays open for the
    # next block to consume.
    for node in (1, 2):
        name = node_names.get(node)
        if name is not None:
            walker.close_buffer(name)
    if input_name in walker._open:
        walker.close_buffer(input_name)
    return output


def _walk_reduction(walker: _NetworkWalker, c_in: int, c_out: int,
                    out_size: int, input_name: str, prefix: str) -> str:
    """The inter-stage residual block; returns its output buffer name."""
    main1 = f"{prefix}/main1"
    walker.open_buffer(main1, walker._tensor_bytes(c_out, out_size))
    walker.touch(input_name)
    walker.scratch(f"{prefix}/main1-im2col",
                   c_in * 9 * out_size * walker.element_bytes)
    walker.advance()

    main2 = f"{prefix}/main2"
    walker.open_buffer(main2, walker._tensor_bytes(c_out, out_size))
    walker.touch(main1)
    walker.scratch(f"{prefix}/main2-im2col",
                   c_out * 9 * out_size * walker.element_bytes)
    walker.advance()
    walker.close_buffer(main1)

    pooled = f"{prefix}/pool"
    walker.open_buffer(pooled, walker._tensor_bytes(c_in, out_size))
    walker.touch(input_name)
    walker.advance()
    walker.close_buffer(input_name)

    shortcut = f"{prefix}/shortcut"
    walker.open_buffer(shortcut, walker._tensor_bytes(c_out, out_size))
    walker.touch(pooled)
    walker.advance()
    walker.close_buffer(pooled)

    # In-place accumulate: main2 += shortcut.
    walker.touch(main2)
    walker.touch(shortcut)
    walker.advance()
    walker.close_buffer(shortcut)
    return main2


def tensor_lifetimes(
    genotype: Genotype,
    config: Optional[MacroConfig] = None,
    element_bytes: int = 4,
) -> List[BufferLifetime]:
    """Every intermediate tensor of the deployment network, with liveness."""
    if element_bytes <= 0:
        raise HardwareModelError("element_bytes must be positive")
    config = config or MacroConfig.full()
    walker = _NetworkWalker(element_bytes)
    channels = config.stage_channels
    sizes = config.stage_sizes

    walker.open_buffer("input", walker._tensor_bytes(
        config.input_channels, config.image_size))
    current = "stem"
    walker.open_buffer(current, walker._tensor_bytes(channels[0], config.image_size))
    walker.touch("input")
    walker.scratch("stem-im2col",
                   config.input_channels * 9 * config.image_size
                   * walker.element_bytes)
    walker.advance()
    walker.close_buffer("input")

    for stage in range(3):
        if stage > 0:
            current = _walk_reduction(
                walker, channels[stage - 1], channels[stage], sizes[stage],
                current, f"s{stage}/reduce",
            )
        for cell_idx in range(config.cells_per_stage):
            current = _walk_cell(
                walker, genotype, channels[stage], sizes[stage],
                current, f"s{stage}/c{cell_idx}",
            )

    pooled = "gap"
    walker.open_buffer(pooled, channels[2] * walker.element_bytes)
    walker.touch(current)
    walker.advance()
    if current in walker._open:
        walker.close_buffer(current)
    logits = "logits"
    walker.open_buffer(logits, config.num_classes * walker.element_bytes)
    walker.touch(pooled)
    walker.advance()
    walker.close_buffer(pooled)
    walker.close_buffer(logits)
    return walker.finish()


# ----------------------------------------------------------------------
# Offset assignment
# ----------------------------------------------------------------------
@dataclass
class MemoryPlan:
    """A complete arena layout: one byte offset per buffer."""

    strategy: str
    offsets: Dict[str, int]
    arena_bytes: int
    lifetimes: List[BufferLifetime] = field(repr=False, default_factory=list)

    def validate(self) -> None:
        """Raise if any two live-at-once buffers share bytes."""
        missing = [b.name for b in self.lifetimes
                   if b.name not in self.offsets]
        if missing:
            raise HardwareModelError(
                f"buffers never placed in the arena: {missing}")
        placed = [(b, self.offsets[b.name]) for b in self.lifetimes]
        for i, (a, off_a) in enumerate(placed):
            if off_a < 0 or off_a + a.size_bytes > self.arena_bytes:
                raise HardwareModelError(
                    f"buffer {a.name!r} escapes the arena"
                )
            for b, off_b in placed[i + 1:]:
                if not a.overlaps_in_time(b):
                    continue
                if off_a < off_b + b.size_bytes and off_b < off_a + a.size_bytes:
                    raise HardwareModelError(
                        f"buffers {a.name!r} and {b.name!r} overlap in both "
                        f"time and space"
                    )

    @property
    def num_buffers(self) -> int:
        return len(self.lifetimes)


def liveness_lower_bound(lifetimes: List[BufferLifetime]) -> int:
    """Max over steps of the live-byte total — unbeatable by any plan."""
    if not lifetimes:
        return 0
    last_step = max(b.end for b in lifetimes)
    peak = 0
    for step in range(last_step + 1):
        live = sum(b.size_bytes for b in lifetimes
                   if b.start <= step <= b.end)
        peak = max(peak, live)
    return peak


def _place_first_fit(ordered: List[BufferLifetime]) -> Dict[str, int]:
    """Lowest non-conflicting offset per buffer, in the given order."""
    placed: List[Tuple[BufferLifetime, int]] = []
    offsets: Dict[str, int] = {}
    for buf in ordered:
        conflicts = sorted(
            (off, off + other.size_bytes)
            for other, off in placed
            if other.overlaps_in_time(buf)
        )
        offset = 0
        for lo, hi in conflicts:
            if offset + buf.size_bytes <= lo:
                break
            offset = max(offset, hi)
        offsets[buf.name] = offset
        placed.append((buf, offset))
    return offsets


def plan_memory(
    lifetimes: List[BufferLifetime],
    strategy: str = "greedy_by_size",
) -> MemoryPlan:
    """Assign arena offsets to every buffer under one strategy."""
    if strategy not in PLANNING_STRATEGIES:
        raise HardwareModelError(
            f"unknown strategy {strategy!r}; choose from {PLANNING_STRATEGIES}"
        )
    if strategy == "no_reuse":
        offsets = {}
        cursor = 0
        for buf in lifetimes:
            offsets[buf.name] = cursor
            cursor += buf.size_bytes
    elif strategy == "first_fit":
        ordered = sorted(lifetimes, key=lambda b: (b.start, -b.size_bytes))
        offsets = _place_first_fit(ordered)
    else:  # greedy_by_size
        ordered = sorted(lifetimes, key=lambda b: (-b.size_bytes, b.start))
        offsets = _place_first_fit(ordered)
    arena = max(
        (offsets[b.name] + b.size_bytes for b in lifetimes), default=0
    )
    plan = MemoryPlan(strategy=strategy, offsets=offsets, arena_bytes=arena,
                      lifetimes=list(lifetimes))
    plan.validate()
    return plan


@dataclass(frozen=True)
class ArenaReport:
    """Planner comparison for one architecture."""

    num_buffers: int
    lower_bound_bytes: int
    no_reuse_bytes: int
    first_fit_bytes: int
    greedy_by_size_bytes: int

    @property
    def best_bytes(self) -> int:
        return min(self.first_fit_bytes, self.greedy_by_size_bytes)

    @property
    def reuse_saving(self) -> float:
        """Fraction of arena saved by reuse vs private storage."""
        if self.no_reuse_bytes == 0:
            return 0.0
        return 1.0 - self.best_bytes / self.no_reuse_bytes

    @property
    def gap_to_lower_bound(self) -> float:
        """How far the best plan sits above the liveness bound."""
        if self.lower_bound_bytes == 0:
            return 0.0
        return self.best_bytes / self.lower_bound_bytes - 1.0


def arena_report(
    genotype: Genotype,
    config: Optional[MacroConfig] = None,
    element_bytes: int = 4,
) -> ArenaReport:
    """Run every planning strategy on one architecture."""
    lifetimes = tensor_lifetimes(genotype, config, element_bytes)
    return ArenaReport(
        num_buffers=len(lifetimes),
        lower_bound_bytes=liveness_lower_bound(lifetimes),
        no_reuse_bytes=plan_memory(lifetimes, "no_reuse").arena_bytes,
        first_fit_bytes=plan_memory(lifetimes, "first_fit").arena_bytes,
        greedy_by_size_bytes=plan_memory(lifetimes, "greedy_by_size").arena_bytes,
    )
