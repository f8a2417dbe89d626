"""Plain-data descriptions of search-space networks.

:class:`MacroConfig` (the macro skeleton's hyper-parameters) and
:class:`EdgeSpec` (the operations still alive on one supernet edge) key
caches, fingerprint stores and travel to pool workers.  They live apart
from the module tree (:mod:`repro.searchspace.cell`,
:mod:`repro.searchspace.network`), so that the engine, the hardware
models and the searches read them without importing :mod:`repro.nn`.
Both old homes still export them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import SearchSpaceError


@dataclass(frozen=True)
class MacroConfig:
    """Macro-skeleton hyper-parameters.

    ``full()`` matches the NAS-Bench-201 training configuration; ``proxy()``
    is the reduced network the zero-cost indicators are measured on.
    """

    init_channels: int = 16
    cells_per_stage: int = 5
    num_classes: int = 10
    input_channels: int = 3
    image_size: int = 32

    @classmethod
    def full(cls, num_classes: int = 10, image_size: int = 32) -> "MacroConfig":
        return cls(16, 5, num_classes, 3, image_size)

    @classmethod
    def proxy(cls, num_classes: int = 10) -> "MacroConfig":
        return cls(init_channels=8, cells_per_stage=1, num_classes=num_classes,
                   input_channels=3, image_size=16)

    @property
    def stage_channels(self) -> Tuple[int, int, int]:
        c = self.init_channels
        return (c, 2 * c, 4 * c)

    @property
    def stage_sizes(self) -> Tuple[int, int, int]:
        s = self.image_size
        return (s, s // 2, s // 4)


@dataclass
class EdgeSpec:
    """The set of operations still alive on one supernet edge."""

    edge_index: int
    alive_ops: Tuple[str, ...]

    def without(self, op_name: str) -> "EdgeSpec":
        if op_name not in self.alive_ops:
            raise SearchSpaceError(
                f"op {op_name!r} not alive on edge {self.edge_index}"
            )
        remaining = tuple(op for op in self.alive_ops if op != op_name)
        return EdgeSpec(self.edge_index, remaining)

    @property
    def decided(self) -> bool:
        return len(self.alive_ops) == 1
