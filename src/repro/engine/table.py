"""The population-level result container of the evaluation engine.

An :class:`IndicatorTable` is the dataset-style view search algorithms
consume: one row per requested genotype (duplicates included, in request
order), one column per indicator.  Cache accounting from the evaluation
that produced the table rides along so benchmarks can report reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.errors import ProxyError
from repro.searchspace.genotype import Genotype


@dataclass
class IndicatorTable:
    """Columnar indicator values for a population of architectures."""

    genotypes: List[Genotype]
    columns: Dict[str, np.ndarray]
    cache_hits: int = 0
    cache_misses: int = 0
    unique_canonical: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)
    #: The population's unique canonical forms in first-occurrence order,
    #: and each row's position among them: a column computed over
    #: ``canonical`` reads ``column[inverse]`` in request order.
    canonical: List[Genotype] = field(default_factory=list)
    inverse: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = len(self.genotypes)
        for name, values in self.columns.items():
            self.columns[name] = np.asarray(values, dtype=float)
            if self.columns[name].shape != (n,):
                raise ProxyError(
                    f"column {name!r} has shape {self.columns[name].shape}, "
                    f"expected ({n},)"
                )

    def __len__(self) -> int:
        return len(self.genotypes)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise ProxyError(
                f"indicator table has no column {name!r}; "
                f"available: {sorted(self.columns)}"
            ) from None

    def row(self, index: int) -> Dict[str, float]:
        return {name: float(values[index]) for name, values in self.columns.items()}

    def rows(self) -> List[Dict[str, float]]:
        """Row dicts in request order (the shape ``combined_ranks`` wants)."""
        return [self.row(i) for i in range(len(self))]

    def __iter__(self) -> Iterator[Dict[str, float]]:
        return iter(self.rows())

    def argbest(self, scores: np.ndarray) -> int:
        """Index of the best (lowest-score) row for external score arrays."""
        if len(scores) != len(self):
            raise ProxyError(
                f"score array length {len(scores)} != table length {len(self)}"
            )
        return int(np.asarray(scores).argmin())

    def to_dicts(self) -> List[Dict[str, object]]:
        """JSON-friendly rows (arch string + indicator values)."""
        out = []
        for i, genotype in enumerate(self.genotypes):
            record: Dict[str, object] = {"arch_str": genotype.to_arch_str()}
            record.update(self.row(i))
            out.append(record)
        return out
