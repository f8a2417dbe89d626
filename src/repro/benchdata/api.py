"""A NAS-Bench-201-style query API over the surrogate tables.

Mirrors the shape of the original ``NASBench201API``: query by architecture
string, integer index, or :class:`Genotype`; returns an :class:`ArchRecord`
with accuracy per dataset/seed, FLOPs, params and simulated training cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.benchdata.cost import TrainingCostModel
from repro.benchdata.surrogate import DIFFICULTY, SurrogateModel
from repro.errors import BenchmarkDataError
from repro.proxies.flops import count_flops, count_params
from repro.searchspace.genotype import Genotype
from repro.searchspace.ops import CANDIDATE_OPS, NUM_EDGES
from repro.searchspace.specs import MacroConfig

#: Number of architectures in the NAS-Bench-201 space (5^6).
SPACE_SIZE = len(CANDIDATE_OPS) ** NUM_EDGES

ArchKey = Union[int, str, Genotype]


@dataclass(frozen=True)
class ArchRecord:
    """Everything the benchmark knows about one architecture."""

    genotype: Genotype
    index: int
    flops: int
    params: int
    accuracies: Dict[str, float]       # dataset -> mean test accuracy
    per_seed: Dict[Tuple[str, int], float]  # (dataset, seed) -> accuracy
    training_seconds: float

    @property
    def arch_str(self) -> str:
        return self.genotype.to_arch_str()

    def accuracy(self, dataset: str = "cifar10") -> float:
        key = dataset.lower()
        if key not in self.accuracies:
            raise BenchmarkDataError(f"no accuracy recorded for {dataset!r}")
        return self.accuracies[key]


class SurrogateBenchmarkAPI:
    """Query interface over the analytic surrogate (drop-in NB201 stand-in)."""

    def __init__(
        self,
        datasets: Optional[List[str]] = None,
        seeds: Tuple[int, ...] = (0, 1, 2),
        surrogate: Optional[SurrogateModel] = None,
        cost_model: Optional[TrainingCostModel] = None,
        macro_config: Optional[MacroConfig] = None,
    ) -> None:
        self.datasets = [d.lower() for d in (datasets or list(DIFFICULTY))]
        for dataset in self.datasets:
            if dataset not in DIFFICULTY:
                raise BenchmarkDataError(f"unknown dataset {dataset!r}")
        self.seeds = seeds
        self.surrogate = surrogate or SurrogateModel()
        self.cost_model = cost_model or TrainingCostModel()
        self.macro_config = macro_config or MacroConfig.full()
        self._cache: Dict[int, ArchRecord] = {}

    def __len__(self) -> int:
        return SPACE_SIZE

    def _resolve(self, arch: ArchKey) -> Genotype:
        if isinstance(arch, Genotype):
            return arch
        if isinstance(arch, int):
            return Genotype.from_index(arch)
        if isinstance(arch, str):
            return Genotype.from_arch_str(arch)
        raise BenchmarkDataError(f"cannot interpret architecture key {arch!r}")

    def query(self, arch: ArchKey) -> ArchRecord:
        """Full record for an architecture (cached)."""
        genotype = self._resolve(arch)
        index = genotype.to_index()
        if index in self._cache:
            return self._cache[index]
        per_seed = {
            (dataset, seed): self.surrogate.accuracy(genotype, dataset, seed)
            for dataset in self.datasets
            for seed in self.seeds
        }
        accuracies = {
            dataset: sum(per_seed[(dataset, s)] for s in self.seeds) / len(self.seeds)
            for dataset in self.datasets
        }
        record = ArchRecord(
            genotype=genotype,
            index=index,
            flops=count_flops(genotype, self.macro_config),
            params=count_params(genotype, self.macro_config),
            accuracies=accuracies,
            per_seed=per_seed,
            training_seconds=self.cost_model.training_seconds(
                genotype, self.macro_config
            ),
        )
        self._cache[index] = record
        return record

    def accuracy(self, arch: ArchKey, dataset: str = "cifar10") -> float:
        return self.query(arch).accuracy(dataset)

    def iter_records(self, indices: Optional[List[int]] = None) -> Iterator[ArchRecord]:
        """Iterate records for given indices (or the whole space — slow)."""
        space = indices if indices is not None else range(15625)
        for index in space:
            yield self.query(int(index))

    def best_architecture(self, dataset: str = "cifar10",
                          indices: Optional[List[int]] = None) -> ArchRecord:
        """Highest mean-accuracy record among ``indices`` (or everything)."""
        best: Optional[ArchRecord] = None
        for record in self.iter_records(indices):
            if best is None or record.accuracy(dataset) > best.accuracy(dataset):
                best = record
        assert best is not None
        return best
