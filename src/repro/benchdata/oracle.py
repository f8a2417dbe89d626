"""Oracle frontiers: the best any search could do under a budget.

NAS-Bench-201's headline virtue is that the space is small enough to
enumerate, so the *oracle* answer to "best accuracy under X ms" is
computable exactly.  That turns search evaluation from "is this good?"
into the sharper question the regret study (A13) asks: *how far from
optimal* does zero-shot search land?

Enumeration runs over canonical forms only (9,445 of 15,625 strings —
see :mod:`repro.searchspace.stats`): the surrogate accuracy is
canonicalisation-invariant, and the canonical form is the right
deployment object for latency (an optimising runtime dead-code-eliminates
unreachable branches; see :mod:`repro.hardware.graphopt`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.benchdata.surrogate import SurrogateModel
from repro.errors import BenchmarkDataError
from repro.hardware.latency import LatencyEstimator
from repro.searchspace.canonical import canonicalize
from repro.searchspace.genotype import Genotype
from repro.searchspace.space import NasBench201Space


@dataclass(frozen=True)
class OracleTable:
    """Exhaustive (latency, accuracy) pairs over canonical architectures."""

    indices: np.ndarray       # canonical arch indices
    latencies_ms: np.ndarray
    accuracies: np.ndarray
    dataset: str

    def __len__(self) -> int:
        return len(self.indices)

    # ------------------------------------------------------------------
    def best_under_latency(self, budget_ms: float) -> Tuple[Genotype, float]:
        """The most accurate architecture with latency <= budget."""
        feasible = self.latencies_ms <= budget_ms
        if not feasible.any():
            raise BenchmarkDataError(
                f"no architecture meets {budget_ms:g} ms; fastest is "
                f"{self.latencies_ms.min():.1f} ms"
            )
        best = np.flatnonzero(feasible)[np.argmax(self.accuracies[feasible])]
        return Genotype.from_index(int(self.indices[best])), float(
            self.accuracies[best]
        )

    def regret(self, genotype: Genotype, budget_ms: float) -> float:
        """Accuracy gap between a found architecture and the oracle."""
        _, oracle_acc = self.best_under_latency(budget_ms)
        surrogate = SurrogateModel()
        return oracle_acc - surrogate.mean_accuracy(
            canonicalize(genotype), self.dataset
        )

    def pareto_frontier(self) -> List[Tuple[float, float]]:
        """(latency, accuracy) knees: the exact accuracy/latency frontier."""
        order = np.argsort(self.latencies_ms)
        frontier: List[Tuple[float, float]] = []
        best_acc = -np.inf
        for idx in order:
            acc = float(self.accuracies[idx])
            if acc > best_acc:
                frontier.append((float(self.latencies_ms[idx]), acc))
                best_acc = acc
        return frontier


def build_oracle_table(
    estimator: LatencyEstimator,
    dataset: str = "cifar10",
    space: Optional[NasBench201Space] = None,
    limit: Optional[int] = None,
) -> OracleTable:
    """Enumerate canonical architectures: estimated latency + accuracy.

    ``limit`` truncates the enumeration (deterministically, by canonical
    index order) — useful for tests; production runs enumerate all
    canonical classes in well under a minute.
    """
    space = space or NasBench201Space()
    surrogate = SurrogateModel()
    seen = set()
    indices: List[int] = []
    latencies: List[float] = []
    accuracies: List[float] = []
    for genotype in space:
        canon = canonicalize(genotype)
        key = canon.to_index()
        if key in seen:
            continue
        seen.add(key)
        indices.append(key)
        latencies.append(estimator.estimate_ms(canon))
        accuracies.append(surrogate.mean_accuracy(canon, dataset))
        if limit is not None and len(indices) >= limit:
            break
    return OracleTable(
        indices=np.array(indices, dtype=np.int64),
        latencies_ms=np.array(latencies),
        accuracies=np.array(accuracies),
        dataset=dataset,
    )
