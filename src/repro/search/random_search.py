"""Zero-shot random search baseline: sample N, rank by the hybrid objective.

Used by the search-strategy ablation (equal proxy budget, no pruning
structure) — isolates how much the pruning algorithm itself contributes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SearchError
from repro.search.constraints import ConstraintChecker, HardwareConstraints
from repro.search.objective import HybridObjective
from repro.search.result import SearchResult
from repro.searchspace.genotype import Genotype
from repro.searchspace.space import NasBench201Space
from repro.utils.rng import SeedLike, new_rng
from repro.utils.timing import Timer


class ZeroShotRandomSearch:
    """Uniformly sample architectures, keep the best-ranked one."""

    algorithm_name = "random-zeroshot"

    def __init__(
        self,
        objective: HybridObjective,
        num_samples: int = 64,
        space: Optional[NasBench201Space] = None,
        seed: SeedLike = 0,
    ) -> None:
        if num_samples < 1:
            raise SearchError("num_samples must be >= 1")
        self.objective = objective
        self.num_samples = num_samples
        self.space = space or NasBench201Space()
        self.seed = seed

    def search(self, constraints: Optional[HardwareConstraints] = None,
               checker: Optional[ConstraintChecker] = None) -> SearchResult:
        """Run the sample-and-rank search.

        With constraints, infeasible samples are filtered before ranking;
        if every sample is infeasible the least-violating one is returned.
        A pre-built ``checker`` may be supplied to customise how bounds are
        evaluated (e.g. an int8 memory estimator).
        """
        rng = new_rng(self.seed)
        with Timer() as timer:
            samples: List[Genotype] = self.space.sample(self.num_samples, rng=rng)
            if checker is None and constraints is not None \
                    and constraints.constrains_anything:
                checker = ConstraintChecker(
                    constraints,
                    macro_config=self.objective.macro_config,
                    latency_estimator=self.objective.built_latency_estimator,
                )
            if checker is not None:
                feasible = [g for g in samples if checker.satisfied(g)]
                if feasible:
                    samples = feasible
                else:
                    samples = [min(samples, key=checker.total_violation)]
            # One engine call for the whole population: canonical dedupe,
            # and the engine's executor computes the unique missing rows.
            table = self.objective.evaluate_population(samples)
            scores = self.objective.combined_ranks(table.rows())
            self.objective.ledger.add("random_candidates", count=len(samples))
            best_idx = table.argbest(scores)
        genotype = samples[best_idx]
        return SearchResult(
            genotype=genotype,
            algorithm=self.algorithm_name,
            indicators=self.objective.genotype_indicators(genotype),
            history=[{
                "num_samples": len(samples),
                "best_rank": float(scores[best_idx]),
                "unique_canonical": table.unique_canonical,
                "cache_hits": table.cache_hits,
            }],
            ledger=self.objective.ledger,
            wall_seconds=timer.elapsed,
            weights_used=vars(self.objective.weights).copy(),
        )
