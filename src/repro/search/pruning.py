"""The MicroNAS hardware-aware pruning-based search (paper contribution #3).

The search starts from the supernet in which every edge carries all five
candidate operations.  Each round it considers removing each still-alive
operation, scores the *pruned supernet* with the hybrid objective, and on
every undecided edge removes the operation whose removal ranks best (i.e.
hurts trainability/expressivity least while improving the hardware
indicators most).  After ``|ops| - 1`` rounds every edge is decided and the
remaining assignment is the discovered architecture.

Under hard constraints, an outer loop adapts the hardware indicator
weights ("MicroNAS adapts FLOPs and latency indicator weights"): if the
discovered architecture violates a bound, the hardware weights are scaled
up and the search re-runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SearchError
from repro.search.constraints import ConstraintChecker, HardwareConstraints
from repro.search.objective import HybridObjective, ObjectiveWeights
from repro.search.result import SearchResult
from repro.searchspace.genotype import Genotype
from repro.searchspace.ops import CANDIDATE_OPS, NUM_EDGES
from repro.searchspace.specs import EdgeSpec
from repro.utils.timing import Timer


class MicroNASSearch:
    """Hardware-aware pruning-based zero-shot search."""

    algorithm_name = "micronas"

    def __init__(
        self,
        objective: HybridObjective,
        candidate_ops: Sequence[str] = CANDIDATE_OPS,
        seed: int = 0,
    ) -> None:
        if len(candidate_ops) < 2:
            raise SearchError("need at least two candidate operations")
        self.objective = objective
        self.candidate_ops = tuple(candidate_ops)
        self.seed = seed

    # ------------------------------------------------------------------
    def _initial_specs(self) -> List[EdgeSpec]:
        return [EdgeSpec(i, self.candidate_ops) for i in range(NUM_EDGES)]

    @staticmethod
    def _finalise(specs: Sequence[EdgeSpec]) -> Genotype:
        undecided = [s.edge_index for s in specs if not s.decided]
        if undecided:
            raise SearchError(f"edges {undecided} still undecided")
        return Genotype(tuple(spec.alive_ops[0] for spec in specs))

    # ------------------------------------------------------------------
    def search(self) -> SearchResult:
        """Run the pruning search to a single architecture."""
        specs = self._initial_specs()
        history: List[Dict] = []
        with Timer() as total_timer:
            round_index = 0
            while any(not spec.decided for spec in specs):
                round_index += 1
                candidates: List[Tuple[int, str]] = [
                    (spec.edge_index, op)
                    for spec in specs
                    if not spec.decided
                    for op in spec.alive_ops
                ]
                # The whole round goes through the engine-backed population
                # API; revisited supernet states (e.g. in the constraint
                # adaptation outer loop) resolve from the indicator cache.
                pruned_states = [
                    [
                        spec.without(op) if spec.edge_index == edge_index else spec
                        for spec in specs
                    ]
                    for edge_index, op in candidates
                ]
                indicator_rows = self.objective.supernet_population(
                    pruned_states)
                self.objective.ledger.add("pruning_candidates",
                                          count=len(candidates))
                ranks = self.objective.combined_ranks(indicator_rows)

                removed: Dict[int, str] = {}
                for spec in specs:
                    if spec.decided:
                        continue
                    edge_candidate_ids = [
                        i for i, (edge, _) in enumerate(candidates)
                        if edge == spec.edge_index
                    ]
                    best_local = min(edge_candidate_ids, key=lambda i: ranks[i])
                    removed[spec.edge_index] = candidates[best_local][1]
                specs = [
                    spec.without(removed[spec.edge_index])
                    if spec.edge_index in removed
                    else spec
                    for spec in specs
                ]
                history.append({
                    "round": round_index,
                    "removed": dict(removed),
                    "alive": {s.edge_index: s.alive_ops for s in specs},
                    "num_candidates": len(candidates),
                })
        genotype = self._finalise(specs)
        indicators = self.objective.genotype_indicators(genotype)
        return SearchResult(
            genotype=genotype,
            algorithm=self.algorithm_name,
            indicators=indicators,
            history=history,
            ledger=self.objective.ledger,
            wall_seconds=total_timer.elapsed,
            weights_used=vars(self.objective.weights).copy(),
        )

    # ------------------------------------------------------------------
    def search_with_constraints(
        self,
        constraints: HardwareConstraints,
        checker: Optional[ConstraintChecker] = None,
        max_outer_rounds: int = 5,
        weight_growth: float = 1.5,
    ) -> SearchResult:
        """Outer-loop hardware-weight adaptation until constraints hold.

        Starts from the objective's current weights (hardware weights are
        bumped to a small floor if zero), reruns the pruning search with
        geometrically growing hardware weights until the result is feasible
        or ``max_outer_rounds`` is exhausted; returns the first feasible
        result (found with the *least* hardware pressure, i.e. the least
        distortion of the trainless objective) or the least-violating one.
        The default growth factor is deliberately gentle — large jumps
        overshoot into trivially-fast but untrainable cells.
        """
        if checker is None:
            checker = ConstraintChecker(
                constraints,
                macro_config=self.objective.macro_config,
                latency_estimator=self.objective.built_latency_estimator,
            )
        weights = self.objective.weights
        if constraints.max_latency_ms is not None and not weights.uses_latency:
            weights = ObjectiveWeights(weights.ntk, weights.linear_regions,
                                       weights.flops, latency=0.5)
        if constraints.max_flops is not None and not weights.uses_flops:
            weights = ObjectiveWeights(weights.ntk, weights.linear_regions,
                                       flops=0.5, latency=weights.latency)

        best: Optional[SearchResult] = None
        best_violation = float("inf")
        outer_history: List[Dict] = []
        for outer in range(max_outer_rounds):
            objective = self.objective.with_weights(weights)
            searcher = MicroNASSearch(objective, self.candidate_ops, seed=self.seed)
            result = searcher.search()
            violation = checker.total_violation(result.genotype)
            outer_history.append({
                "outer_round": outer,
                "weights": vars(weights).copy(),
                "genotype": result.arch_str,
                "violation": violation,
            })
            if violation < best_violation:
                best, best_violation = result, violation
            if violation == 0.0:
                break
            weights = weights.scaled_hardware(weight_growth)
        assert best is not None
        best.history = best.history + outer_history
        return best
