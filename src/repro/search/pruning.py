"""The MicroNAS hardware-aware pruning-based search (paper contribution #3).

The search starts from the supernet in which every edge carries all five
candidate operations.  Each round it considers removing each still-alive
operation, scores the *pruned supernet* with the hybrid objective, and on
every undecided edge removes the operation whose removal ranks best (i.e.
hurts trainability/expressivity least while improving the hardware
indicators most).  After ``|ops| - 1`` rounds every edge is decided and the
remaining assignment is the discovered architecture.  A removal that
would leave no path of non-``none`` ops from the cell's input to its
output is passed over for the edge's next-best one, so the search never
returns a disconnected cell.

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
from repro.searchspace.ops import CANDIDATE_OPS, EDGES, NUM_EDGES, NUM_NODES
from repro.searchspace.specs import EdgeSpec
from repro.utils.timing import Timer


def _connectable(specs: Sequence[EdgeSpec]) -> bool:
    """Whether some path from node 0 to the output node has a non-``none``
    op alive on every edge (so the state can still become a connected
    cell).  One pass suffices: :data:`EDGES` lists edges by source node."""
    reached = [True] + [False] * (NUM_NODES - 1)
    for (src, dst), spec in zip(EDGES, specs):
        if reached[src] and any(op != "none" for op in spec.alive_ops):
            reached[dst] = True
    return reached[-1]


class MicroNASSearch:
    """Hardware-aware pruning-based zero-shot search.

    The search draws nothing itself: every proxy seeds from the
    objective's :class:`~repro.proxies.base.ProxyConfig` ``seed``, so
    the search takes no seed of its own.
    """

    algorithm_name = "micronas"

    def __init__(
        self,
        objective: HybridObjective,
        candidate_ops: Sequence[str] = CANDIDATE_OPS,
    ) -> None:
        if len(candidate_ops) < 2:
            raise SearchError("need at least two candidate operations")
        self.objective = objective
        self.candidate_ops = tuple(candidate_ops)

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

                # On each edge, in edge order, the best-ranked removal that
                # keeps the state connectable.  One always exists: removing
                # ``none`` (or any op beside another live one) keeps the
                # edge as live as it was.
                removed: Dict[int, str] = {}
                passed_over: Dict[int, str] = {}
                for position in range(len(specs)):
                    spec = specs[position]
                    if spec.decided:
                        continue
                    edge_candidate_ids = sorted(
                        (i for i, (edge, _) in enumerate(candidates)
                         if edge == spec.edge_index),
                        key=lambda i: ranks[i])
                    for i in edge_candidate_ids:
                        op = candidates[i][1]
                        specs[position] = spec.without(op)
                        if _connectable(specs):
                            break
                    best = candidates[edge_candidate_ids[0]][1]
                    if op != best:
                        passed_over[spec.edge_index] = best
                    removed[spec.edge_index] = op
                record = {
                    "round": round_index,
                    "removed": dict(removed),
                    "alive": {s.edge_index: s.alive_ops for s in specs},
                    "num_candidates": len(candidates),
                }
                if passed_over:
                    # The best-ranked removal each guarded edge skipped.
                    record["passed_over"] = passed_over
                history.append(record)
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
            searcher = MicroNASSearch(objective, self.candidate_ops)
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
