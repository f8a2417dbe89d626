"""µNAS-style constrained aging evolution (train-based baseline).

Liberis, Dudziak & Lane, "µNAS: Constrained Neural Architecture Search for
Microcontrollers" (EuroMLSys 2021) searches with aging evolution and pays
(full or proxy) *training* for every candidate it evaluates.  We reproduce
the search loop and its cost accounting: fitness queries the surrogate
benchmark, and every query charges the candidate's simulated training time
to the ledger.  This is the comparison behind the paper's 1104× search-
efficiency claim and µNAS's 552 GPU-hours in Table I.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.benchdata.cost import TrainingCostModel
from repro.benchdata.surrogate import SurrogateModel
from repro.errors import SearchError
from repro.search.constraints import ConstraintChecker, HardwareConstraints
from repro.search.objective import HybridObjective
from repro.search.result import SearchResult
from repro.searchspace.canonical import canonicalize
from repro.searchspace.genotype import Genotype
from repro.searchspace.space import NasBench201Space
from repro.searchspace.specs import MacroConfig
from repro.utils.rng import SeedLike, new_rng
from repro.utils.timing import CostLedger, Timer


@dataclass(frozen=True)
class EvolutionConfig:
    """Aging-evolution hyper-parameters (µNAS-like defaults, scaled to the
    NAS-Bench-201 space)."""

    population_size: int = 50
    sample_size: int = 10
    cycles: int = 600
    violation_penalty: float = 50.0
    dataset: str = "cifar10"
    reduced_epochs: Optional[int] = None  # None = full training per candidate


class ConstrainedEvolutionarySearch:
    """Aging evolution over the surrogate benchmark with constraint penalties."""

    algorithm_name = "evolutionary-munas"

    def __init__(
        self,
        config: Optional[EvolutionConfig] = None,
        constraints: Optional[HardwareConstraints] = None,
        surrogate: Optional[SurrogateModel] = None,
        cost_model: Optional[TrainingCostModel] = None,
        macro_config: Optional[MacroConfig] = None,
        space: Optional[NasBench201Space] = None,
        seed: SeedLike = 0,
    ) -> None:
        self.config = config or EvolutionConfig()
        if self.config.population_size < 2 or self.config.sample_size < 1:
            raise SearchError("population_size >= 2 and sample_size >= 1 required")
        self.constraints = constraints
        self.surrogate = surrogate or SurrogateModel()
        self.cost_model = cost_model or TrainingCostModel()
        self.macro_config = macro_config or MacroConfig.full()
        self.space = space or NasBench201Space()
        self.seed = seed
        self._checker = (
            ConstraintChecker(constraints, macro_config=self.macro_config)
            if constraints is not None and constraints.constrains_anything
            else None
        )

    # ------------------------------------------------------------------
    def _fitness(self, genotype: Genotype, ledger: CostLedger) -> float:
        """Surrogate accuracy minus constraint penalty; charges training time."""
        seconds = self.cost_model.training_seconds(
            genotype, self.macro_config, epochs=self.config.reduced_epochs
        )
        ledger.add("simulated_training", seconds=seconds)
        accuracy = self.surrogate.accuracy(genotype, self.config.dataset, seed=0)
        if self._checker is not None:
            accuracy -= self.config.violation_penalty * self._checker.total_violation(
                genotype
            )
        return accuracy

    # ------------------------------------------------------------------
    def search(self) -> SearchResult:
        """Run aging evolution; returns the best *feasible* candidate seen."""
        rng = new_rng(self.seed)
        ledger = CostLedger()
        history: List[Dict] = []
        population: Deque[Tuple[Genotype, float]] = deque(
            maxlen=self.config.population_size
        )
        best: Optional[Tuple[Genotype, float]] = None

        def consider(genotype: Genotype, fitness: float) -> None:
            nonlocal best
            feasible = self._checker is None or self._checker.satisfied(genotype)
            if feasible and (best is None or fitness > best[1]):
                best = (genotype, fitness)

        with Timer() as timer:
            for genotype in self.space.sample(self.config.population_size, rng=rng,
                                              unique=False):
                fitness = self._fitness(genotype, ledger)
                population.append((genotype, fitness))
                consider(genotype, fitness)
            for cycle in range(self.config.cycles):
                contenders = [
                    population[int(i)]
                    for i in rng.integers(0, len(population),
                                          size=self.config.sample_size)
                ]
                parent = max(contenders, key=lambda pair: pair[1])[0]
                child = self.space.mutate(parent, rng=rng)
                fitness = self._fitness(child, ledger)
                population.append((child, fitness))
                consider(child, fitness)
                if cycle % 100 == 0:
                    history.append({
                        "cycle": cycle,
                        "best_fitness": best[1] if best else float("nan"),
                        "best_arch": best[0].to_arch_str() if best else None,
                    })

        if best is None:
            # No feasible candidate found: fall back to the fittest overall.
            best = max(population, key=lambda pair: pair[1])
        genotype = best[0]
        return SearchResult(
            genotype=genotype,
            algorithm=self.algorithm_name,
            indicators={"fitness": best[1]},
            history=history,
            ledger=ledger,
            wall_seconds=timer.elapsed,
            simulated_gpu_seconds=ledger.seconds.get("simulated_training", 0.0),
        )


class SteadyStateEvolutionarySearch:
    """Asynchronous steady-state evolution over the async runtime.

    The generational loops above insert one generation barrier per cycle:
    mutation cannot start until the whole previous batch has been
    evaluated, so workers idle while the slowest candidate finishes.  This
    loop is *event-driven* instead — the DeepHyper submit/gather shape:

    1. the initial population is submitted as per-chunk futures on the
       objective engine's executor (:meth:`~repro.runtime.async_pool.
       AsyncPopulationExecutor.submit_population`), none of which block;
    2. the moment **any** future resolves (``gather(1)``), its candidates
       are committed to the aging population and new children are mutated
       from the *current Pareto set* and submitted — enough to keep
       ``n_workers`` candidates in flight, never more;
    3. children whose canonical form is already cached (or already owned
       by an in-flight chunk) commit without occupying a worker — the
       cache-hit fast path mutation loops live on.

    Indicator values are bit-identical to serial evaluation regardless of
    completion order (the executor's determinism contract); the search
    *trajectory* is a pure function of the completion order, so runs with
    the serial inline executor (``n_workers=1``) are exactly reproducible
    while pool runs trade trajectory replay for wall-clock overlap.  The
    final winner is re-ranked over the canonically-sorted set of every
    distinct candidate seen, so tie-breaking never depends on arrival
    order.

    ``parent_selection`` controls the Pareto-front parent pick:
    ``"crowding"`` (default) weights it by NSGA-II crowding distance
    (:func:`repro.search.pareto.crowding_selection_weights`), biasing
    mutation toward sparse regions of the front; ``"uniform"`` is the
    original unweighted pick, kept as the fallback flag.
    """

    algorithm_name = "evolutionary-steady-state"

    def __init__(
        self,
        objective: HybridObjective,
        config: Optional[EvolutionConfig] = None,
        constraints: Optional[HardwareConstraints] = None,
        space: Optional[NasBench201Space] = None,
        seed: SeedLike = 0,
        parent_selection: str = "crowding",
    ) -> None:
        self.config = config or EvolutionConfig()
        if self.config.population_size < 2:
            raise SearchError("population_size >= 2 required")
        if parent_selection not in ("crowding", "uniform"):
            raise SearchError(
                f"unknown parent_selection {parent_selection!r}; "
                "use 'crowding' or 'uniform'"
            )
        self.parent_selection = parent_selection
        self.objective = objective
        self.constraints = constraints
        self.space = space or NasBench201Space()
        self.seed = seed
        self._checker = (
            ConstraintChecker(
                constraints,
                macro_config=objective.macro_config,
                latency_estimator=objective.built_latency_estimator,
            )
            if constraints is not None and constraints.constrains_anything
            else None
        )

    # ------------------------------------------------------------------
    def _objective_vector(self, row: Dict[str, float]) -> Tuple[float, ...]:
        """Minimisation vector for Pareto dominance over raw indicators."""
        vector = [row["ntk"], -row["linear_regions"]]
        if self.objective.weights.uses_flops:
            vector.append(row["flops"])
        if self.objective.weights.uses_latency:
            vector.append(row["latency"])
        return tuple(vector)

    def _pareto_parents(
        self, population: Sequence[Tuple[Genotype, Tuple[float, ...]]]
    ) -> Tuple[List[Genotype], Optional[np.ndarray]]:
        """Non-dominated members plus their parent-selection probabilities.

        Under ``parent_selection="crowding"`` probabilities follow NSGA-II
        crowding distance over the front's objective vectors.  Uniform
        mode returns ``None`` instead of a flat vector: the spawn loop
        then draws with ``rng.integers``, preserving the pre-crowding RNG
        stream exactly.
        """
        from repro.search.pareto import crowding_selection_weights, first_front

        vectors = np.array([vector for _, vector in population], dtype=float)
        front = first_front(vectors)[0]
        parents = [population[i][0] for i in front]
        if self.parent_selection != "crowding":
            return parents, None
        return parents, crowding_selection_weights(vectors[front])

    # ------------------------------------------------------------------
    def search(self) -> SearchResult:
        """Run steady-state evolution; returns the best-ranked candidate."""
        rng = new_rng(self.seed)
        history: List[Dict] = []
        seen: Dict[int, Genotype] = {}
        population: Deque[Tuple[Genotype, Tuple[float, ...]]] = deque(
            maxlen=self.config.population_size
        )
        #: Submitted candidates awaiting their future, by canonical index.
        outstanding: Dict[int, List[Genotype]] = {}
        engine = self.objective.engine
        executor = engine.executor
        n_workers = executor.n_workers
        children_spawned = 0
        committed = 0
        last_logged = 0

        #: Non-dominated set of `population` (+ selection weights),
        #: recomputed only after a commit changes it (the front sort
        #: would otherwise rerun per spawned child even with nothing
        #: landed in between).
        pareto_cache: Optional[Tuple[List[Genotype],
                                     Optional[np.ndarray]]] = None

        def commit(genotype: Genotype) -> None:
            nonlocal committed, pareto_cache
            committed += 1
            pareto_cache = None
            row = self.objective.genotype_indicators(genotype)
            population.append((genotype, self._objective_vector(row)))
            seen.setdefault(genotype.to_index(), genotype)

        def pareto_parents() -> Tuple[List[Genotype], Optional[np.ndarray]]:
            nonlocal pareto_cache
            if pareto_cache is None:
                pareto_cache = self._pareto_parents(population)
            return pareto_cache

        def submit(genotype: Genotype) -> None:
            """Submit one candidate; commit immediately on a warm cache."""
            canon_index = canonicalize(genotype).to_index()
            if canon_index in executor.quarantined_genotypes:
                # Poison candidate (possibly from a previous run's
                # ledger): proposing it again would just re-poison.
                return
            shipped = executor.submit_population(engine, [genotype])
            self.objective.ledger.add("evolution_candidates", count=1)
            if shipped == 0 and canon_index not in outstanding:
                # Every indicator already cached: no future to wait for.
                commit(genotype)
            else:
                # Owns a fresh chunk, or piggybacks on the in-flight chunk
                # that already claimed this canonical form's keys.
                outstanding.setdefault(canon_index, []).append(genotype)

        def spawn_children() -> None:
            """Top the pipeline back up to ``n_workers`` futures."""
            nonlocal children_spawned
            # The drain flag is sticky (the harness's signal handlers set
            # it): finish what's in flight, propose nothing new.
            while (not executor.drain_requested
                   and children_spawned < self.config.cycles
                   and executor.num_pending < n_workers):
                parents, weights = pareto_parents()
                if weights is not None:
                    pick = int(rng.choice(len(parents), p=weights))
                else:
                    # The pre-crowding RNG stream, preserved exactly.
                    pick = int(rng.integers(len(parents)))
                child = self.space.mutate(parents[pick], rng=rng)
                children_spawned += 1
                submit(child)

        with Timer() as timer:
            for genotype in self.space.sample(self.config.population_size,
                                              rng=rng, unique=False):
                submit(genotype)
            if population and executor.num_pending == 0:
                # Fully warm start: the whole initial population committed
                # without a single future; enter the loop spawning.
                spawn_children()
            while executor.num_pending or outstanding:
                if executor.num_pending == 0:
                    # Only possible if commits above drained the pipeline
                    # while canonical twins were still bookkept; flush them.
                    for index in list(outstanding):
                        for genotype in outstanding.pop(index):
                            commit(genotype)
                    spawn_children()
                    continue
                for chunk in executor.gather(1):
                    for index in chunk.canonical_indices:
                        for genotype in outstanding.pop(index, []):
                            commit(genotype)
                    for index in chunk.quarantined_indices:
                        # Poison candidate: drop its waiters uncommitted —
                        # nothing will ever land for them.
                        outstanding.pop(index, None)
                if population:
                    spawn_children()
                if committed >= last_logged + 50:
                    last_logged = committed
                    stats = engine.cache.stats
                    history.append({
                        "committed": committed,
                        "children_spawned": children_spawned,
                        "in_flight": executor.num_pending,
                        "pareto_size": (len(pareto_parents()[0])
                                        if population else 0),
                        "cache_hit_rate": stats.hit_rate,
                    })

            # Final selection over every distinct candidate seen, in
            # canonical-sort order so ties never break on arrival order.
            # Quarantined candidates are excluded — their indicators are
            # uncomputable by definition.
            banned = executor.quarantined_genotypes
            candidates = [seen[index] for index in sorted(seen)
                          if not banned
                          or canonicalize(seen[index]).to_index()
                          not in banned]
            if not candidates:
                raise SearchError(
                    "steady-state search has no surviving candidates: the "
                    "run drained (or quarantined every proposal) before "
                    "anything was committed"
                )
            if self._checker is not None:
                feasible = [g for g in candidates
                            if self._checker.satisfied(g)]
                if feasible:
                    candidates = feasible
                else:
                    candidates = [min(candidates,
                                      key=self._checker.total_violation)]
            table = self.objective.evaluate_population(candidates)
            scores = self.objective.combined_ranks(table.rows())
            genotype = candidates[table.argbest(scores)]

        return SearchResult(
            genotype=genotype,
            algorithm=self.algorithm_name,
            indicators=self.objective.genotype_indicators(genotype),
            history=history,
            ledger=self.objective.ledger,
            wall_seconds=timer.elapsed,
            weights_used=vars(self.objective.weights).copy(),
        )


class TrainlessEvolutionarySearch:
    """Aging evolution driven by the batched trainless engine.

    Same µNAS-style loop shape as :class:`ConstrainedEvolutionarySearch`,
    but fitness comes from the hybrid objective instead of (simulated)
    training: the initial population is evaluated in one
    ``evaluate_population`` call, and each cycle's parent selection and the
    final winner are rank-combinations over engine-cached indicator rows.
    Mutation revisits architectures constantly — every revisit (and every
    canonically-equal sibling) resolves from the cache, so the marginal
    cost per cycle is one proxy evaluation at most.
    """

    algorithm_name = "evolutionary-trainless"

    def __init__(
        self,
        objective: HybridObjective,
        config: Optional[EvolutionConfig] = None,
        constraints: Optional[HardwareConstraints] = None,
        space: Optional[NasBench201Space] = None,
        seed: SeedLike = 0,
    ) -> None:
        self.config = config or EvolutionConfig()
        if self.config.population_size < 2 or self.config.sample_size < 1:
            raise SearchError("population_size >= 2 and sample_size >= 1 required")
        self.objective = objective
        self.constraints = constraints
        self.space = space or NasBench201Space()
        self.seed = seed
        self._checker = (
            ConstraintChecker(
                constraints,
                macro_config=objective.macro_config,
                latency_estimator=objective.built_latency_estimator,
            )
            if constraints is not None and constraints.constrains_anything
            else None
        )

    # ------------------------------------------------------------------
    def search(self) -> SearchResult:
        """Run trainless aging evolution; returns the best-ranked candidate."""
        rng = new_rng(self.seed)
        history: List[Dict] = []
        seen: Dict[int, Genotype] = {}

        def note(genotype: Genotype) -> None:
            seen.setdefault(genotype.to_index(), genotype)

        with Timer() as timer:
            initial = self.space.sample(self.config.population_size, rng=rng,
                                        unique=False)
            # Population API: one batched, canonically-deduplicated call
            # (fanned out over the engine executor's workers).
            self.objective.evaluate_population(initial)
            self.objective.ledger.add("evolution_candidates",
                                      count=len(initial))
            population: Deque[Genotype] = deque(initial,
                                                maxlen=self.config.population_size)
            for genotype in initial:
                note(genotype)
            for cycle in range(self.config.cycles):
                if self.objective.engine.executor.drain_requested:
                    # Graceful drain: stop proposing; the final selection
                    # below runs over everything committed so far.
                    break
                contender_ids = rng.integers(0, len(population),
                                             size=self.config.sample_size)
                contenders = [population[int(i)] for i in contender_ids]
                rows = [self.objective.genotype_indicators(g)
                        for g in contenders]
                ranks = self.objective.combined_ranks(rows)
                parent = contenders[int(ranks.argmin())]
                child = self.space.mutate(parent, rng=rng)
                self.objective.genotype_indicators(child)  # warm the cache
                self.objective.ledger.add("evolution_candidates", count=1)
                population.append(child)
                note(child)
                if cycle % 100 == 0:
                    stats = self.objective.engine.cache.stats
                    history.append({
                        "cycle": cycle,
                        "distinct_seen": len(seen),
                        "cache_hit_rate": stats.hit_rate,
                    })

            candidates = list(seen.values())
            if self._checker is not None:
                feasible = [g for g in candidates if self._checker.satisfied(g)]
                if feasible:
                    candidates = feasible
                else:
                    candidates = [min(candidates,
                                      key=self._checker.total_violation)]
            table = self.objective.evaluate_population(candidates)
            scores = self.objective.combined_ranks(table.rows())
            genotype = candidates[table.argbest(scores)]

        return SearchResult(
            genotype=genotype,
            algorithm=self.algorithm_name,
            indicators=self.objective.genotype_indicators(genotype),
            history=history,
            ledger=self.objective.ledger,
            wall_seconds=timer.elapsed,
            weights_used=vars(self.objective.weights).copy(),
        )
