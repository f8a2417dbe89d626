"""The hybrid objective function (paper contribution #2).

Combines the two trainless indicators with the two hardware indicators by
*relative ranking*: every candidate in a comparison batch is ranked per
indicator, and ranks are summed with tunable weights::

    score = rank(κ_NTK; ↓) + rank(LR; ↑) + w_F · rank(F; ↓) + w_L · rank(L; ↓)

Lower combined score is better.  ``w_F``/``w_L`` are the paper's "tunable
weight factors for precise control over the contributions of F and L".

Indicator values come from the batched evaluation engine
(:class:`repro.engine.Engine`): one canonicalization-aware cache shared
across repeats, search cycles and algorithms, with vectorized proxy
kernels underneath.  The objective layer owns only weighting, rank
combination and the supernet *expectation* terms.

Beyond the paper's four, :attr:`ObjectiveWeights.costs` weights any
registered :class:`~repro.search.costs.CostModel` axis (``energy``,
``peak-mem``, ``int8-latency``, ...) into the same rank sum — every
cost axis ranks lower-is-better and rides the engine cache under its
model fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.core import Engine
from repro.engine.table import IndicatorTable
from repro.errors import SearchError
from repro.hardware.latency import LatencyEstimator
from repro.hardware.layers import op_layer
from repro.proxies.base import ProxyConfig
from repro.proxies.flops import count_flops
from repro.proxies.ranking import combine_ranks
from repro.searchspace.genotype import Genotype
from repro.searchspace.ops import EDGES, EDGES_INTO, NUM_NODES, op_flops
from repro.searchspace.specs import EdgeSpec, MacroConfig
from repro.utils.timing import CostLedger

#: A large-but-finite stand-in for infinite condition numbers so ranking
#: never sees NaN/inf arithmetic surprises.
_INF_SENTINEL = 1e30


#: The four built-in indicator fields (fixed dataclass slots below).
_BUILTIN_AXES = ("ntk", "linear_regions", "flops", "latency")


@dataclass(frozen=True)
class ObjectiveWeights:
    """Relative importance of each indicator in the combined rank.

    The paper's four indicators stay as fixed fields; ``costs`` opens
    the rank combination to any registered
    :class:`~repro.search.costs.CostModel` axis (``energy``,
    ``peak-mem``, ``int8-latency``, ...).  It accepts a mapping or pairs
    and is normalized to a sorted tuple so weights stay hashable and
    two objectives over the same axes compare equal.
    """

    ntk: float = 1.0
    linear_regions: float = 1.0
    flops: float = 0.0
    latency: float = 0.0
    costs: Union[Mapping[str, float], Tuple[Tuple[str, float], ...]] = \
        field(default=())

    def __post_init__(self) -> None:
        pairs = (self.costs.items() if isinstance(self.costs, Mapping)
                 else self.costs)
        canonical = tuple(sorted((str(name), float(weight))
                                 for name, weight in pairs))
        names = [name for name, _ in canonical]
        for name in names:
            if name in _BUILTIN_AXES:
                raise SearchError(
                    f"cost axis {name!r} shadows a built-in indicator; "
                    f"set the {name!r} field instead")
        if len(set(names)) != len(names):
            raise SearchError(f"duplicate cost axes in {names}")
        object.__setattr__(self, "costs", canonical)

    def scaled_hardware(self, factor: float) -> "ObjectiveWeights":
        """Multiply every hardware weight (constraint adaptation step):
        flops, latency, and each extra cost axis."""
        return replace(
            self, flops=self.flops * factor, latency=self.latency * factor,
            costs=tuple((name, weight * factor)
                        for name, weight in self.costs))

    @property
    def uses_flops(self) -> bool:
        return self.flops > 0.0

    @property
    def uses_latency(self) -> bool:
        return self.latency > 0.0

    @property
    def cost_weights(self) -> Dict[str, float]:
        """Extra cost axes with positive weight, name -> weight."""
        return {name: weight for name, weight in self.costs if weight > 0.0}

    @property
    def uses_costs(self) -> bool:
        return bool(self.cost_weights)


#: Rank directions: True = higher raw value is better.
_DIRECTIONS = {
    "ntk": False,
    "linear_regions": True,
    "flops": False,
    "latency": False,
}


class HybridObjective:
    """Evaluates and rank-combines indicators for genotypes and supernets."""

    def __init__(
        self,
        proxy_config: Optional[ProxyConfig] = None,
        weights: Optional[ObjectiveWeights] = None,
        macro_config: Optional[MacroConfig] = None,
        latency_estimator: Optional[LatencyEstimator] = None,
        ledger: Optional[CostLedger] = None,
        engine: Optional[Engine] = None,
    ) -> None:
        self.weights = weights or ObjectiveWeights()
        if engine is None:
            engine = Engine(
                proxy_config=proxy_config,
                macro_config=macro_config,
                latency_estimator=latency_estimator,
                ledger=ledger,
            )
        elif any(arg is not None for arg in
                 (proxy_config, macro_config, latency_estimator, ledger)):
            raise SearchError(
                "pass either a pre-built engine or its configuration, not "
                "both — the engine's config would silently win"
            )
        self.engine = engine
        self.proxy_config = engine.proxy_config
        self.macro_config = engine.macro_config
        #: Memoized supernet pricing terms (see ``_expectation_terms``).
        self._terms: Dict[Tuple, Dict] = {}

    # ------------------------------------------------------------------
    @property
    def ledger(self) -> CostLedger:
        """The engine's cost ledger (shared across objective clones)."""
        return self.engine.ledger

    @property
    def latency_estimator(self) -> LatencyEstimator:
        """Lazily profiled latency estimator (built on first use)."""
        return self.engine.latency_estimator

    @property
    def built_latency_estimator(self) -> Optional[LatencyEstimator]:
        """The estimator if already built, else None (no profiling cost).

        The public seam for composing layers — constraint checkers and
        search loops reuse an existing estimator through this instead of
        reaching into engine internals.
        """
        return self.engine.built_latency_estimator

    def cost_models(self) -> List:
        """The registered models behind the weights' extra cost axes."""
        return [self.engine.cost_model(name)
                for name in self.weights.cost_weights]

    def with_weights(self, weights: ObjectiveWeights) -> "HybridObjective":
        """Same engine (estimators, cache, ledger), different weights."""
        return HybridObjective(weights=weights, engine=self.engine)

    # ------------------------------------------------------------------
    # Genotype-level indicators (engine-cached, canonicalization-aware)
    # ------------------------------------------------------------------
    def genotype_indicators(self, genotype: Genotype) -> Dict[str, float]:
        """Raw indicator values for a concrete architecture (the four
        built-ins, plus one entry per weighted extra cost axis)."""
        row = self.engine.evaluate(genotype,
                                   with_latency=self.weights.uses_latency)
        for model in self.cost_models():
            row[model.name] = self.engine.cost(genotype, model)
        return row

    def evaluate_population(
        self, genotypes: Sequence[Genotype],
    ) -> IndicatorTable:
        """Indicator table for a population (the search loops' entry point)."""
        return self.engine.evaluate_population(
            genotypes,
            with_latency=self.weights.uses_latency,
            cost_models=self.cost_models() or None,
        )

    # ------------------------------------------------------------------
    # Supernet-level indicators (for the pruning search)
    # ------------------------------------------------------------------
    def supernet_indicators(self, edge_specs: Sequence[EdgeSpec]) -> Dict[str, float]:
        """Indicator values for a supernet state (alive-op sets)."""
        if self.weights.uses_costs:
            raise SearchError(
                "extra cost axes are genotype-level models; the supernet "
                "(pruning) path supports only the built-in indicators — "
                f"drop cost weights {sorted(self.weights.cost_weights)} "
                "or use a genotype-level algorithm")
        out: Dict[str, float] = {
            "ntk": self.engine.supernet_ntk(edge_specs),
            "linear_regions": self.engine.supernet_linear_regions(edge_specs),
            "flops": self.expected_flops(edge_specs),
        }
        if self.weights.uses_latency:
            out["latency"] = self.expected_latency_ms(edge_specs)
        else:
            out["latency"] = 0.0
        return out

    def supernet_population(
        self, spec_lists: Sequence[Sequence[EdgeSpec]],
    ) -> List[Dict[str, float]]:
        """Indicator rows for a batch of supernet states (pruning rounds).

        Repeated states — e.g. identical candidate prunings re-scored by
        the constraint-adaptation outer loop — resolve from the cache.
        The engine's executor computes the missing states as one batch
        before the assembly below reads them.
        """
        self.engine.executor.warm_supernets(self.engine, spec_lists)
        return [self.supernet_indicators(specs) for specs in spec_lists]

    def _expectation_terms(self, *owner) -> Dict:
        """The memo of one pricing's fixed part and per-edge terms.

        ``owner`` names what the terms depend on (the axis, the macro
        config and, for latency, the estimator), so two of them never
        share an entry.
        """
        terms = self._terms.get(owner)
        if terms is None:
            terms = self._terms[owner] = {}
        return terms

    def expected_flops(self, edge_specs: Sequence[EdgeSpec]) -> float:
        """Expected deployment FLOPs under a uniform op choice per edge.

        The fixed parts and each ``(stage, alive ops)`` mean are computed
        once per objective and summed in the order they always were.
        """
        config = self.macro_config
        terms = self._expectation_terms("flops", config)
        total = terms.get("fixed")
        if total is None:
            # Fixed parts: the empty-cell network.
            total = terms["fixed"] = float(
                count_flops(Genotype(("none",) * 6), config))
        for stage, (c, s) in enumerate(zip(config.stage_channels,
                                           config.stage_sizes)):
            per_cell = 0.0
            for spec in edge_specs:
                if not spec.alive_ops:
                    continue
                mean = terms.get((stage, spec.alive_ops))
                if mean is None:
                    mean = terms[stage, spec.alive_ops] = np.mean(
                        [op_flops(op, c, s, s) for op in spec.alive_ops])
                per_cell += mean
            total += config.cells_per_stage * per_cell
        return total

    def expected_latency_ms(self, edge_specs: Sequence[EdgeSpec]) -> float:
        """Expected deployment latency under a uniform op choice per edge.

        Fixed parts (stem, reductions, head, constant overhead) come from
        the empty-cell network; per-edge terms average the LUT latency of
        each alive op; node-add kernels are included in expectation via the
        probability that each edge is active (non-``none``).  As in
        :meth:`expected_flops`, every term is computed once per objective.
        """
        estimator = self.latency_estimator
        config = self.macro_config
        terms = self._expectation_terms("latency", estimator, config)
        total = terms.get("fixed")
        if total is None:
            total = terms["fixed"] = estimator.estimate_ms(
                Genotype(("none",) * 6))
        lut = estimator.lut
        for stage, (c, s) in enumerate(zip(config.stage_channels,
                                           config.stage_sizes)):
            per_cell = 0.0
            active_prob = [0.0] * len(EDGES)
            for spec in edge_specs:
                if not spec.alive_ops:
                    continue
                edge = terms.get((stage, spec.alive_ops))
                if edge is None:
                    entries = []
                    for op in spec.alive_ops:
                        layer = op_layer(op, c, s)
                        entries.append(0.0 if layer is None
                                       else lut.lookup(layer))
                    edge = terms[stage, spec.alive_ops] = (
                        float(np.mean(entries)),
                        np.mean([op != "none" for op in spec.alive_ops]))
                per_cell += edge[0]
                active_prob[spec.edge_index] = edge[1]
            add_ms = lut.entries.get(("add", c, c, s, s, 1, 1), 0.0)
            for node in range(1, NUM_NODES):
                expected_in = sum(active_prob[idx]
                                  for idx in EDGES_INTO[node])
                per_cell += max(0.0, expected_in - 1.0) * add_ms
            total += config.cells_per_stage * per_cell
        return total

    # ------------------------------------------------------------------
    # Rank combination
    # ------------------------------------------------------------------
    def combined_ranks(self, indicator_rows: List[Dict[str, float]]) -> np.ndarray:
        """Weighted rank sum across a comparison batch (lower = better)."""
        names = ["ntk", "linear_regions"]
        weights = {"ntk": self.weights.ntk,
                   "linear_regions": self.weights.linear_regions}
        if self.weights.uses_flops:
            names.append("flops")
            weights["flops"] = self.weights.flops
        if self.weights.uses_latency:
            names.append("latency")
            weights["latency"] = self.weights.latency
        directions = dict(_DIRECTIONS)
        for name, weight in self.weights.cost_weights.items():
            names.append(name)
            weights[name] = weight
            directions[name] = False  # every cost axis: lower is better
        columns = {}
        for name in names:
            raw = np.array([row[name] for row in indicator_rows], dtype=float)
            raw[~np.isfinite(raw)] = _INF_SENTINEL
            columns[name] = raw
        return combine_ranks(columns, directions, weights)

    def score_genotypes(self, genotypes: Sequence[Genotype]) -> np.ndarray:
        """Combined rank score for a batch of architectures.

        Routed through the engine's population API: the batch is
        deduplicated canonically and every indicator comes from (or lands
        in) the shared cache.
        """
        return self.combined_ranks(self.evaluate_population(genotypes).rows())
