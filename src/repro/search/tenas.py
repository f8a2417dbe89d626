"""TE-NAS baseline: the same pruning search without hardware indicators.

Chen, Gong & Wang, "Neural architecture search on ImageNet in four GPU
hours: a theoretically inspired perspective" (ICLR 2021) — the paper's
primary head-to-head baseline in Table I.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.proxies.base import ProxyConfig
from repro.search.objective import HybridObjective, ObjectiveWeights
from repro.search.pruning import MicroNASSearch
from repro.searchspace.ops import CANDIDATE_OPS
from repro.searchspace.specs import MacroConfig


class TENASSearch(MicroNASSearch):
    """Pruning-based zero-shot search with NTK + linear regions only."""

    algorithm_name = "tenas"

    def __init__(
        self,
        proxy_config: Optional[ProxyConfig] = None,
        macro_config: Optional[MacroConfig] = None,
        objective: Optional[HybridObjective] = None,
        candidate_ops: Sequence[str] = CANDIDATE_OPS,
    ) -> None:
        if objective is None:
            objective = HybridObjective(
                proxy_config=proxy_config,
                weights=ObjectiveWeights(ntk=1.0, linear_regions=1.0,
                                         flops=0.0, latency=0.0),
                macro_config=macro_config,
            )
        else:
            objective = objective.with_weights(
                ObjectiveWeights(ntk=objective.weights.ntk,
                                 linear_regions=objective.weights.linear_regions,
                                 flops=0.0, latency=0.0)
            )
        super().__init__(objective, candidate_ops=candidate_ops)
