"""Ablation A2 — pruning-based search vs random zero-shot search.

Both methods consume the same proxy budget class (tens of evaluations);
the pruning algorithm's structured exploration should find architectures
at least as good as sample-and-rank across seeds — the paper's argument
for contribution #3.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.benchconfig import search_proxy_config
from repro.benchdata import SurrogateModel
from repro.search import (
    HybridObjective,
    MicroNASSearch,
    ObjectiveWeights,
    ZeroShotRandomSearch,
)
from repro.utils import format_table

SEEDS = (0, 1, 2)
#: Random search gets the same candidate budget the pruning search uses
#: (30 + 24 + 18 + 12 supernet evaluations).
RANDOM_BUDGET = 84


def run_ablation(latency_estimator):
    surrogate = SurrogateModel()
    proxy_config = search_proxy_config()
    rows = []
    for seed in SEEDS:
        pruning_obj = HybridObjective(
            proxy_config=proxy_config.with_seed(seed),
            weights=ObjectiveWeights(latency=0.5),
            latency_estimator=latency_estimator,
        )
        pruning = MicroNASSearch(pruning_obj).search()
        random_obj = HybridObjective(
            proxy_config=proxy_config.with_seed(seed),
            weights=ObjectiveWeights(latency=0.5),
            latency_estimator=latency_estimator,
        )
        random_result = ZeroShotRandomSearch(
            random_obj, num_samples=RANDOM_BUDGET, seed=seed
        ).search()
        rows.append({
            "seed": seed,
            "pruning_acc": surrogate.mean_accuracy(pruning.genotype, "cifar10"),
            "pruning_lat": latency_estimator.estimate_ms(pruning.genotype),
            "random_acc": surrogate.mean_accuracy(random_result.genotype, "cifar10"),
            "random_lat": latency_estimator.estimate_ms(random_result.genotype),
        })
    return rows


def test_ablation_search_strategy(benchmark, latency_estimator):
    rows = benchmark.pedantic(
        lambda: run_ablation(latency_estimator), rounds=1, iterations=1
    )
    print()
    print(format_table(
        [[r["seed"], f"{r['pruning_acc']:.2f}", f"{r['pruning_lat']:.0f}",
          f"{r['random_acc']:.2f}", f"{r['random_lat']:.0f}"] for r in rows],
        headers=["seed", "pruning acc", "pruning ms", "random acc", "random ms"],
        title="Ablation A2: pruning vs random zero-shot (equal budget)",
    ))
    pruning_scores = np.array(
        [r["pruning_acc"] - 0.01 * r["pruning_lat"] for r in rows]
    )
    random_scores = np.array(
        [r["random_acc"] - 0.01 * r["random_lat"] for r in rows]
    )
    # Shape: on the accuracy-latency objective both optimise, structured
    # pruning matches or beats unstructured sampling on average.
    assert pruning_scores.mean() >= random_scores.mean() - 1.0
