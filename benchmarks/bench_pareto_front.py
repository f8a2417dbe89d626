"""Extension A11 — the whole trade-off curve, not one weighting of it.

MicroNAS picks its operating point through the hardware weights
(``w_F``/``w_L``); the C2 sweep showed each weight choice lands somewhere
on an accuracy/latency curve.  This harness computes that curve directly:
non-dominated sorting of a zero-shot sample over (trainless quality,
estimated latency), annotated with surrogate accuracy.

Shapes that must hold: the front is mutually non-dominated and monotone
(slower points buy strictly better trainless quality); its fastest point
is the population's fastest architecture; the best-quality end is
substantially more accurate (surrogate) than the fastest end — i.e. the
axis the trainless quality score orders is real; and the knee point sits
strictly between the extremes on both axes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchdata import SurrogateModel
from repro.eval.benchconfig import search_proxy_config
from repro.search import HybridObjective, ObjectiveWeights, ParetoZeroShotSearch
from repro.search.pareto import dominates
from repro.utils import format_table

NUM_SAMPLES = 40


def run_pareto(latency_estimator):
    objective = HybridObjective(
        proxy_config=search_proxy_config(),
        weights=ObjectiveWeights(latency=0.5),
        latency_estimator=latency_estimator,
    )
    search = ParetoZeroShotSearch(objective, num_samples=NUM_SAMPLES, seed=7)
    result = search.search()
    surrogate = SurrogateModel()
    accuracies = {
        point.genotype.to_index(): surrogate.mean_accuracy(point.genotype,
                                                           "cifar10")
        for point in result.front
    }
    return result, accuracies


def test_pareto_front(benchmark, latency_estimator):
    result, accuracies = benchmark.pedantic(
        run_pareto, args=(latency_estimator,), rounds=1, iterations=1
    )
    knee = result.knee_point()
    print()
    print(format_table(
        [[("knee -> " if p is knee else "") + p.genotype.to_arch_str()[:38],
          f"{p.latency_ms:.0f}",
          f"{p.quality_rank:.1f}",
          f"{accuracies[p.genotype.to_index()]:.2f}"]
         for p in result.front],
        headers=["architecture", "latency ms", "quality rank (low=good)",
                 "surrogate ACC"],
        title=f"A11: quality/latency Pareto front "
              f"({len(result.front)} of {NUM_SAMPLES} sampled, "
              f"{result.num_fronts} fronts)",
    ))

    # Shape 1: mutual non-domination and monotone trade-off.
    for a in result.front:
        for b in result.front:
            assert not dominates(a.vector(result.axes), b.vector(result.axes))
    latencies = [p.latency_ms for p in result.front]
    qualities = [p.quality_rank for p in result.front]
    assert latencies == sorted(latencies)
    assert qualities == sorted(qualities, reverse=True)

    # Shape 2: a real curve, not a single point.
    assert len(result.front) >= 3

    # Shape 3: the quality axis is meaningful — the best-quality end beats
    # the fastest end on surrogate accuracy by a clear margin.
    acc_best = accuracies[result.best_quality().genotype.to_index()]
    acc_fastest = accuracies[result.fastest().genotype.to_index()]
    assert acc_best > acc_fastest + 2.0

    # Shape 4: the knee is strictly interior when the front has >= 3 points.
    assert result.fastest().latency_ms <= knee.latency_ms
    assert knee.latency_ms <= result.best_quality().latency_ms
    assert knee.quality_rank <= result.fastest().quality_rank
