"""Ablation A13 — regret against the enumerated oracle.

NAS-Bench-201 is exhaustively enumerable, so "best accuracy under X ms"
has an exact answer.  This harness enumerates the oracle table (all
canonical architectures: LUT latency + surrogate accuracy), then measures
how far the zero-shot searches land from that optimum at several latency
budgets:

* MicroNAS (latency-guided pruning with constraint adaptation),
* zero-shot random search under the same constraints (sample baseline).

Shapes that must hold: every found architecture is feasible; MicroNAS's
regret stays within a few accuracy points of the oracle at every budget;
and MicroNAS's total regret is no worse than the random baseline's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchdata import SurrogateModel
from repro.benchdata.oracle import build_oracle_table
from repro.eval.benchconfig import search_proxy_config
from repro.search import (
    HardwareConstraints,
    HybridObjective,
    MicroNASSearch,
    ObjectiveWeights,
    ZeroShotRandomSearch,
)
from repro.search.constraints import ConstraintChecker
from repro.searchspace.canonical import canonicalize
from repro.searchspace.network import MacroConfig
from repro.utils import format_table

LATENCY_BUDGETS_MS = (600.0, 300.0, 180.0)
RANDOM_SAMPLES = 40


def run_regret_study(latency_estimator):
    table = build_oracle_table(latency_estimator)
    surrogate = SurrogateModel()
    config = MacroConfig.full()
    rows = []
    regrets = {"micronas": [], "random": []}
    for budget in LATENCY_BUDGETS_MS:
        constraints = HardwareConstraints(max_latency_ms=budget)
        checker = ConstraintChecker(constraints, macro_config=config,
                                    latency_estimator=latency_estimator)
        oracle_genotype, oracle_acc = table.best_under_latency(budget)

        objective = HybridObjective(
            proxy_config=search_proxy_config(),
            weights=ObjectiveWeights(latency=0.5),
            latency_estimator=latency_estimator,
        )
        micronas = MicroNASSearch(objective).search_with_constraints(
            constraints, checker=checker
        )
        random_search = ZeroShotRandomSearch(
            objective.with_weights(ObjectiveWeights(latency=0.5)),
            num_samples=RANDOM_SAMPLES, seed=0,
        ).search(constraints=constraints, checker=checker)

        for name, result in (("micronas", micronas),
                             ("random", random_search)):
            genotype = canonicalize(result.genotype)
            acc = surrogate.mean_accuracy(genotype, "cifar10")
            latency = latency_estimator.estimate_ms(genotype)
            regret = oracle_acc - acc
            regrets[name].append(regret)
            rows.append([
                f"{budget:.0f}", name, f"{latency:.0f}",
                f"{acc:.2f}", f"{oracle_acc:.2f}", f"{regret:+.2f}",
            ])
    return table, rows, regrets


def test_oracle_regret(benchmark, latency_estimator):
    table, rows, regrets = benchmark.pedantic(
        run_regret_study, args=(latency_estimator,), rounds=1, iterations=1
    )
    print()
    print(format_table(
        rows,
        headers=["budget ms", "search", "found ms", "found ACC",
                 "oracle ACC", "regret"],
        title=f"A13: regret vs enumerated oracle "
              f"({len(table)} canonical archs)",
    ))
    print(f"mean regret: micronas {np.mean(regrets['micronas']):.2f}, "
          f"random {np.mean(regrets['random']):.2f} accuracy points")

    # Shape 1: found architectures respect their budgets (regret defined).
    for row in rows:
        assert float(row[2]) <= float(row[0]) * 1.001

    # Shape 2: zero-shot search lands within a few points of the oracle at
    # every budget — the substance of "similar accuracy" in the abstract.
    assert max(regrets["micronas"]) < 8.0
    assert np.mean(regrets["micronas"]) < 5.0

    # Shape 3: the structured pruning search is no worse than the random
    # zero-shot baseline on average.
    assert np.mean(regrets["micronas"]) <= np.mean(regrets["random"]) + 0.5
