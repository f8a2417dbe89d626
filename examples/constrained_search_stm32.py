#!/usr/bin/env python
"""Deploy-under-budget scenario: search with hard MCU constraints.

A product team must hit a latency target on an STM32 NUCLEO-F746ZG and fit
int8 weights in the board's 1 MB flash.  MicroNAS's outer loop adapts the
hardware indicator weights until the discovered architecture is feasible
("MicroNAS adapts FLOPs and latency indicator weights, consistently
discovering highly efficient models across various constraints").

Runtime: a few minutes (it may re-run the pruning search several times).
"""

from __future__ import annotations

from repro.benchdata import SurrogateModel
from repro.hardware import LatencyEstimator, MemoryEstimator, NUCLEO_F746ZG
from repro.proxies import ProxyConfig, count_params
from repro.search import (
    HardwareConstraints,
    HybridObjective,
    MicroNASSearch,
    ObjectiveWeights,
)
from repro.search.constraints import ConstraintChecker
from repro.searchspace.network import MacroConfig
from repro.utils import format_table

#: Product requirements: 150 ms per inference, int8 weights in 1 MB flash.
CONSTRAINTS = HardwareConstraints(
    max_latency_ms=150.0,
    max_flash_bytes=NUCLEO_F746ZG.flash_bytes,
)


def main() -> None:
    proxy_config = ProxyConfig(
        init_channels=4, cells_per_stage=1, input_size=8, ntk_batch_size=16,
        lr_num_samples=64, lr_input_size=4, lr_channels=3, seed=0,
    )
    print("profiling the board and building estimators...")
    latency_estimator = LatencyEstimator(NUCLEO_F746ZG, config=MacroConfig.full())
    memory_estimator = MemoryEstimator(MacroConfig.full(), element_bytes=1)
    checker = ConstraintChecker(
        CONSTRAINTS,
        macro_config=MacroConfig.full(),
        latency_estimator=latency_estimator,
        memory_estimator=memory_estimator,
    )

    objective = HybridObjective(
        proxy_config=proxy_config,
        weights=ObjectiveWeights(),  # hardware weights start at zero
        latency_estimator=latency_estimator,
    )
    searcher = MicroNASSearch(objective)
    print("searching with constraint-driven weight adaptation...")
    result = searcher.search_with_constraints(
        CONSTRAINTS, checker=checker, max_outer_rounds=4
    )

    genotype = result.genotype
    surrogate = SurrogateModel()
    report = memory_estimator.report(genotype)
    latency = latency_estimator.estimate_ms(genotype)
    violations = checker.violations(genotype)

    print()
    print("weight-adaptation trajectory:")
    for entry in result.history:
        if "outer_round" in entry:
            print(
                f"  outer round {entry['outer_round']}: "
                f"w_L={entry['weights']['latency']:.2f} "
                f"w_F={entry['weights']['flops']:.2f} "
                f"violation={entry['violation']:.3f}"
            )
    print()
    print(format_table(
        [
            ["architecture", genotype.to_arch_str()],
            ["latency", f"{latency:.1f} ms (budget {CONSTRAINTS.max_latency_ms:.0f} ms)"],
            ["flash (int8)", f"{report.flash_bytes / 1024:.0f} KB (budget 1024 KB)"],
            ["params", f"{count_params(genotype) / 1e6:.3f} M"],
            ["surrogate accuracy", f"{surrogate.mean_accuracy(genotype):.2f} %"],
            ["feasible", "yes" if not violations else f"NO: {violations}"],
        ],
        title="Constrained deployment result",
    ))


if __name__ == "__main__":
    main()
