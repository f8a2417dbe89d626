#!/usr/bin/env python
"""Quickstart: run a MicroNAS search end-to-end (Fig. 1's workflow).

Builds the hybrid objective (NTK condition number + linear regions +
latency indicator for an STM32 NUCLEO-F746ZG), runs the hardware-aware
pruning search over the NAS-Bench-201 cell space, and reports what it
found: architecture string, hardware profile and surrogate accuracy.

Runtime: a couple of minutes on a laptop (pure NumPy).
"""

from __future__ import annotations

from repro.benchdata import SurrogateModel
from repro.hardware import LatencyEstimator, MemoryEstimator, NUCLEO_F746ZG
from repro.proxies import ProxyConfig, count_flops, count_params
from repro.search import HybridObjective, MicroNASSearch, ObjectiveWeights
from repro.searchspace.network import MacroConfig
from repro.utils import format_table


def main() -> None:
    # 1. Reduced proxy networks for the zero-cost indicators (TE-NAS style).
    proxy_config = ProxyConfig(
        init_channels=4, cells_per_stage=1, input_size=8,
        ntk_batch_size=16,  # paper recommends 16-32 (Fig. 2b)
        lr_num_samples=64, lr_input_size=4, lr_channels=3,
        seed=0,
    )

    # 2. Profile the target MCU once; the search reuses the latency LUT.
    print("profiling STM32 NUCLEO-F746ZG (simulated board)...")
    latency_estimator = LatencyEstimator(NUCLEO_F746ZG, config=MacroConfig.full())

    # 3. The hybrid objective: trainless proxies + weighted latency indicator.
    objective = HybridObjective(
        proxy_config=proxy_config,
        weights=ObjectiveWeights(ntk=1.0, linear_regions=1.0, latency=0.5),
        latency_estimator=latency_estimator,
    )

    # 4. Hardware-aware pruning-based search (30 -> 1 op per edge).
    print("searching (pruning the supernet)...")
    result = MicroNASSearch(objective).search()

    # 5. Report the discovered architecture.
    genotype = result.genotype
    surrogate = SurrogateModel()
    memory = MemoryEstimator(MacroConfig.full(), element_bytes=1)  # int8
    report = memory.report(genotype)
    print()
    print("discovered architecture:")
    print(f"  {genotype.to_arch_str()}")
    print()
    print(format_table(
        [
            ["surrogate CIFAR-10 accuracy", f"{surrogate.mean_accuracy(genotype):.2f} %"],
            ["FLOPs", f"{count_flops(genotype) / 1e6:.2f} M"],
            ["params", f"{count_params(genotype) / 1e6:.3f} M"],
            ["estimated MCU latency", f"{latency_estimator.estimate_ms(genotype):.1f} ms"],
            ["peak SRAM (int8)", f"{report.peak_sram_bytes / 1024:.0f} KB"],
            ["flash (int8)", f"{report.flash_bytes / 1024:.0f} KB"],
            ["proxy evaluations", str(result.ledger.counts.get('pruning_candidates', 0))],
            ["search wall time", f"{result.wall_seconds:.1f} s"],
        ],
        title="MicroNAS result on STM32 NUCLEO-F746ZG",
    ))
    print()
    print("pruning history (ops removed per round):")
    for entry in result.history:
        if "round" in entry:
            removed = ", ".join(f"e{e}:{op}" for e, op in sorted(entry["removed"].items()))
            print(f"  round {entry['round']}: {removed}")


if __name__ == "__main__":
    main()
