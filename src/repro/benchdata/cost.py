"""Simulated training-cost model.

Train-based NAS (µNAS) pays full training for every candidate; the paper's
1104× efficiency claim compares those GPU-hours against MicroNAS's proxy
wall-clock.  This model assigns each architecture a deterministic training
time calibrated to NAS-Bench-201's reported per-epoch times on a single
modern GPU: cost grows affinely with the network's FLOPs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.proxies.flops import count_flops
from repro.searchspace.genotype import Genotype
from repro.searchspace.specs import MacroConfig


@dataclass(frozen=True)
class TrainingCostModel:
    """GPU-seconds to train one architecture for ``epochs`` epochs.

    ``base_seconds_per_epoch`` covers data loading and fixed overheads;
    ``seconds_per_mflop_epoch`` is the compute term.  Defaults give the
    all-3×3 cell (~190 MFLOPs) ≈ 23 s/epoch ≈ 1.3 GPU-hours for the
    benchmark's 200-epoch schedule, consistent with the published logs.
    """

    epochs: int = 200
    base_seconds_per_epoch: float = 4.0
    seconds_per_mflop_epoch: float = 0.10

    def seconds_per_epoch(self, genotype: Genotype,
                          config: MacroConfig = None) -> float:
        mflops = count_flops(genotype, config or MacroConfig.full()) / 1e6
        return self.base_seconds_per_epoch + self.seconds_per_mflop_epoch * mflops

    def training_seconds(self, genotype: Genotype,
                         config: MacroConfig = None,
                         epochs: int = None) -> float:
        """Full-training GPU-seconds for one candidate."""
        n_epochs = epochs if epochs is not None else self.epochs
        return n_epochs * self.seconds_per_epoch(genotype, config)

    def training_gpu_hours(self, genotype: Genotype,
                           config: MacroConfig = None,
                           epochs: int = None) -> float:
        return self.training_seconds(genotype, config, epochs) / 3600.0
