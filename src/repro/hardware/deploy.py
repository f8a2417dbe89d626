"""End-to-end deployment assessment: will this architecture ship?

Combines every hardware model in the package into one answer per
(architecture, board):

* latency at float32 and int8 (LUT estimators profiled per precision),
* the planned int8/float32 tensor arena (greedy-by-size planner) against
  the board's SRAM,
* int8 flash footprint (weights + code) against the board's flash,
* weight-quantization damage (SQNR) from the int8 codec.

This is the artefact the MicroNAS workflow hands to a firmware engineer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hardware.device import MCUDevice, NUCLEO_F746ZG
from repro.hardware.latency import LatencyEstimator
from repro.hardware.memory import MemoryEstimator
from repro.hardware.memplan import plan_memory, tensor_lifetimes
from repro.hardware.quantize import quantization_report
from repro.searchspace.genotype import Genotype
from repro.searchspace.network import build_network
from repro.searchspace.specs import MacroConfig


@dataclass(frozen=True)
class DeploymentReport:
    """Everything that decides whether an architecture ships on a board."""

    arch_str: str
    device_name: str
    latency_float32_ms: float
    latency_int8_ms: float
    arena_float32_bytes: int
    arena_int8_bytes: int
    flash_int8_bytes: int
    sram_bytes: int
    flash_bytes: int
    weight_sqnr_db: float
    total_params: int

    @property
    def int8_speedup(self) -> float:
        """Latency ratio float32 / int8 (>1 when quantization pays off)."""
        return self.latency_float32_ms / self.latency_int8_ms

    @property
    def fits_sram(self) -> bool:
        return self.arena_int8_bytes <= self.sram_bytes

    @property
    def fits_flash(self) -> bool:
        return self.flash_int8_bytes <= self.flash_bytes

    @property
    def deployable(self) -> bool:
        """int8 deployment fits both board memories."""
        return self.fits_sram and self.fits_flash

    def summary(self) -> str:
        verdict = "DEPLOYABLE" if self.deployable else "DOES NOT FIT"
        return (
            f"{self.arch_str} on {self.device_name}: {verdict} — "
            f"int8 {self.latency_int8_ms:.1f} ms "
            f"({self.int8_speedup:.2f}x vs float32), "
            f"arena {self.arena_int8_bytes / 1024:.0f}/"
            f"{self.sram_bytes / 1024:.0f} KB, "
            f"flash {self.flash_int8_bytes / 1024:.0f}/"
            f"{self.flash_bytes / 1024:.0f} KB, "
            f"weight SQNR {self.weight_sqnr_db:.1f} dB"
        )


def deployment_report(
    genotype: Genotype,
    device: MCUDevice = NUCLEO_F746ZG,
    config: Optional[MacroConfig] = None,
    float_estimator: Optional[LatencyEstimator] = None,
    int8_estimator: Optional[LatencyEstimator] = None,
    rng: int = 0,
) -> DeploymentReport:
    """Assess one architecture's deployability on one board.

    Estimators may be passed in to share profiled LUTs across many calls
    (e.g. when sweeping architectures on a fixed board).
    """
    config = config or MacroConfig.full()
    if float_estimator is None:
        float_estimator = LatencyEstimator(device=device, config=config)
    if int8_estimator is None:
        int8_estimator = LatencyEstimator(device=device, config=config,
                                          precision="int8")

    arena_f32 = plan_memory(
        tensor_lifetimes(genotype, config, element_bytes=4), "greedy_by_size"
    ).arena_bytes
    arena_i8 = plan_memory(
        tensor_lifetimes(genotype, config, element_bytes=1), "greedy_by_size"
    ).arena_bytes
    flash_i8 = MemoryEstimator(config, element_bytes=1).report(genotype).flash_bytes

    quant = quantization_report(build_network(genotype, config, rng=rng))

    return DeploymentReport(
        arch_str=genotype.to_arch_str(),
        device_name=device.name,
        latency_float32_ms=float_estimator.estimate_ms(genotype),
        latency_int8_ms=int8_estimator.estimate_ms(genotype),
        arena_float32_bytes=arena_f32,
        arena_int8_bytes=arena_i8,
        flash_int8_bytes=flash_i8,
        sram_bytes=device.sram_bytes,
        flash_bytes=device.flash_bytes,
        weight_sqnr_db=quant.mean_sqnr_db,
        total_params=quant.total_params,
    )
