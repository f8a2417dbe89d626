"""Hard deployment constraints for the hardware-aware search."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.hardware.latency import LatencyEstimator
from repro.hardware.memory import MemoryEstimator
from repro.proxies.flops import count_flops, count_params
from repro.searchspace.genotype import Genotype
from repro.searchspace.specs import MacroConfig


@dataclass(frozen=True)
class HardwareConstraints:
    """Upper bounds a deployable architecture must satisfy.

    ``None`` disables a bound.  µNAS-style constrained search uses all of
    them; the paper's headline experiments constrain latency (and FLOPs).
    """

    max_latency_ms: Optional[float] = None
    max_flops: Optional[float] = None
    max_params: Optional[float] = None
    max_sram_bytes: Optional[float] = None
    max_flash_bytes: Optional[float] = None

    @property
    def constrains_anything(self) -> bool:
        return any(
            bound is not None
            for bound in (self.max_latency_ms, self.max_flops, self.max_params,
                          self.max_sram_bytes, self.max_flash_bytes)
        )


class ConstraintChecker:
    """Evaluates :class:`HardwareConstraints` against concrete genotypes.

    Bounds are checked on the genotype *as given* (dead edges billed),
    matching the on-board ground-truth measurements the bounds are
    calibrated against.  The evaluation engine's indicator values are
    canonical (dead edges elided), so a dead-conv candidate can rank
    better on the latency indicator than the checker's as-built number —
    the checker is deliberately the stricter, deployment-honest view.
    """

    def __init__(
        self,
        constraints: HardwareConstraints,
        macro_config: Optional[MacroConfig] = None,
        latency_estimator: Optional[LatencyEstimator] = None,
        memory_estimator: Optional[MemoryEstimator] = None,
    ) -> None:
        self.constraints = constraints
        self.macro_config = macro_config or MacroConfig.full()
        self._latency = latency_estimator
        self._memory = memory_estimator

    def _latency_estimator(self) -> LatencyEstimator:
        if self._latency is None:
            self._latency = LatencyEstimator(config=self.macro_config)
        return self._latency

    def _memory_estimator(self) -> MemoryEstimator:
        if self._memory is None:
            self._memory = MemoryEstimator(self.macro_config)
        return self._memory

    def violations(self, genotype: Genotype) -> Dict[str, float]:
        """Relative overshoot per violated bound (empty dict = feasible).

        Values are ``measured / bound - 1`` so they are comparable across
        heterogeneous units (ms, FLOPs, bytes).
        """
        c = self.constraints
        out: Dict[str, float] = {}
        if c.max_latency_ms is not None:
            latency = self._latency_estimator().estimate_ms(genotype)
            if latency > c.max_latency_ms:
                out["latency"] = latency / c.max_latency_ms - 1.0
        if c.max_flops is not None:
            flops = count_flops(genotype, self.macro_config)
            if flops > c.max_flops:
                out["flops"] = flops / c.max_flops - 1.0
        if c.max_params is not None:
            params = count_params(genotype, self.macro_config)
            if params > c.max_params:
                out["params"] = params / c.max_params - 1.0
        if c.max_sram_bytes is not None or c.max_flash_bytes is not None:
            report = self._memory_estimator().report(genotype)
            if c.max_sram_bytes is not None and report.peak_sram_bytes > c.max_sram_bytes:
                out["sram"] = report.peak_sram_bytes / c.max_sram_bytes - 1.0
            if c.max_flash_bytes is not None and report.flash_bytes > c.max_flash_bytes:
                out["flash"] = report.flash_bytes / c.max_flash_bytes - 1.0
        return out

    def satisfied(self, genotype: Genotype) -> bool:
        return not self.violations(genotype)

    def total_violation(self, genotype: Genotype) -> float:
        """Sum of relative overshoots (0.0 when feasible)."""
        return sum(self.violations(genotype).values())
