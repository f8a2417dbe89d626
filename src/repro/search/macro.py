"""Secondary-stage (macro) search: cell count and channel width per stage.

The paper's latency estimator gathers "specific details of the secondary
stage of the model structure, including the number of cells and
input/output channels for each cell" (§II-B-2).  This module turns that
secondary stage into a search of its own: given a discovered cell, find
the macro skeleton — ``cells_per_stage`` and ``init_channels`` — that best
exploits a target MCU's latency / SRAM / flash budget.

Selection follows the TinyML "largest model that fits" principle
(MCUNet): under a hard resource budget, accuracy grows with model
capacity, so among feasible skeletons we pick the one with the highest
capacity score.  The capacity score is ``log(params) + log(FLOPs)`` —
scale-free, monotone in both width and depth, and indifferent to the
units either indicator is expressed in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.core import Engine
from repro.errors import SearchError
from repro.hardware.device import MCUDevice, NUCLEO_F746ZG
from repro.hardware.memory import MemoryEstimator
from repro.hardware.profiler import OnDeviceProfiler
from repro.search.constraints import HardwareConstraints
from repro.searchspace.genotype import Genotype
from repro.searchspace.specs import MacroConfig


@dataclass(frozen=True)
class MacroSearchSpace:
    """The grid of macro skeletons the secondary stage considers.

    ``channel_choices`` are initial widths ``C`` (stages run at C/2C/4C);
    ``cell_choices`` are cells per stage ``N``.  The full NAS-Bench-201
    configuration (C=16, N=5) is one point of the default grid.
    """

    channel_choices: Tuple[int, ...] = (4, 8, 12, 16, 24, 32)
    cell_choices: Tuple[int, ...] = (1, 2, 3, 4, 5)
    num_classes: int = 10
    input_channels: int = 3
    image_size: int = 32

    def __post_init__(self) -> None:
        if not self.channel_choices or not self.cell_choices:
            raise SearchError("macro search space must not be empty")
        if any(c < 1 for c in self.channel_choices):
            raise SearchError("channel choices must be positive")
        if any(n < 1 for n in self.cell_choices):
            raise SearchError("cell choices must be positive")
        if self.image_size % 4 != 0:
            raise SearchError(
                "image size must be divisible by 4 (two stride-2 reductions)"
            )

    def __len__(self) -> int:
        return len(self.channel_choices) * len(self.cell_choices)

    def configs(self) -> List[MacroConfig]:
        """Every macro configuration of the grid, widest-first."""
        return [
            MacroConfig(
                init_channels=c,
                cells_per_stage=n,
                num_classes=self.num_classes,
                input_channels=self.input_channels,
                image_size=self.image_size,
            )
            for c in self.channel_choices
            for n in self.cell_choices
        ]


@dataclass(frozen=True)
class MacroCandidate:
    """One evaluated macro skeleton for a fixed cell genotype."""

    config: MacroConfig
    latency_ms: float
    flops: int
    params: int
    peak_sram_bytes: int
    flash_bytes: int
    violations: Dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def feasible(self) -> bool:
        return not self.violations

    @property
    def capacity(self) -> float:
        """Scale-free model-capacity score (selection criterion)."""
        return float(np.log(max(self.params, 1)) + np.log(max(self.flops, 1)))

    def describe(self) -> str:
        return (
            f"C={self.config.init_channels} N={self.config.cells_per_stage}: "
            f"{self.latency_ms:.2f} ms, {self.flops / 1e6:.2f} MFLOPs, "
            f"{self.params / 1e3:.1f} k params, "
            f"SRAM {self.peak_sram_bytes / 1024:.0f} KB, "
            f"flash {self.flash_bytes / 1024:.0f} KB"
            + ("" if self.feasible else f"  [violates {sorted(self.violations)}]")
        )


@dataclass
class DeploymentPlan:
    """A fully specified deployment: cell + macro skeleton + metrics."""

    genotype: Genotype
    candidate: MacroCandidate
    device_name: str
    alternatives_considered: int = 0

    @property
    def config(self) -> MacroConfig:
        return self.candidate.config

    def summary(self) -> str:
        return (
            f"{self.genotype.to_arch_str()} on {self.device_name} -> "
            f"{self.candidate.describe()}"
        )

    def to_dict(self) -> Dict:
        return {
            "arch_str": self.genotype.to_arch_str(),
            "arch_index": self.genotype.to_index(),
            "device": self.device_name,
            "init_channels": self.config.init_channels,
            "cells_per_stage": self.config.cells_per_stage,
            "latency_ms": self.candidate.latency_ms,
            "flops": self.candidate.flops,
            "params": self.candidate.params,
            "peak_sram_bytes": self.candidate.peak_sram_bytes,
            "flash_bytes": self.candidate.flash_bytes,
            "alternatives_considered": self.alternatives_considered,
        }


def device_constraints(
    device: MCUDevice,
    max_latency_ms: Optional[float] = None,
    memory_margin: float = 1.0,
) -> HardwareConstraints:
    """Constraints implied by a device's physical memories.

    ``memory_margin`` scales the SRAM/flash budgets (e.g. ``0.8`` reserves
    20 % for the application around the model).
    """
    if not 0.0 < memory_margin <= 1.0:
        raise SearchError("memory margin must be in (0, 1]")
    return HardwareConstraints(
        max_latency_ms=max_latency_ms,
        max_sram_bytes=device.sram_bytes * memory_margin,
        max_flash_bytes=device.flash_bytes * memory_margin,
    )


class MacroStageSearch:
    """Exhaustive hardware-aware search over macro skeletons.

    The grid is small (tens of points), so exhaustive evaluation with the
    LUT estimator is cheap — exactly why the paper's latency model makes
    the secondary stage tractable.  Latency / FLOPs / params route through
    the shared evaluation engine (one LUT estimator per grid point, all
    writing the same indicator cache); composed candidates are additionally
    memoized per config.
    """

    def __init__(
        self,
        genotype: Genotype,
        device: MCUDevice = NUCLEO_F746ZG,
        space: Optional[MacroSearchSpace] = None,
        element_bytes: int = 4,
        profiler: Optional[OnDeviceProfiler] = None,
        engine: Optional[Engine] = None,
    ) -> None:
        self.genotype = genotype
        self.device = device
        self.space = space or MacroSearchSpace()
        self.element_bytes = element_bytes
        self.profiler = profiler or OnDeviceProfiler(device)
        if engine is None:
            self.engine = Engine(device=device, profiler=self.profiler)
        else:
            # A shared engine is only honoured if it prices this search's
            # board; otherwise a sibling (same cache, own estimators) is
            # built so grid latencies never come from the wrong device.
            self.engine = engine.for_device(device, profiler=self.profiler)
        self._cache: Dict[Tuple[int, int], MacroCandidate] = {}

    # ------------------------------------------------------------------
    def _constraint_violations(
        self, constraints: Optional[HardwareConstraints],
        latency_ms: float, flops: int, params: int,
        sram: int, flash: int,
    ) -> Dict[str, float]:
        if constraints is None:
            return {}
        out: Dict[str, float] = {}
        checks = (
            ("latency", latency_ms, constraints.max_latency_ms),
            ("flops", flops, constraints.max_flops),
            ("params", params, constraints.max_params),
            ("sram", sram, constraints.max_sram_bytes),
            ("flash", flash, constraints.max_flash_bytes),
        )
        for name, measured, bound in checks:
            if bound is not None and measured > bound:
                out[name] = measured / bound - 1.0
        return out

    def evaluate(
        self,
        config: MacroConfig,
        constraints: Optional[HardwareConstraints] = None,
    ) -> MacroCandidate:
        """Latency / memory / complexity of the cell at one skeleton."""
        key = (config.init_channels, config.cells_per_stage)
        if key not in self._cache:
            latency_ms = self.engine.latency_ms(self.genotype, config)
            flops = int(self.engine.flops(self.genotype, config))
            params = int(self.engine.params(self.genotype, config))
            memory = MemoryEstimator(config, element_bytes=self.element_bytes)
            report = memory.report(self.genotype)
            self._cache[key] = MacroCandidate(
                config=config,
                latency_ms=latency_ms,
                flops=flops,
                params=params,
                peak_sram_bytes=report.peak_sram_bytes,
                flash_bytes=report.flash_bytes,
            )
        base = self._cache[key]
        violations = self._constraint_violations(
            constraints, base.latency_ms, base.flops, base.params,
            base.peak_sram_bytes, base.flash_bytes,
        )
        return MacroCandidate(
            config=base.config,
            latency_ms=base.latency_ms,
            flops=base.flops,
            params=base.params,
            peak_sram_bytes=base.peak_sram_bytes,
            flash_bytes=base.flash_bytes,
            violations=violations,
        )

    def evaluate_all(
        self, constraints: Optional[HardwareConstraints] = None
    ) -> List[MacroCandidate]:
        """Every grid point, evaluated (order matches ``space.configs()``)."""
        return [self.evaluate(cfg, constraints) for cfg in self.space.configs()]

    # ------------------------------------------------------------------
    def select(self, constraints: HardwareConstraints) -> DeploymentPlan:
        """The highest-capacity feasible skeleton ("largest that fits").

        Ties on capacity break toward lower latency.  Raises
        :class:`SearchError` when nothing in the grid fits the budget.
        """
        candidates = self.evaluate_all(constraints)
        feasible = [c for c in candidates if c.feasible]
        if not feasible:
            tightest = min(
                candidates, key=lambda c: sum(c.violations.values())
            )
            raise SearchError(
                "no macro skeleton satisfies the constraints; closest was "
                + tightest.describe()
            )
        best = max(feasible, key=lambda c: (c.capacity, -c.latency_ms))
        return DeploymentPlan(
            genotype=self.genotype,
            candidate=best,
            device_name=self.device.name,
            alternatives_considered=len(candidates),
        )

    def pareto_frontier(self) -> List[MacroCandidate]:
        """Latency-vs-capacity Pareto set of the grid (latency ascending).

        A skeleton is kept iff no other skeleton is at most as slow *and*
        has strictly higher capacity.
        """
        candidates = sorted(
            self.evaluate_all(), key=lambda c: (c.latency_ms, -c.capacity)
        )
        frontier: List[MacroCandidate] = []
        best_capacity = -np.inf
        for cand in candidates:
            if cand.capacity > best_capacity:
                frontier.append(cand)
                best_capacity = cand.capacity
        return frontier


def plan_deployment(
    genotype: Genotype,
    device: MCUDevice = NUCLEO_F746ZG,
    max_latency_ms: Optional[float] = None,
    space: Optional[MacroSearchSpace] = None,
    element_bytes: int = 4,
    memory_margin: float = 1.0,
) -> DeploymentPlan:
    """One-call secondary stage: fit a discovered cell onto a device.

    Convenience wrapper combining :func:`device_constraints` and
    :meth:`MacroStageSearch.select`.
    """
    search = MacroStageSearch(
        genotype, device=device, space=space, element_bytes=element_bytes
    )
    constraints = device_constraints(
        device, max_latency_ms=max_latency_ms, memory_margin=memory_margin
    )
    return search.select(constraints)
