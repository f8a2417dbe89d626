"""Alternative latency estimators — why the paper builds a LUT.

The paper's §II-B argues that "FLOPs alone don't represent absolute
accuracy or real-world hardware performance", motivating its profiled
lookup-table estimator.  This module makes that argument quantitative by
implementing the two obvious cheaper estimators a practitioner would try
first, fit on exactly the same profiling data the LUT consumes:

* :class:`FlopsProportionalModel` — ``latency = α · FLOPs + β``, the
  assumption behind FLOPs-guided search,
* :class:`LinearFeatureModel` — per-layer least squares over interpretable
  kernel features (MACs, output elements, im2col patch elements, a
  constant per-layer term), composed over the network like the LUT,
* :class:`LUTModel` — a thin adapter putting the paper's estimator behind
  the same interface.

All three implement ``estimate_ms(genotype)`` so the A9 ablation can rank
them on error and rank fidelity against on-board ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import HardwareModelError
from repro.hardware.device import MCUDevice, NUCLEO_F746ZG
from repro.hardware.latency import LatencyEstimator
from repro.hardware.layers import LayerOp, network_layers
from repro.hardware.profiler import OnDeviceProfiler
from repro.proxies.flops import count_flops
from repro.searchspace.genotype import Genotype
from repro.searchspace.space import NasBench201Space
from repro.searchspace.specs import MacroConfig


def layer_features(layer: LayerOp) -> np.ndarray:
    """Interpretable cost features of one kernel invocation.

    ``[MACs, output elements, im2col patch elements, 1]`` — the terms a
    hand-built analytical model would use.  The constant captures
    per-layer invocation overhead.
    """
    patch_elements = 0
    if layer.kind == "conv" and layer.kernel > 1:
        patch_elements = (layer.c_in * layer.kernel**2
                          * layer.height * layer.width)
    return np.array(
        [layer.macs, layer.out_elements, patch_elements, 1.0], dtype=float
    )


class FlopsProportionalModel:
    """``latency = α · FLOPs + β`` fit on measured whole networks.

    This is the latency model FLOPs-guided search implicitly assumes.  It
    is calibrated honestly — ordinary least squares on on-board
    measurements of the calibration networks — and still mispredicts,
    because networks of equal FLOPs differ in pooling/copy traffic, SIMD
    utilisation and memory spill.
    """

    name = "flops-proportional"

    def __init__(self, device: MCUDevice = NUCLEO_F746ZG,
                 config: Optional[MacroConfig] = None,
                 profiler: Optional[OnDeviceProfiler] = None) -> None:
        self.device = device
        self.config = config or MacroConfig.full()
        self.profiler = profiler or OnDeviceProfiler(device)
        self._coef: Optional[np.ndarray] = None

    def fit(self, genotypes: Sequence[Genotype]) -> "FlopsProportionalModel":
        if len(genotypes) < 2:
            raise HardwareModelError("need >= 2 calibration networks")
        flops = np.array(
            [count_flops(g, self.config) for g in genotypes], dtype=float
        )
        measured = np.array(
            [self.profiler.profile_network_ms(g, self.config)
             for g in genotypes]
        )
        design = np.stack([flops, np.ones_like(flops)], axis=1)
        self._coef, *_ = np.linalg.lstsq(design, measured, rcond=None)
        return self

    def estimate_ms(self, genotype: Genotype) -> float:
        if self._coef is None:
            raise HardwareModelError("model not fitted; call fit() first")
        flops = float(count_flops(genotype, self.config))
        return float(self._coef[0] * flops + self._coef[1])


class LinearFeatureModel:
    """Per-layer linear regression, composed over the network.

    Fit on the same per-op profiling runs the LUT stores, but forced to
    explain them with four global coefficients.  It captures broad cost
    structure yet misses shape-specific effects (spill thresholds, SIMD
    lane waste, 1×1-vs-3×3 im2col asymmetry) that the LUT memorises.
    """

    name = "linear-feature"

    def __init__(self, device: MCUDevice = NUCLEO_F746ZG,
                 config: Optional[MacroConfig] = None,
                 profiler: Optional[OnDeviceProfiler] = None) -> None:
        self.device = device
        self.config = config or MacroConfig.full()
        self.profiler = profiler or OnDeviceProfiler(device)
        self._coef: Optional[np.ndarray] = None
        self._overhead_ms = 0.0

    def fit(self, layers: Optional[Sequence[LayerOp]] = None) -> "LinearFeatureModel":
        if layers is None:
            lut = self.profiler.build_lut(self.config)
            keys = list(lut.entries)
            layers = [LayerOp(k[0], *k[1:]) for k in keys]
            targets = np.array([lut.entries[k] for k in keys])
        else:
            layers = list(layers)
            targets = np.array(
                [self.profiler.measure_layer_ms(layer) for layer in layers]
            )
        if len(layers) < 4:
            raise HardwareModelError("need >= 4 calibration layers")
        design = np.stack([layer_features(layer) for layer in layers])
        self._coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
        self._overhead_ms = self.profiler.measure_network_overhead_ms()
        return self

    def layer_ms(self, layer: LayerOp) -> float:
        if self._coef is None:
            raise HardwareModelError("model not fitted; call fit() first")
        return float(layer_features(layer) @ self._coef)

    def estimate_ms(self, genotype: Genotype) -> float:
        layers = network_layers(genotype, self.config)
        return sum(self.layer_ms(layer) for layer in layers) + self._overhead_ms


class LUTModel:
    """The paper's estimator behind the ablation's common interface."""

    name = "lut (paper)"

    def __init__(self, device: MCUDevice = NUCLEO_F746ZG,
                 config: Optional[MacroConfig] = None,
                 estimator: Optional[LatencyEstimator] = None) -> None:
        self.estimator = estimator or LatencyEstimator(device, config=config)

    def fit(self, *_args) -> "LUTModel":
        return self  # profiling happened at construction

    def estimate_ms(self, genotype: Genotype) -> float:
        return self.estimator.estimate_ms(genotype)


@dataclass(frozen=True)
class ModelAccuracy:
    """Error statistics of one estimator against on-board ground truth."""

    name: str
    mean_rel_error: float
    max_rel_error: float
    kendall_tau: float


def compare_models(
    models: Sequence,
    genotypes: Sequence[Genotype],
    device: MCUDevice = NUCLEO_F746ZG,
    config: Optional[MacroConfig] = None,
    profiler: Optional[OnDeviceProfiler] = None,
) -> List[ModelAccuracy]:
    """Evaluate estimators against whole-network measurements."""
    from repro.eval.correlation import kendall_tau

    config = config or MacroConfig.full()
    profiler = profiler or OnDeviceProfiler(device)
    truth = np.array(
        [profiler.profile_network_ms(g, config) for g in genotypes]
    )
    results = []
    for model in models:
        estimates = np.array([model.estimate_ms(g) for g in genotypes])
        rel = np.abs(estimates - truth) / truth
        results.append(ModelAccuracy(
            name=model.name,
            mean_rel_error=float(rel.mean()),
            max_rel_error=float(rel.max()),
            kendall_tau=float(kendall_tau(estimates, truth)),
        ))
    return results


def default_calibration_sample(num: int = 12, rng: int = 31) -> List[Genotype]:
    """A deterministic calibration set disjoint from typical eval seeds."""
    return NasBench201Space().sample(num, rng=rng)
