"""The paper's LUT-composition latency estimator (indicator ``L``).

``estimate = Σ LUT[layer] + constant overhead`` over the deployment
network's kernel sequence.  Validated against full-network "on-board"
measurements in ``benchmarks/bench_latency_model_accuracy.py``.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Optional

from repro.engine.cache import IndicatorCache
from repro.hardware.costmodel import CycleCostModel
from repro.hardware.device import MCUDevice, NUCLEO_F746ZG
from repro.hardware.layers import network_layers
from repro.hardware.profiler import LatencyLUT, OnDeviceProfiler
from repro.searchspace.genotype import Genotype
from repro.searchspace.specs import MacroConfig


class LatencyEstimator:
    """Estimates MCU inference latency of any genotype from a profiled LUT.

    Construction profiles the device once (building the LUT for the given
    deployment macro config); estimates are then pure table composition and
    memoized.  The memo is a pluggable
    :class:`~repro.engine.cache.IndicatorCache` — pass the evaluation
    engine's cache to fold per-estimator results into the shared indicator
    memo (the key layout matches :meth:`repro.engine.Engine.latency_ms`).

    Note ``estimate_ms`` prices the genotype *as given*: dead edges are
    billed exactly like the on-board ground-truth measurement bills them.
    Canonicalization-aware pricing lives in the engine layer.

    A duck-typed ``lut_store`` (anything with
    ``lut_get(device_name, precision, config)`` /
    ``lut_put(lut, precision, config)``, e.g.
    :class:`repro.runtime.store.RuntimeStore`) turns profiling into a
    once-per-board cost: construction first asks the store for a matching
    LUT and only profiles — then persists the result — on a store miss.
    ``lut_from_store`` records which path was taken.
    """

    def __init__(
        self,
        device: MCUDevice = NUCLEO_F746ZG,
        config: Optional[MacroConfig] = None,
        profiler: Optional[OnDeviceProfiler] = None,
        lut: Optional[LatencyLUT] = None,
        precision: str = "float32",
        cache: Optional[IndicatorCache] = None,
        lut_store=None,
    ) -> None:
        self.device = device
        self.config = config or MacroConfig.full()
        self.profiler = profiler or OnDeviceProfiler(device, precision=precision)
        self.lut_from_store = False
        if lut is None and lut_store is not None:
            lut = lut_store.lut_get(device.name, self.profiler.precision,
                                    self.config)
            self.lut_from_store = lut is not None
        if lut is None:
            lut = self.profiler.build_lut(self.config)
            if lut_store is not None:
                lut_store.lut_put(lut, self.profiler.precision, self.config)
        self.lut = lut
        self.cache = cache if cache is not None else IndicatorCache()
        self._key_suffix = (self.device.name, self.precision,
                            astuple(self.config))

    @property
    def precision(self) -> str:
        """Kernel precision this estimator was profiled at."""
        return self.profiler.precision

    def estimate_ms(self, genotype: Genotype) -> float:
        """Estimated single-image inference latency in milliseconds."""
        key = ("latency", genotype.to_index()) + self._key_suffix

        def compute() -> float:
            layers = network_layers(genotype, self.config)
            total = sum(self.lut.lookup(layer) for layer in layers)
            return total + self.lut.network_overhead_ms

        return self.cache.lookup(key, compute)

    def ground_truth_ms(self, genotype: Genotype) -> float:
        """Full on-board measurement (validation reference, not cached)."""
        return self.profiler.profile_network_ms(genotype, self.config)

    def relative_error(self, genotype: Genotype) -> float:
        """|estimate − measured| / measured for one architecture."""
        truth = self.ground_truth_ms(genotype)
        return abs(self.estimate_ms(genotype) - truth) / truth


def measure_ground_truth_ms(
    genotype: Genotype,
    device: MCUDevice = NUCLEO_F746ZG,
    config: Optional[MacroConfig] = None,
    cost_model: Optional[CycleCostModel] = None,
    precision: str = "float32",
) -> float:
    """Noise-free exact latency from the cycle model (analysis helper)."""
    model = cost_model or CycleCostModel(device, precision=precision)
    layers = network_layers(genotype, config or MacroConfig.full())
    cycles = model.network_cycles(layers, include_transition_stalls=True)
    return device.cycles_to_ms(cycles)
