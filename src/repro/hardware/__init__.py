"""MCU hardware modelling (Section II-B-2 of the paper).

The paper profiles every candidate operation on an STM32 NUCLEO-F746ZG,
stores the measurements in a lookup table, and estimates a network's
latency as the sum of its layers' LUT entries plus a constant overhead.
We reproduce that pipeline end-to-end:

* :mod:`repro.hardware.device` — MCU descriptors (clock, SRAM, SIMD),
* :mod:`repro.hardware.costmodel` — a cycle-level Cortex-M cost model that
  plays the role of the physical board,
* :mod:`repro.hardware.layers` — symbolic layer enumeration of a genotype's
  deployment network,
* :mod:`repro.hardware.profiler` — the simulated on-device profiler that
  builds the latency LUT (with measurement jitter, median-of-N),
* :mod:`repro.hardware.latency` — the LUT-composition estimator and the
  whole-network ground truth it is validated against,
* :mod:`repro.hardware.memory` — peak-SRAM / flash estimation (the paper's
  §IV future-work extension),
* :mod:`repro.hardware.memplan` — static tensor-arena planning (buffer
  liveness + offset assignment, TFLite-Micro style),
* :mod:`repro.hardware.quantize` — int8 post-training quantization.
"""

from repro._lazy import lazy_exports as _lazy_exports

#: Public names by defining submodule, imported on first access (PEP 562):
#: the LUT estimator loads without the int8 simulator, the graph
#: rewrites or the alternative latency models.
_EXPORTS = {
    "device": ("MCUDevice", "NUCLEO_F746ZG", "NUCLEO_F411RE", "NUCLEO_H743ZI",
               "NUCLEO_L432KC", "RP2040_PICO", "get_device", "known_devices",
               "register_device"),
    "costmodel": ("CycleCostModel",),
    "layers": ("LayerOp", "network_layers"),
    "profiler": ("LatencyLUT", "OnDeviceProfiler"),
    "latency": ("LatencyEstimator", "measure_ground_truth_ms"),
    "latency_models": ("FlopsProportionalModel", "LinearFeatureModel",
                       "LUTModel", "ModelAccuracy", "compare_models"),
    "memory": ("MemoryEstimator", "MemoryReport"),
    "deploy": ("DeploymentReport", "deployment_report"),
    "energy": ("EnergyEstimator", "EnergyReport", "PowerProfile",
               "power_profile"),
    "graphopt": ("OptimizationStats", "optimization_stats",
                 "optimized_network_layers"),
    "int8_infer": ("ActivationObserver", "Int8InferenceReport",
                   "StaticQuantizedModel", "calibrate",
                   "int8_inference_report", "simulate_int8_inference"),
    "memplan": ("ArenaReport", "BufferLifetime", "MemoryPlan", "arena_report",
                "liveness_lower_bound", "plan_memory", "tensor_lifetimes"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
