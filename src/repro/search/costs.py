"""Pluggable hardware cost models: deployment axes as search objectives.

The paper's hybrid objective hardcodes four indicators (κ_NTK, linear
regions, FLOPs, latency), yet the hardware package already models more
of what an edge deployment pays — energy per inference
(:mod:`repro.hardware.energy`), peak tensor-arena SRAM
(:mod:`repro.hardware.memplan`), and int8 kernel latency
(:class:`~repro.hardware.latency.LatencyEstimator` with
``precision="int8"``).  This module turns each of those into a
:class:`CostModel`: a named, fingerprinted ``estimate(genotype)`` that
the engine caches canonically, :class:`~repro.search.objective.ObjectiveWeights`
can weight, and :class:`~repro.search.pareto.ParetoZeroShotSearch` /
the runtime's device-matrix mode can use as a Pareto axis.

Built-in axes: ``latency`` and ``flops`` (defined, with the
:class:`CostModel` contract, in :mod:`repro.engine.costs`: the engine's
indicator columns read them), ``energy`` (mJ/inference), ``peak-mem``
(planned arena bytes), and ``int8-latency`` (quantized kernels, backed by
the :data:`INT8_DEPLOY` precision entry).  New axes register with
:func:`register_cost_model`.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.engine.costs import CostModel, FlopsCostModel, LatencyCostModel
from repro.errors import SearchError
from repro.hardware.costmodel import PRECISIONS
from repro.hardware.energy import EnergyEstimator
from repro.hardware.latency import LatencyEstimator
from repro.hardware.memplan import PLANNING_STRATEGIES, plan_memory, tensor_lifetimes
from repro.searchspace.genotype import Genotype
from repro.searchspace.specs import MacroConfig


# ----------------------------------------------------------------------
# Deployment precision entries (PrecisionPolicy-style, for kernels)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeployPrecision:
    """A named deployment kernel precision (the on-device analogue of
    :class:`repro.autograd.precision.PrecisionPolicy`, which governs
    *proxy* arithmetic — this one governs what the board runs)."""

    name: str
    kernel_precision: str

    def __post_init__(self) -> None:
        if self.kernel_precision not in PRECISIONS:
            raise SearchError(
                f"unknown kernel precision {self.kernel_precision!r}; "
                f"choose from {PRECISIONS}")


FLOAT32_DEPLOY = DeployPrecision(name="float32", kernel_precision="float32")
INT8_DEPLOY = DeployPrecision(name="int8", kernel_precision="int8")

#: Registered deployment precisions by name.
DEPLOY_PRECISIONS: Dict[str, DeployPrecision] = {
    policy.name: policy for policy in (FLOAT32_DEPLOY, INT8_DEPLOY)
}


def resolve_deploy_precision(name: str) -> DeployPrecision:
    """Look up a deployment precision entry by name."""
    try:
        return DEPLOY_PRECISIONS[name]
    except KeyError:
        raise SearchError(
            f"unknown deploy precision {name!r}; choose from "
            f"{sorted(DEPLOY_PRECISIONS)}") from None


class EnergyCostModel(CostModel):
    """Energy per inference (mJ) — active power × latency + wake cost.

    A monotone transform of latency *per device*, but ranks differently
    across devices (a faster core at higher power can lose on energy),
    which is exactly why it is a separate axis in the device matrix.
    """

    name = "energy"

    def __init__(self, estimator: EnergyEstimator) -> None:
        self.energy = estimator

    def estimate(self, genotype: Genotype) -> float:
        return float(self.energy.energy_per_inference_mj(genotype))

    def fingerprint(self) -> Tuple:
        profile = self.energy.profile
        latency = self.energy.estimator
        return (self.energy.device.name, latency.precision,
                profile.active_mw, profile.sleep_mw, profile.wake_uj,
                astuple(latency.config))


class PeakMemoryCostModel(CostModel):
    """Peak tensor-arena SRAM (bytes) under a planning strategy."""

    name = "peak-mem"

    def __init__(self, config: MacroConfig, element_bytes: int = 4,
                 strategy: str = "greedy_by_size") -> None:
        if strategy not in PLANNING_STRATEGIES:
            raise SearchError(
                f"unknown planning strategy {strategy!r}; choose from "
                f"{PLANNING_STRATEGIES}")
        self.config = config
        self.element_bytes = element_bytes
        self.strategy = strategy

    def estimate(self, genotype: Genotype) -> float:
        lifetimes = tensor_lifetimes(genotype, self.config,
                                     element_bytes=self.element_bytes)
        return float(plan_memory(lifetimes, self.strategy).arena_bytes)

    def fingerprint(self) -> Tuple:
        return (self.strategy, self.element_bytes, astuple(self.config))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: name -> builder(device=..., macro_config=..., cache=..., lut_store=...,
#: latency_estimator=...) -> CostModel.  ``latency_estimator`` is an
#: optional already-built float32 estimator builders may reuse instead of
#: profiling a fresh one (the engine passes its own).
_COST_MODEL_BUILDERS: Dict[str, Callable[..., CostModel]] = {}


def register_cost_model(name: str):
    """Decorator registering a cost-model builder under ``name``."""

    def decorate(builder: Callable[..., CostModel]):
        if name in _COST_MODEL_BUILDERS:
            raise SearchError(f"cost model {name!r} is already registered")
        _COST_MODEL_BUILDERS[name] = builder
        return builder

    return decorate


def registered_cost_models() -> Tuple[str, ...]:
    """All registered cost-axis names, sorted."""
    return tuple(sorted(_COST_MODEL_BUILDERS))


def build_cost_model(
    name: str,
    device,
    macro_config: MacroConfig,
    cache=None,
    lut_store=None,
    latency_estimator: Optional[LatencyEstimator] = None,
) -> CostModel:
    """Instantiate a registered cost model for one (device, macro) pair.

    ``cache``/``lut_store`` are threaded into estimator-backed models so
    their rows and LUTs land in (and warm from) the caller's cache and
    :class:`~repro.runtime.store.RuntimeStore`; ``latency_estimator``
    lets the caller share an already-profiled float32 estimator.
    """
    try:
        builder = _COST_MODEL_BUILDERS[name]
    except KeyError:
        raise SearchError(
            f"unknown cost model {name!r}; registered: "
            f"{sorted(_COST_MODEL_BUILDERS)}") from None
    return builder(device=device, macro_config=macro_config, cache=cache,
                   lut_store=lut_store, latency_estimator=latency_estimator)


def _shared_or_new_estimator(device, macro_config, cache, lut_store,
                             latency_estimator, precision: str
                             ) -> LatencyEstimator:
    """Reuse the caller's estimator when it matches, else build one."""
    if (latency_estimator is not None
            and latency_estimator.precision == precision
            and latency_estimator.device.name == device.name
            and astuple(latency_estimator.config) == astuple(macro_config)):
        return latency_estimator
    kwargs = {"device": device, "config": macro_config,
              "precision": precision}
    if cache is not None:
        kwargs["cache"] = cache
    if lut_store is not None:
        kwargs["lut_store"] = lut_store
    return LatencyEstimator(**kwargs)


@register_cost_model("latency")
def _build_latency(device, macro_config, cache=None, lut_store=None,
                   latency_estimator=None) -> CostModel:
    estimator = _shared_or_new_estimator(
        device, macro_config, cache, lut_store, latency_estimator,
        FLOAT32_DEPLOY.kernel_precision)
    return LatencyCostModel(estimator)


@register_cost_model("int8-latency")
def _build_int8_latency(device, macro_config, cache=None, lut_store=None,
                        latency_estimator=None) -> CostModel:
    estimator = _shared_or_new_estimator(
        device, macro_config, cache, lut_store, latency_estimator,
        INT8_DEPLOY.kernel_precision)
    return LatencyCostModel(estimator, name="int8-latency")


@register_cost_model("energy")
def _build_energy(device, macro_config, cache=None, lut_store=None,
                  latency_estimator=None) -> CostModel:
    estimator = _shared_or_new_estimator(
        device, macro_config, cache, lut_store, latency_estimator,
        FLOAT32_DEPLOY.kernel_precision)
    return EnergyCostModel(EnergyEstimator(device, estimator=estimator))


@register_cost_model("flops")
def _build_flops(device, macro_config, cache=None, lut_store=None,
                 latency_estimator=None) -> CostModel:
    return FlopsCostModel(macro_config)


@register_cost_model("peak-mem")
def _build_peak_mem(device, macro_config, cache=None, lut_store=None,
                    latency_estimator=None) -> CostModel:
    return PeakMemoryCostModel(macro_config)


__all__ = [
    "CostModel",
    "DeployPrecision",
    "DEPLOY_PRECISIONS",
    "EnergyCostModel",
    "FLOAT32_DEPLOY",
    "FlopsCostModel",
    "INT8_DEPLOY",
    "LatencyCostModel",
    "PeakMemoryCostModel",
    "build_cost_model",
    "register_cost_model",
    "registered_cost_models",
    "resolve_deploy_precision",
]
