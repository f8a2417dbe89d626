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

Contract:

* ``name`` — the registry key and the indicator-column name the axis
  appears under in tables, weights and fronts;
* ``estimate(genotype) -> float`` — the raw cost (lower is always
  better; quality indicators stay the objective layer's business);
* ``fingerprint() -> tuple`` — hashable identity of everything the value
  depends on *besides* the genotype (device name, kernel precision,
  power figures, macro configuration...).  It is folded into cache keys
  so rows never alias across devices, precisions or objective sets.
  Everything it reads is fixed at construction, so ``cache_key`` calls
  it once per model and reuses the tuple;
* ``cache`` — optionally, the :class:`~repro.engine.cache.IndicatorCache`
  the model itself memoizes into.  Estimator-backed models set it so the
  engine can detect "model and engine share one cache" and not
  double-count lookups (same pattern as ``Engine.latency_ms``).

Built-in axes: ``latency`` (float32 LUT latency — shares the legacy
``("latency", ...)`` key layout, so existing caches and stores warm it),
``flops``, ``energy`` (mJ/inference), ``peak-mem`` (planned arena bytes),
and ``int8-latency`` (quantized kernels, backed by the
:data:`INT8_DEPLOY` precision entry).  New axes register with
:func:`register_cost_model`.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import cached_property
from typing import Callable, Dict, Optional, Tuple

from repro.errors import SearchError
from repro.hardware.costmodel import PRECISIONS
from repro.hardware.energy import EnergyEstimator
from repro.hardware.latency import LatencyEstimator
from repro.hardware.memplan import PLANNING_STRATEGIES, plan_memory, tensor_lifetimes
from repro.proxies.flops import count_flops
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


# ----------------------------------------------------------------------
# The CostModel protocol
# ----------------------------------------------------------------------
class CostModel:
    """Base class for pluggable cost axes (see module docstring)."""

    #: Registry key / indicator-column name.
    name: str = ""
    #: Cache the model itself memoizes into, or None.  See module
    #: docstring — the engine uses identity with its own cache to avoid
    #: double-counting hits/misses for estimator-backed models.
    cache = None

    def estimate(self, genotype: Genotype) -> float:
        """Raw cost of one architecture (lower is better)."""
        raise NotImplementedError

    def fingerprint(self) -> Tuple:
        """Hashable identity of everything the value depends on besides
        the genotype."""
        raise NotImplementedError

    @cached_property
    def _key_suffix(self) -> Tuple:
        """:meth:`fingerprint`, computed on first use and kept."""
        return self.fingerprint()

    def cache_key(self, canon_index: int) -> Tuple:
        """Engine cache key for the canonical form with this index."""
        return ("cost", self.name, canon_index) + self._key_suffix


class LatencyCostModel(CostModel):
    """LUT-composition latency as a cost axis (float32 or int8 kernels).

    Deliberately reuses the estimator's own memo layout
    ``("latency", index, device, precision, macro)`` so the axis shares
    rows with the legacy latency indicator — a store written by a plain
    latency-weighted run warms this axis for free, and vice versa.
    """

    def __init__(self, estimator: LatencyEstimator,
                 name: str = "latency") -> None:
        self.name = name
        self.estimator = estimator
        self.cache = estimator.cache

    def estimate(self, genotype: Genotype) -> float:
        return float(self.estimator.estimate_ms(genotype))

    def fingerprint(self) -> Tuple:
        return (self.estimator.device.name, self.estimator.precision,
                astuple(self.estimator.config))

    def cache_key(self, canon_index: int) -> Tuple:
        return ("latency", canon_index) + self._key_suffix


class FlopsCostModel(CostModel):
    """Deployment FLOPs as a cost axis (device-independent).

    Shares the legacy ``("flops", index, macro)`` key layout with
    :meth:`Engine.flops`.
    """

    name = "flops"

    def __init__(self, config: MacroConfig) -> None:
        self.config = config

    def estimate(self, genotype: Genotype) -> float:
        return float(count_flops(genotype, self.config))

    def fingerprint(self) -> Tuple:
        return (astuple(self.config),)

    def cache_key(self, canon_index: int) -> Tuple:
        return ("flops", canon_index) + self._key_suffix


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
