"""Cost models: how the engine reads every cost axis.

A :class:`CostModel` is a named, fingerprinted ``estimate(genotype)``
that the engine caches canonically.  The two axes every indicator row
carries, ``latency`` and ``flops``, live here, so the engine prices them
without loading the registry of further axes (:mod:`repro.search.costs`).

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
  double-count lookups (``Engine._cost_canonical``, the one lookup every
  axis is read through).
"""

from __future__ import annotations

from dataclasses import astuple
from functools import cached_property
from typing import Tuple

from repro.proxies.flops import count_flops
from repro.searchspace.genotype import Genotype
from repro.searchspace.specs import MacroConfig


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
    """A :class:`~repro.hardware.latency.LatencyEstimator`'s LUT latency
    (float32 or int8 kernels) as a cost axis, keyed as the estimator's own
    memo, ``("latency", index, device, precision, macro)``."""

    def __init__(self, estimator, name: str = "latency") -> None:
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
    """Deployment FLOPs as a cost axis (device-independent), keyed
    ``("flops", index, macro)``, the ``flops`` key of
    :func:`~repro.engine.core.genotype_indicator_keys`.  The only place
    FLOPs are counted: pool workers compute the proxy rows alone.
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
