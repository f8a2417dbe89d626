"""The batched trainless-evaluation engine (layers 2 and 3).

:class:`Engine` is the single path through which search algorithms obtain
indicator values.  It owns

* the **canonicalization-aware cache** — indicators are properties of the
  canonical cell function, so every value is computed on (and keyed by)
  ``canonicalize(genotype)``; see :mod:`repro.engine` for the key contract,
* the **vectorized proxy kernels** — genotype evaluations dispatch to the
  batched NTK / line-counting paths via ``ProxyConfig.ntk_mode``/``lr_mode``,
* the **population API** — :meth:`evaluate_population` deduplicates a
  population by canonical form, evaluates only the unique survivors and
  returns an :class:`~repro.engine.table.IndicatorTable` in request order.

Latency estimators are built lazily per macro configuration and share the
engine's cache (the per-estimator memo that used to live in
``hardware/latency.py`` now writes the same keys).

Precision: proxies scope themselves under
``ProxyConfig.precision_policy()`` (forward/backward in the compute
dtype, eigensolves promoted to the accumulate dtype — see
:mod:`repro.engine.kernels`), and ``precision`` rides in
``astuple(proxy_config)``, i.e. in every cache key and store
fingerprint: float32 and float64 rows coexist without aliasing.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.cache import IndicatorCache
from repro.engine.kernels import batched_condition_numbers
from repro.engine.table import IndicatorTable
from repro.proxies.base import ProxyConfig
from repro.proxies.flops import count_flops, count_params
from repro.proxies.linear_regions import count_line_regions, supernet_line_regions
from repro.proxies.ntk import (
    ntk_condition_number,
    ntk_grams,
    supernet_ntk_condition_number,
)
from repro.searchspace.canonical import canonicalize
from repro.searchspace.cell import EdgeSpec
from repro.searchspace.genotype import Genotype
from repro.searchspace.network import MacroConfig
from repro.utils.timing import CostLedger, Timer

#: Indicator columns a full genotype evaluation produces.
INDICATOR_NAMES = ("ntk", "linear_regions", "flops", "latency")


def supernet_state_key(edge_specs: Sequence[EdgeSpec]) -> Tuple:
    """Hashable identity of a supernet state (alive-op sets in edge order).

    Exposed for composing layers (the parallel runtime builds the same
    cache keys the engine does when merging worker results back in).
    """
    return tuple(tuple(spec.alive_ops) for spec in edge_specs)


_supernet_key = supernet_state_key


class Engine:
    """Batched, cached indicator evaluation for populations of genotypes."""

    def __init__(
        self,
        proxy_config: Optional[ProxyConfig] = None,
        macro_config: Optional[MacroConfig] = None,
        latency_estimator=None,
        device=None,
        profiler=None,
        cache: Optional[IndicatorCache] = None,
        ledger: Optional[CostLedger] = None,
        lut_store=None,
        telemetry=None,
    ) -> None:
        self.proxy_config = proxy_config or ProxyConfig()
        self.macro_config = macro_config or MacroConfig.full()
        self.cache = cache if cache is not None else IndicatorCache()
        self.ledger = ledger if ledger is not None else CostLedger()
        self.lut_store = lut_store
        #: Duck-typed run telemetry (``span``/``gauge``/``count`` with an
        #: ``enabled`` flag) or ``None``.  Deliberately untyped: the
        #: engine never imports the runtime package, the runtime hands
        #: the object in — the same direction as the ``executor=`` hook.
        self.telemetry = telemetry
        self._device = device
        self._profiler = profiler
        self._latency_estimator = latency_estimator
        self._estimators: Dict[Tuple, object] = {}
        if latency_estimator is not None:
            self._estimators[astuple(latency_estimator.config)] = latency_estimator
        self._cost_models: Dict[str, object] = {}
        self._proxy_key = astuple(self.proxy_config)

    # ------------------------------------------------------------------
    # Latency estimator plumbing
    # ------------------------------------------------------------------
    @property
    def latency_estimator(self):
        """Lazily profiled estimator for the engine's deployment config."""
        if self._latency_estimator is None:
            self._latency_estimator = self._estimator_for(self.macro_config)
        return self._latency_estimator

    @property
    def built_latency_estimator(self):
        """The estimator if one already exists, else None.

        The public seam for composing layers (constraint checkers,
        search loops) that want to *reuse* an existing estimator without
        triggering device profiling.
        """
        return self._latency_estimator

    def device(self):
        """The MCU this engine prices latency for (resolved lazily)."""
        if self._device is not None:
            return self._device
        if self._latency_estimator is not None:
            return self._latency_estimator.device
        from repro.hardware.device import NUCLEO_F746ZG

        return NUCLEO_F746ZG  # what _estimator_for would default to

    def for_device(self, device, profiler=None) -> "Engine":
        """This engine if it already prices ``device``, else a sibling.

        The sibling shares the cache and ledger (latency keys embed the
        device name, so entries never alias) but builds its own estimators
        — callers like :class:`~repro.search.macro.MacroStageSearch` must
        never silently receive another board's latencies.
        """
        if self.device().name == device.name:
            return self
        return Engine(
            proxy_config=self.proxy_config,
            macro_config=self.macro_config,
            device=device,
            profiler=profiler,
            cache=self.cache,
            ledger=self.ledger,
            lut_store=self.lut_store,
            telemetry=self.telemetry,
        )

    def _estimator_for(self, config: MacroConfig):
        """One shared LUT estimator per macro configuration.

        Estimators built here write into the engine's own cache, folding
        the old per-estimator latency memo into the canonical one.
        """
        key = astuple(config)
        if key not in self._estimators:
            from repro.hardware.latency import LatencyEstimator

            kwargs = {"config": config, "cache": self.cache}
            if self.lut_store is not None:
                kwargs["lut_store"] = self.lut_store
            device = self._device
            profiler = self._profiler
            if self._latency_estimator is not None:
                device = device or self._latency_estimator.device
                profiler = profiler or self._latency_estimator.profiler
            if device is not None:
                kwargs["device"] = device
            if profiler is not None:
                kwargs["profiler"] = profiler
            self._estimators[key] = LatencyEstimator(**kwargs)
        return self._estimators[key]

    # ------------------------------------------------------------------
    # Single-indicator accessors (all canonicalization-aware and cached)
    # ------------------------------------------------------------------
    def ntk(self, genotype: Genotype, k_index: int = 1) -> float:
        """Cached NTK condition number of the canonical form."""
        canon = canonicalize(genotype)
        key = ("ntk", canon.to_index(), k_index, self._proxy_key)

        def compute() -> float:
            with Timer() as timer:
                value = ntk_condition_number(canon, self.proxy_config,
                                             k_index=k_index)
            self.ledger.add("ntk_eval", timer.elapsed)
            return value

        return self._lookup(key, compute, "ntk")

    def linear_regions(self, genotype: Genotype) -> float:
        """Cached linear-region count of the canonical form."""
        canon = canonicalize(genotype)
        key = ("linear_regions", canon.to_index(), self._proxy_key)

        def compute() -> float:
            with Timer() as timer:
                value = count_line_regions(canon, self.proxy_config)
            self.ledger.add("lr_eval", timer.elapsed)
            return value

        return self._lookup(key, compute, "lr")

    def flops(self, genotype: Genotype,
              config: Optional[MacroConfig] = None) -> float:
        """Cached deployment FLOPs of the canonical form."""
        config = config or self.macro_config
        canon = canonicalize(genotype)
        key = ("flops", canon.to_index(), astuple(config))
        return self._lookup(key, lambda: float(count_flops(canon, config)),
                            "flops")

    def params(self, genotype: Genotype,
               config: Optional[MacroConfig] = None) -> int:
        """Cached learnable-parameter count of the canonical form."""
        config = config or self.macro_config
        canon = canonicalize(genotype)
        key = ("params", canon.to_index(), astuple(config))
        return self._lookup(key, lambda: count_params(canon, config), "params")

    def latency_ms(self, genotype: Genotype,
                   config: Optional[MacroConfig] = None) -> float:
        """Cached LUT latency of the canonical form (what a deployment
        runtime that elides dead edges would actually pay).

        Note the asymmetry with :meth:`LatencyEstimator.estimate_ms` and
        :class:`~repro.search.constraints.ConstraintChecker`, which price
        genotypes *as given* (dead edges billed, matching the on-board
        ground truth) — see the cache-key contract in :mod:`repro.engine`.
        """
        estimator = (self.latency_estimator if config is None
                     else self._estimator_for(config))
        canon = canonicalize(genotype)
        key = ("latency", canon.to_index(), estimator.device.name,
               estimator.precision, astuple(estimator.config))
        if estimator.cache is self.cache:
            # The estimator memoizes under the identical key in the same
            # cache; a second engine-side lookup would double-count misses.
            hit = key in self.cache
            with Timer() as timer:
                value = estimator.estimate_ms(canon)
            if hit:
                self.ledger.add("latency_cache_hit", count=1)
            else:
                self.ledger.add("latency_eval", timer.elapsed)
            return value

        def compute() -> float:
            with Timer() as timer:
                value = estimator.estimate_ms(canon)
            self.ledger.add("latency_eval", timer.elapsed)
            return value

        return self._lookup(key, compute, "latency")

    # ------------------------------------------------------------------
    # Pluggable cost models (registered hardware axes)
    # ------------------------------------------------------------------
    def cost_model(self, name: str):
        """The registered :class:`~repro.search.costs.CostModel` for one
        axis, built once per engine against this engine's device, macro
        configuration, cache and LUT store.

        ``latency``/``flops`` resolve to adapters over the engine's own
        estimator/counter, so their rows are shared with the legacy
        indicator columns bit-for-bit.
        """
        if name not in self._cost_models:
            from repro.search.costs import build_cost_model

            self._cost_models[name] = build_cost_model(
                name,
                device=self.device(),
                macro_config=self.macro_config,
                cache=self.cache,
                lut_store=self.lut_store,
                latency_estimator=(self.latency_estimator
                                   if name in ("latency", "energy")
                                   else None),
            )
        return self._cost_models[name]

    def cost(self, genotype: Genotype, model) -> float:
        """Cached value of one cost axis for the canonical form.

        ``model`` is a :class:`~repro.search.costs.CostModel` or a
        registered axis name.  Same caching contract as the indicator
        accessors: keyed by the model's fingerprint, so values never
        alias across devices, kernel precisions or macro configurations.
        """
        if isinstance(model, str):
            model = self.cost_model(model)
        return self._cost_canonical(canonicalize(genotype), model)

    def _cost_canonical(self, canon: Genotype, model) -> float:
        key = model.cache_key(canon.to_index())
        tag = f"cost[{model.name}]"
        if model.cache is self.cache:
            # The model memoizes under the identical key in the same
            # cache (estimator-backed axes); a second engine-side lookup
            # would double-count misses — same pattern as latency_ms.
            hit = key in self.cache
            with Timer() as timer:
                value = float(model.estimate(canon))
            if hit:
                self.ledger.add(f"{tag}_cache_hit", count=1)
            else:
                self.ledger.add(f"{tag}_eval", timer.elapsed)
            return value

        def compute() -> float:
            with Timer() as timer:
                value = float(model.estimate(canon))
            self.ledger.add(f"{tag}_eval", timer.elapsed)
            return value

        return self._lookup(key, compute, tag)

    def _lookup(self, key, compute, tag: str):
        before = self.cache.hits
        value = self.cache.lookup(key, compute)
        if self.cache.hits > before:
            self.ledger.add(f"{tag}_cache_hit", count=1)
        return value

    def merge_indicator_rows(self, keyed_rows: Sequence[Tuple[Tuple, float]]
                             ) -> int:
        """Merge externally computed indicator rows into the cache.

        The incremental seam for the parallel/async runtimes: executors
        hand back ``(cache_key, value)`` pairs — in any completion order,
        possibly containing keys another chunk (or the serial path) already
        landed — and this method folds them in under first-write-wins.
        Rows that do land are counted as cache *misses* (they were
        genuinely computed, not found); rows already present are dropped,
        so duplicate or re-ordered chunks can never change a served value.
        Returns the number of rows merged.
        """
        merged = 0
        for key, value in keyed_rows:
            if key not in self.cache:
                self.cache.misses += 1  # computed externally, not found
                self.cache.put(key, value)
                merged += 1
        return merged

    # ------------------------------------------------------------------
    # Genotype evaluation
    # ------------------------------------------------------------------
    def evaluate(self, genotype: Genotype,
                 with_latency: bool = False) -> Dict[str, float]:
        """All four indicator values for one architecture.

        ``latency`` is reported as 0.0 unless requested — profiling a
        device is only worth paying for when the objective weights it.
        """
        return {
            "ntk": self.ntk(genotype),
            "linear_regions": self.linear_regions(genotype),
            "flops": self.flops(genotype),
            "latency": self.latency_ms(genotype) if with_latency else 0.0,
        }

    def ntk_population(self, genotypes: Sequence[Genotype],
                       k_index: int = 1) -> None:
        """Warm the NTK cache for a population with ONE stacked eigensolve.

        All missing unique canonical forms have their Gram matrices
        computed, stacked into an ``(N·repeats, B, B)`` array and
        eigendecomposed in a single ``np.linalg.eigvalsh`` gufunc dispatch
        (bit-identical per matrix to the per-candidate path — see
        :func:`repro.engine.kernels.batched_eigvalsh`).  Subsequent
        :meth:`ntk` calls resolve from the cache.
        """
        self._warm_ntk_canonical([canonicalize(g) for g in genotypes],
                                 k_index=k_index)

    def _warm_ntk_canonical(self, canons: Sequence[Genotype],
                            k_index: int = 1) -> None:
        """:meth:`ntk_population` for already-canonical genotypes."""
        missing: Dict[Tuple, Genotype] = {}
        for canon in canons:
            key = ("ntk", canon.to_index(), k_index, self._proxy_key)
            if key not in self.cache and key not in missing:
                missing[key] = canon
        if not missing:
            return
        grams: List[np.ndarray] = []
        spans: List[int] = []
        policy = self.proxy_config.precision_policy()
        with Timer() as timer:
            for canon in missing.values():
                candidate_grams = ntk_grams(canon, self.proxy_config)
                spans.append(len(candidate_grams))
                grams.extend(candidate_grams)
            # Grams were computed at the policy's compute dtype; the
            # stacked eigensolve promotes to its accumulate dtype, exactly
            # like the per-candidate path (see kernels.batched_eigvalsh).
            values = batched_condition_numbers(
                np.stack(grams), k_index=k_index,
                accumulate_dtype=policy.accumulate_dtype)
        self.ledger.add("ntk_eval", timer.elapsed, count=len(missing))
        offset = 0
        for key, span in zip(missing, spans):
            self.cache.misses += 1  # computed here, not via lookup()
            self.cache.put(key, float(np.mean(values[offset:offset + span])))
            offset += span

    def evaluate_population(
        self,
        genotypes: Sequence[Genotype],
        with_latency: bool = False,
        executor=None,
        cost_models: Optional[Sequence] = None,
    ) -> IndicatorTable:
        """Indicator table for a population, deduplicated canonically.

        Rows come back in request order (duplicates included); each unique
        canonical form is evaluated at most once, and repeat populations
        hit the cache outright.

        ``executor`` is the composition seam for the parallel runtime: any
        object with a ``warm_population(engine, genotypes, with_latency=...)``
        method (e.g. :class:`~repro.runtime.async_pool.\
AsyncPopulationExecutor`) may pre-compute missing indicator rows — in
        worker processes, from a persisted store, in any completion order —
        and merge them into :attr:`cache` before the serial pass below
        assembles the table.
        The hook receives the population's *canonical* forms (computed
        once below), so executors need not re-canonicalize.
        Because assembly always happens here, in request order against the
        shared cache, the resulting table is identical no matter how (or
        whether) an executor warmed it.

        ``cost_models`` optionally appends one column per registered
        :class:`~repro.search.costs.CostModel` (by ``model.name``), each
        computed once per unique canonical form via :meth:`cost` — these
        are driver-side, LUT-mediated axes, so executors stay oblivious
        to them.  Omitted (the default), the table is bit-identical to
        the pre-registry four-column layout.
        """
        genotypes = list(genotypes)
        tel = self.telemetry
        if tel is None or not tel.enabled:
            return self._evaluate_population_impl(genotypes, with_latency,
                                                  executor, cost_models)
        with tel.span("evaluate_population", "engine",
                      candidates=len(genotypes)) as span:
            table = self._evaluate_population_impl(genotypes, with_latency,
                                                   executor, cost_models)
            span.note(unique=table.unique_canonical,
                      cache_hits=table.cache_hits,
                      cache_misses=table.cache_misses)
            stats = self.cache.stats
            tel.gauge("cache.hit_rate", stats.hit_rate)
            tel.gauge("cache.entries", stats.entries)
            return table

    def _evaluate_population_impl(
        self,
        genotypes: Sequence[Genotype],
        with_latency: bool = False,
        executor=None,
        cost_models: Optional[Sequence] = None,
    ) -> IndicatorTable:
        genotypes = list(genotypes)
        # One canonicalization pass serves the executor hook, the stacked
        # eigensolve and the dedupe below (canonicalize builds a cell
        # graph per call — repeating it would dominate the warm path).
        canons = [canonicalize(g) for g in genotypes]
        hits0, misses0 = self.cache.counters()
        if executor is not None:
            executor.warm_population(self, canons, with_latency=with_latency)
        # Whatever κ values are still missing get one stacked eigensolve.
        self._warm_ntk_canonical(canons)
        unique_rows: Dict[int, Dict[str, float]] = {}
        unique_canons: Dict[int, Genotype] = {}
        canon_indices: List[int] = []
        for genotype, canon in zip(genotypes, canons):
            index = canon.to_index()
            canon_indices.append(index)
            if index not in unique_rows:
                unique_rows[index] = self.evaluate(genotype,
                                                   with_latency=with_latency)
                unique_canons[index] = canon
        for model in cost_models or ():
            for index, canon in unique_canons.items():
                unique_rows[index][model.name] = self._cost_canonical(canon,
                                                                      model)
        hits1, misses1 = self.cache.counters()
        column_names = list(INDICATOR_NAMES)
        column_names += [model.name for model in cost_models or ()]
        columns = {
            name: np.array([unique_rows[idx][name] for idx in canon_indices],
                           dtype=float)
            for name in column_names
        }
        return IndicatorTable(
            genotypes=genotypes,
            columns=columns,
            cache_hits=hits1 - hits0,
            cache_misses=misses1 - misses0,
            unique_canonical=len(unique_rows),
        )

    # ------------------------------------------------------------------
    # Supernet states (the pruning search's comparison unit)
    # ------------------------------------------------------------------
    def supernet_ntk(self, edge_specs: Sequence[EdgeSpec]) -> float:
        """Cached NTK condition number of a pruning-supernet state."""
        key = ("supernet_ntk", _supernet_key(edge_specs), self._proxy_key)

        def compute() -> float:
            with Timer() as timer:
                value = supernet_ntk_condition_number(edge_specs,
                                                      self.proxy_config)
            self.ledger.add("ntk_eval", timer.elapsed)
            return value

        return self._lookup(key, compute, "ntk")

    def supernet_linear_regions(self, edge_specs: Sequence[EdgeSpec]) -> float:
        """Cached line-region count of a pruning-supernet state."""
        key = ("supernet_lr", _supernet_key(edge_specs), self._proxy_key)

        def compute() -> float:
            edge_op_sets = [spec.alive_ops for spec in edge_specs]
            with Timer() as timer:
                value = supernet_line_regions(edge_op_sets, self.proxy_config)
            self.ledger.add("lr_eval", timer.elapsed)
            return value

        return self._lookup(key, compute, "lr")
