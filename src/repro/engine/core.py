"""The batched trainless-evaluation engine (layers 2 and 3).

:class:`Engine` is the single path through which search algorithms obtain
indicator values.  It owns

* the **canonicalization-aware cache** — indicators are properties of the
  canonical cell function, so every value is computed on (and keyed by)
  ``canonicalize(genotype)``; see :mod:`repro.engine` for the key contract,
* the **executor** — every NTK and line-region row, for genotypes and for
  pruning-supernet states, is computed by the chunk workers of one
  :class:`~repro.runtime.async_pool.AsyncPopulationExecutor`, set once
  as ``Engine(executor=...)`` (a run harness hands in its own) or built
  serial on the first miss.  A miss on any accessor asks the executor to
  compute and merge the row, then reads it from the cache,
* the **population API** — :meth:`evaluate_population` deduplicates a
  population by canonical form, has the executor compute only the unique
  missing rows and returns an
  :class:`~repro.engine.table.IndicatorTable` in request order.

FLOPs, parameter counts, LUT latencies and registered cost axes stay
driver-side: they are closed-form or LUT lookups.  FLOPs and latency are
read as the ``flops`` and ``latency`` cost models
(:mod:`repro.engine.costs`), through the same cached lookup as every
other axis (:meth:`Engine.cost_model`).  Latency
estimators are built lazily per macro configuration and share the
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
from repro.engine.costs import FlopsCostModel, LatencyCostModel
from repro.engine.table import IndicatorTable
from repro.errors import HardwareModelError, ProxyError
from repro.proxies.base import ProxyConfig
from repro.proxies.flops import count_params
from repro.searchspace.canonical import canonicalize
from repro.searchspace.genotype import Genotype
from repro.searchspace.specs import EdgeSpec, MacroConfig
from repro.utils.timing import CostLedger, Timer

#: Indicator columns a full genotype evaluation produces.
INDICATOR_NAMES = ("ntk", "linear_regions", "flops", "latency")


def supernet_state_key(edge_specs: Sequence[EdgeSpec]) -> Tuple:
    """Hashable identity of a supernet state (alive-op sets in edge order)."""
    return tuple(tuple(spec.alive_ops) for spec in edge_specs)


def genotype_indicator_keys(index: int, proxy_key: Tuple,
                            macro_key: Tuple) -> Dict[str, Tuple]:
    """The cache keys of one canonical genotype's trainless rows, by
    indicator.

    The one key contract: the engine reads, and the executor merges
    worker rows, under exactly these tuples (the ``1`` is κ's eigenvalue
    index, part of every persisted NTK key).  Workers compute the two
    proxy rows; the ``flops`` row is the ``flops`` cost model's, priced in
    the driver under this same key.
    """
    return {
        "ntk": ("ntk", index, 1, proxy_key),
        "linear_regions": ("linear_regions", index, proxy_key),
        "flops": ("flops", index, macro_key),
    }


def supernet_indicator_keys(state: Tuple, proxy_key: Tuple) -> Dict[str, Tuple]:
    """The cache keys of one supernet state's worker rows, by indicator."""
    return {
        "supernet_ntk": ("supernet_ntk", state, proxy_key),
        "supernet_lr": ("supernet_lr", state, proxy_key),
    }


class Engine:
    """Batched, cached indicator evaluation for populations of genotypes.

    One macro configuration prices every hardware axis.  A given
    ``latency_estimator`` brings its own; a ``macro_config`` passed with
    it must be the same one.
    """

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
        executor=None,
    ) -> None:
        self.proxy_config = proxy_config or ProxyConfig()
        if latency_estimator is not None:
            # One macro configuration prices every axis: the estimator's.
            if macro_config is None:
                macro_config = latency_estimator.config
            elif macro_config != latency_estimator.config:
                raise HardwareModelError(
                    f"macro_config {macro_config} differs from the latency "
                    f"estimator's {latency_estimator.config}")
        self.macro_config = macro_config or MacroConfig.full()
        self.cache = cache if cache is not None else IndicatorCache()
        self.ledger = ledger if ledger is not None else CostLedger()
        self.lut_store = lut_store
        #: Run telemetry (``span``/``gauge``/``count`` with an
        #: ``enabled`` flag) or ``None``.  Untyped so that importing the
        #: engine never loads :mod:`repro.runtime`: the runtime hands the
        #: object in, as it hands in the executor.
        self.telemetry = telemetry
        self._executor = executor
        self._device = device
        self._profiler = profiler
        self._latency_estimator = latency_estimator
        self._estimators: Dict[Tuple, object] = {}
        if latency_estimator is not None:
            self._estimators[astuple(latency_estimator.config)] = latency_estimator
        self._cost_models: Dict[str, object] = {}
        self._proxy_key = astuple(self.proxy_config)
        self._macro_key = astuple(self.macro_config)

    @property
    def executor(self):
        """The :class:`~repro.runtime.async_pool.AsyncPopulationExecutor`
        that computes every proxy row of this engine.

        Built on first use as a serial executor when none was given; the
        runtime is imported only then, so ``import repro.engine`` does
        not load it.
        """
        if self._executor is None:
            from repro.runtime.async_pool import AsyncPopulationExecutor

            self._executor = AsyncPopulationExecutor(
                n_workers=1, telemetry=self.telemetry)
        return self._executor

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

        The sibling shares the cache, ledger and executor (latency keys
        embed the device name, so entries never alias) but builds its own
        estimators
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
            executor=self.executor,
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
    def proxy_row_keys(self, kind: str, identity) -> Dict[str, Tuple]:
        """The cache keys of one candidate's proxy rows (the rows the
        executor's chunk workers compute), by row name, in the order of
        a chunk item's need mask.

        ``kind`` is ``"genotype"``, with a canonical index as
        ``identity``, or ``"supernet"``, with a :func:`supernet_state_key`.
        The one place a proxy row's key takes in the engine's
        configuration: the accessors read, and the executor claims and
        merges, under these tuples.
        """
        if kind == "genotype":
            keys = genotype_indicator_keys(identity, self._proxy_key,
                                           self._macro_key)
            return {"ntk": keys["ntk"],
                    "linear_regions": keys["linear_regions"]}
        return supernet_indicator_keys(identity, self._proxy_key)

    def ntk(self, genotype: Genotype) -> float:
        """Cached NTK condition number of the canonical form."""
        canon = canonicalize(genotype)
        key = self.proxy_row_keys("genotype", canon.to_index())["ntk"]
        return self._proxy_row(
            key, "ntk", lambda: self.executor.warm_population(self, [canon]))

    def linear_regions(self, genotype: Genotype) -> float:
        """Cached linear-region count of the canonical form."""
        canon = canonicalize(genotype)
        key = self.proxy_row_keys("genotype",
                                  canon.to_index())["linear_regions"]
        return self._proxy_row(
            key, "lr", lambda: self.executor.warm_population(self, [canon]))

    def flops(self, genotype: Genotype,
              config: Optional[MacroConfig] = None) -> float:
        """Cached deployment FLOPs of the canonical form (the ``flops``
        cost model for ``config``, the engine's own when omitted)."""
        return self._cost_canonical(canonicalize(genotype),
                                    self._axis_model("flops", config))

    def params(self, genotype: Genotype,
               config: Optional[MacroConfig] = None) -> int:
        """Cached learnable-parameter count of the canonical form."""
        macro_key = self._macro_key if config is None else astuple(config)
        config = config or self.macro_config
        canon = canonicalize(genotype)
        key = ("params", canon.to_index(), macro_key)
        return self._lookup(key, lambda: count_params(canon, config), "params")

    def latency_ms(self, genotype: Genotype,
                   config: Optional[MacroConfig] = None) -> float:
        """Cached LUT latency of the canonical form (what a deployment
        runtime that elides dead edges would actually pay): the
        ``latency`` cost model for ``config``, the engine's own when
        omitted, so it equals ``cost(genotype, "latency")``.

        Note the asymmetry with :meth:`LatencyEstimator.estimate_ms` and
        :class:`~repro.search.constraints.ConstraintChecker`, which price
        genotypes *as given* (dead edges billed, matching the on-board
        ground truth) — see the cache-key contract in :mod:`repro.engine`.
        """
        return self._cost_canonical(canonicalize(genotype),
                                    self._axis_model("latency", config))

    # ------------------------------------------------------------------
    # Pluggable cost models (registered hardware axes)
    # ------------------------------------------------------------------
    def cost_model(self, name: str):
        """The registered :class:`~repro.engine.costs.CostModel` for one
        axis, built once per engine against this engine's device, macro
        configuration, cache and LUT store.

        ``latency`` wraps the engine's own :attr:`latency_estimator` and
        ``flops`` counts under the engine's macro configuration, so the
        indicator columns, :meth:`latency_ms`, :meth:`flops` and the
        Pareto axes read one price each.
        """
        if name in ("latency", "flops"):
            return self._axis_model(name, None)
        if name not in self._cost_models:
            from repro.search.costs import build_cost_model

            self._cost_models[name] = build_cost_model(
                name,
                device=self.device(),
                macro_config=self.macro_config,
                cache=self.cache,
                lut_store=self.lut_store,
                latency_estimator=(self.latency_estimator
                                   if name == "energy" else None),
            )
        return self._cost_models[name]

    def _axis_model(self, name: str, config: Optional[MacroConfig]):
        """The ``latency`` or ``flops`` model under ``config`` (the
        engine's own configuration and estimator when omitted): one model
        per (axis, configuration), latency on the shared estimator."""
        key = (name, None if config is None else astuple(config))
        if key not in self._cost_models:
            if name == "latency":
                self._cost_models[key] = LatencyCostModel(
                    self.latency_estimator if config is None
                    else self._estimator_for(config))
            else:
                self._cost_models[key] = FlopsCostModel(
                    config or self.macro_config)
        return self._cost_models[key]

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
            # would double-count misses.
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

    def cost_column(self, canons: Sequence[Genotype], model) -> np.ndarray:
        """One cost axis over already-canonical forms (what
        :meth:`evaluate_population` and the device matrix price their
        unique canonical cells with).

        Every cached value is read in one bulk pass and never reaches the
        model; each counts one cache hit and one ``cost[<axis>]_cache_hit``
        ledger entry, as its own lookup would.  Only the forms not cached
        go through :meth:`_cost_canonical`, in order, so a form that comes
        twice misses once and then hits.
        """
        values, missing = self._read_cached(
            [model.cache_key(canon.to_index()) for canon in canons],
            f"cost[{model.name}]")
        for pos in missing:
            values[pos] = self._cost_canonical(canons[pos], model)
        return np.array(values, dtype=float)

    def _read_cached(self, keys: Sequence[Tuple], tag: str
                     ) -> Tuple[List, List[int]]:
        """The cached values of ``keys`` (``None`` where absent) and the
        positions of the absent ones, counted as one :meth:`_lookup` hit
        per cached key."""
        values, missing = self.cache.lookup_cached(keys)
        if len(keys) > len(missing):
            self.ledger.add(f"{tag}_cache_hit", count=len(keys) - len(missing))
        return values, missing

    def _lookup(self, key, compute, tag: str):
        before = self.cache.hits
        value = self.cache.lookup(key, compute)
        if self.cache.hits > before:
            self.ledger.add(f"{tag}_cache_hit", count=1)
        return value

    def merge_indicator_rows(self, keyed_rows: Sequence[Tuple[Tuple, float]]
                             ) -> int:
        """Merge worker-computed indicator rows into the cache.

        The seam every proxy row enters the cache through: the executor
        hands back ``(cache_key, value)`` pairs — in any completion order,
        possibly containing keys another chunk already landed — and this
        method folds them in under first-write-wins.
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
        columns = self._indicator_columns([canonicalize(genotype)],
                                          with_latency)
        return {name: float(column[0]) for name, column in columns.items()}

    def _indicator_columns(self, canons: Sequence[Genotype],
                           with_latency: bool) -> Dict[str, np.ndarray]:
        """The :data:`INDICATOR_NAMES` columns of already-canonical forms.

        Each row is read once under its key: the proxy rows under
        :meth:`proxy_row_keys`, FLOPs and latency under their
        cost models' keys.  A column's cached rows are read in one bulk
        pass; then, form by form and column by column, each row not cached
        is read as a lone read would (:meth:`_proxy_row`, which has the
        executor compute it, or :meth:`_cost_canonical`).  The counters and
        ledger entries are those of a read per row.
        """
        indices = [canon.to_index() for canon in canons]
        proxy_keys = [self.proxy_row_keys("genotype", index)
                      for index in indices]
        models = {"flops": self.cost_model("flops")}
        if with_latency:
            models["latency"] = self.cost_model("latency")
        reads = {  # column -> (keys, ledger tag)
            "ntk": ([keys["ntk"] for keys in proxy_keys], "ntk"),
            "linear_regions": ([keys["linear_regions"]
                                for keys in proxy_keys], "lr"),
            **{name: ([model.cache_key(index) for index in indices],
                      f"cost[{name}]")
               for name, model in models.items()},
        }
        values: Dict[str, List] = {}
        misses: Dict[int, List[str]] = {}  # position -> its missing columns
        for name, (keys, tag) in reads.items():
            values[name], missing = self._read_cached(keys, tag)
            for pos in missing:
                misses.setdefault(pos, []).append(name)
        for pos in sorted(misses):
            canon = canons[pos]
            for name in misses[pos]:
                if name in models:
                    value = self._cost_canonical(canon, models[name])
                else:
                    keys, tag = reads[name]
                    value = self._proxy_row(
                        keys[pos], tag,
                        lambda: self.executor.warm_population(self, [canon]))
                values[name][pos] = value
        if not with_latency:
            values["latency"] = [0.0] * len(canons)
        return {name: np.array(values[name], dtype=float)
                for name in INDICATOR_NAMES}

    def evaluate_population(
        self,
        genotypes: Sequence[Genotype],
        with_latency: bool = False,
        cost_models: Optional[Sequence] = None,
    ) -> IndicatorTable:
        """Indicator table for a population, deduplicated canonically.

        Rows come back in request order (duplicates included); each unique
        canonical form is evaluated at most once, and repeat populations
        hit the cache outright.

        The population's canonical forms (computed once here) go to
        :attr:`executor` in one ``warm_population`` call: its chunk
        workers compute every missing proxy row — inline or in fork
        worker processes, in any completion order — and merge them
        into :attr:`cache`.  The table is then assembled here, in request
        order, from cache reads alone, so it is identical whatever the
        executor's transport, worker count or completion order.

        ``cost_models`` optionally appends one column per registered
        :class:`~repro.search.costs.CostModel` (by ``model.name``), each
        computed once per unique canonical form via :meth:`cost_column` —
        these are driver-side, LUT-mediated axes, so executors stay
        oblivious to them.  Omitted (the default), the table is
        bit-identical to the pre-registry four-column layout.  The table's
        ``canonical`` and ``inverse`` let a caller price further columns
        the same way.
        """
        genotypes = list(genotypes)
        tel = self.telemetry
        if tel is None or not tel.enabled:
            return self._evaluate_population_impl(genotypes, with_latency,
                                                  cost_models)
        with tel.span("evaluate_population", "engine",
                      candidates=len(genotypes)) as span:
            table = self._evaluate_population_impl(genotypes, with_latency,
                                                   cost_models)
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
        cost_models: Optional[Sequence] = None,
    ) -> IndicatorTable:
        genotypes = list(genotypes)
        # One canonicalization pass serves the executor, the dedupe and
        # every row read below (canonicalize builds a cell graph per call
        # — repeating it would dominate the warm path).
        canons = [canonicalize(g) for g in genotypes]
        indices = [canon.to_index() for canon in canons]
        unique = dict(zip(indices, canons))  # first-occurrence order
        canonical = list(unique.values())
        hits0, misses0 = self.cache.counters()
        self.executor.warm_population(self, canonical)
        unique_columns = self._indicator_columns(canonical, with_latency)
        for model in cost_models or ():
            unique_columns[model.name] = self.cost_column(canonical, model)
        hits1, misses1 = self.cache.counters()
        position = {index: pos for pos, index in enumerate(unique)}
        inverse = np.array([position[index] for index in indices],
                           dtype=np.intp)
        return IndicatorTable(
            genotypes=genotypes,
            columns={name: column[inverse]
                     for name, column in unique_columns.items()},
            cache_hits=hits1 - hits0,
            cache_misses=misses1 - misses0,
            unique_canonical=len(canonical),
            canonical=canonical,
            inverse=inverse,
        )

    # ------------------------------------------------------------------
    # Supernet states (the pruning search's comparison unit)
    # ------------------------------------------------------------------
    def supernet_ntk(self, edge_specs: Sequence[EdgeSpec]) -> float:
        """Cached NTK condition number of a pruning-supernet state."""
        state = supernet_state_key(edge_specs)
        key = self.proxy_row_keys("supernet", state)["supernet_ntk"]
        return self._proxy_row(
            key, "ntk",
            lambda: self.executor.warm_supernets(self, [edge_specs]))

    def supernet_linear_regions(self, edge_specs: Sequence[EdgeSpec]) -> float:
        """Cached line-region count of a pruning-supernet state."""
        state = supernet_state_key(edge_specs)
        key = self.proxy_row_keys("supernet", state)["supernet_lr"]
        return self._proxy_row(
            key, "lr",
            lambda: self.executor.warm_supernets(self, [edge_specs]))

    def _proxy_row(self, key: Tuple, tag: str, warm) -> float:
        """The cached proxy row under ``key``.  On a miss ``warm`` has the
        executor's chunk workers compute and merge it (the merge counts
        the miss and records the ``{tag}_eval`` ledger entry) first."""
        if key in self.cache:
            return self._lookup(key, None, tag)
        warm()
        if key not in self.cache:
            raise ProxyError(f"the executor computed no row for {key[:2]!r}: "
                             "it quarantined the candidate as poison")
        return self.cache.get(key)
