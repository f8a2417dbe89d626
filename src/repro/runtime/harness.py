"""The run harness: one config wires engine + pool + store + algorithm.

:class:`RuntimeConfig` is the single declarative description of an
evaluation run — which search algorithm, how many worker processes, which
device, which store directory to warm-start from.  :class:`RunHarness`
materialises it: builds the :class:`~repro.engine.Engine` (replaying the
persisted indicator cache once, eagerly — the store holds at most the
~76k rows the search space can produce — and letting latency
estimators pull profiled LUTs from the store), builds the :class:`~repro.runtime.async_pool.\
AsyncPopulationExecutor` with its :class:`~repro.runtime.faults.\
FaultPolicy`, runs the selected algorithm from :data:`ALGORITHMS` and
emits a structured :class:`RunReport` (persisting computed rows to the
store on every gather and once more at the end).  Device-matrix mode
(:meth:`RunHarness.run_matrix`) swaps the algorithm for one population
pass priced per (device, objective-set) cell and emits a
:class:`DeviceMatrixReport`.  Both go through one lifecycle
(:meth:`RunHarness._lifecycle`): SIGINT/SIGTERM drain, heartbeat,
timing, pool close, trace export, final store save and the report
fields the two report types share.

New algorithms register with :func:`register_algorithm`; the builder
receives the harness and returns a
:class:`~repro.search.result.SearchResult`, so external search loops plug
in without touching this module.

Imports follow execution.  Importing this module loads what every run
executes: the engine, the executor, the store, the objective and the
Pareto sort.  Building a :class:`RunHarness` imports the configured
algorithm's search module (and the cost models when objectives are set),
``concurrent.futures`` when the executor runs a fork pool, and
the proxies with their compiled plans when its store replay loaded no
rows, so a cold :meth:`run` or :meth:`run_matrix` imports nothing it
computes with.  A run that replayed rows loads the proxies at its first
chunk that computes, before any pool forks, and a fully warm run never
loads them.  Module trees (:mod:`repro.nn`), ``numpy.ma``, benchmark
data and the int8/graph/deployment models stay unloaded.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import signal
import threading
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.autograd.precision import resolve_policy
from repro.engine.core import Engine
from repro.errors import SearchError
from repro.hardware.device import get_device, known_devices
from repro.proxies.base import ProxyConfig
from repro.runtime.async_pool import AsyncPopulationExecutor
from repro.runtime.faults import FaultPolicy
from repro.runtime.pool import import_compute
from repro.runtime.store import RuntimeStore, cache_fingerprint
from repro.runtime.telemetry import Heartbeat, Telemetry
from repro.search.objective import HybridObjective, ObjectiveWeights
from repro.search.pareto import build_front
from repro.search.result import SearchResult
from repro.searchspace.genotype import Genotype
from repro.searchspace.space import NasBench201Space
from repro.searchspace.specs import MacroConfig
from repro.utils.timing import Timer


def _utc_now() -> str:
    """ISO-8601 UTC timestamp (the cross-process correlation format)."""
    return datetime.now(timezone.utc).isoformat()

@dataclass(frozen=True)
class RuntimeConfig:
    """Everything a reproducible evaluation run needs, in one place."""

    algorithm: str = "random"
    n_workers: int = 1
    #: Largest chunk the executor ships: chunks shrink towards the end
    #: of a dispatch (guided self-scheduling) so the workers finish together.
    chunk_size: int = 8
    store_dir: Optional[str] = None  # warm-start from and persist to
    device: str = "nucleo-f746zg"
    samples: int = 64          # random / pareto population size
    population_size: int = 20  # evolutionary population
    cycles: int = 100          # evolutionary cycles
    sample_size: int = 5       # evolutionary tournament size
    latency_weight: float = 0.0
    flops_weight: float = 0.0
    arch: Optional[str] = None  # cell for the macro stage (str or index)
    seed: int = 0
    fast: bool = True           # reduced proxy scale (quick demo / CI)
    precision: str = "float64"  # proxy compute policy (float32|float64)
    chunk_timeout: Optional[float] = None  # per-chunk deadline (s)
    max_retries: int = 2        # transient-failure retry budget
    trace_path: Optional[str] = None  # write a Chrome trace JSON here
    heartbeat: Optional[float] = None  # progress line every N > 0 seconds
    #: Objective sets for the scenario matrix: each entry is a
    #: comma-joined list of registered cost axes (``"latency"``,
    #: ``"energy,peak-mem"``, ...).  With :attr:`devices` set, the run
    #: emits one Pareto front per (device, objective-set) cell; without,
    #: the named axes fold into the hybrid objective's cost weights.
    objectives: Tuple[str, ...] = ()
    #: Device-matrix boards.  Non-empty switches :meth:`RunHarness.run_matrix`
    #: on: trainless indicators are evaluated once (shared cache/store),
    #: then every (device, objective-set) cell prices its own cost axes.
    devices: Tuple[str, ...] = ()

    def objective_sets(self) -> Tuple[Tuple[str, ...], ...]:
        """Parsed :attr:`objectives` — one tuple of axis names per set."""
        sets = []
        for entry in self.objectives:
            axes = tuple(a.strip() for a in entry.split(",") if a.strip())
            if axes:
                sets.append(axes)
        return tuple(sets)

    def cost_axes(self) -> Tuple[str, ...]:
        """Sorted union of every axis named across the objective sets."""
        union = {axis for axes in self.objective_sets() for axis in axes}
        return tuple(sorted(union))

    def proxy_config(self) -> ProxyConfig:
        from repro.eval.benchconfig import reduced_proxy_config

        if self.fast:
            return reduced_proxy_config(seed=self.seed,
                                        precision=self.precision)
        return ProxyConfig(seed=self.seed, precision=self.precision)

    def macro_config(self) -> MacroConfig:
        return MacroConfig.full()


class _JsonReport:
    """``to_dict``/``save_json`` for the report dataclasses below."""

    def to_dict(self) -> Dict:
        return asdict(self)

    def save_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, default=str)


@dataclass
class RunReport(_JsonReport):
    """Structured record of one harness run (JSON-serialisable)."""

    config: RuntimeConfig
    algorithm: str
    arch_str: str
    arch_index: int
    indicators: Dict[str, float]
    wall_seconds: float
    num_evaluations: int
    cache: Dict[str, float]
    pool: Dict[str, object]
    store: Dict[str, object]
    weights_used: Optional[Dict[str, float]] = None
    history: List[Dict] = field(default_factory=list)
    #: "completed", or "interrupted" when a SIGINT/SIGTERM drain cut the
    #: run short — everything gathered before the drain is still in the
    #: report (and persisted, when a store is configured).
    status: str = "completed"
    #: Short random hex minted at harness construction — stamped on every
    #: telemetry event too, so logs and traces of one run can be
    #: correlated after the fact.
    run_id: str = ""
    started_at: str = ""   # ISO-8601 UTC
    finished_at: str = ""  # ISO-8601 UTC
    #: Metrics snapshot (counters/gauges/histograms) when telemetry was
    #: armed for the run; ``None`` otherwise.
    telemetry: Optional[Dict] = None


@dataclass
class MatrixCell:
    """One (device, objective-set) cell of a device-matrix run."""

    device: str
    objectives: Tuple[str, ...]
    #: First Pareto front, sorted by the first cost axis; each row maps
    #: ``arch_str``/``arch_index``/``quality_rank``/``crowding`` plus one
    #: entry per cost axis.
    front: List[Dict[str, object]]
    #: The balanced pick (:func:`~repro.search.pareto.build_front`'s knee).
    knee: Optional[Dict[str, object]]
    num_fronts: int


@dataclass
class DeviceMatrixReport(_JsonReport):
    """Structured record of one device-matrix run (JSON-serialisable).

    The headline invariant: ``unique_canonical`` trainless evaluations
    serve *every* cell — devices and objective sets only re-price cheap,
    LUT-mediated cost axes against the shared cache.  The run-level
    fields after ``trainless_evals`` mean what they mean on
    :class:`RunReport`.
    """

    config: RuntimeConfig
    cells: List[MatrixCell]
    samples: int
    unique_canonical: int
    #: Trainless evaluation accounting.  ``rows_computed`` is the cache
    #: miss delta of the single population pass — the number of indicator
    #: rows genuinely computed before any cell was priced, proving the
    #: exactly-once sharing across cells; ``ntk``/``linear_regions`` are
    #: the ledger's ``ntk_eval``/``lr_eval`` counts, one per proxy value
    #: the executor's workers computed (0 on a fully warm restart).
    trainless_evals: Dict[str, int]
    cache: Dict[str, float]
    pool: Dict[str, object]
    store: Dict[str, object]
    wall_seconds: float
    status: str = "completed"
    run_id: str = ""
    started_at: str = ""
    finished_at: str = ""
    telemetry: Optional[Dict] = None

    def cell(self, device: str, objectives: Tuple[str, ...]) -> MatrixCell:
        """Look up one cell by its (device, objective-set) coordinates."""
        for cell in self.cells:
            if cell.device == device and tuple(cell.objectives) == tuple(objectives):
                return cell
        raise SearchError(f"no matrix cell ({device!r}, {objectives!r})")


# ----------------------------------------------------------------------
# Algorithm registry
# ----------------------------------------------------------------------
ALGORITHMS: Dict[str, Callable[["RunHarness"], SearchResult]] = {}

#: The search module each built-in algorithm's builder imports.  Building
#: a harness imports it, so its import time counts as set-up, not search.
_ALGORITHM_MODULES = {
    "random": "repro.search.random_search",
    "evolutionary": "repro.search.evolutionary",
    "trainless-evolutionary": "repro.search.evolutionary",
    "steady-state": "repro.search.evolutionary",
    "pruning": "repro.search.pruning",
    "macro": "repro.search.macro",
}


def register_algorithm(name: str):
    """Decorator registering a harness-runnable search algorithm."""

    def wrap(builder: Callable[["RunHarness"], SearchResult]):
        ALGORITHMS[name] = builder
        return builder

    return wrap


@register_algorithm("random")
def _run_random(harness: "RunHarness") -> SearchResult:
    from repro.search.random_search import ZeroShotRandomSearch

    return ZeroShotRandomSearch(
        harness.objective(),
        num_samples=harness.config.samples,
        seed=harness.config.seed,
    ).search()


def _evolution_config(config: RuntimeConfig):
    """The three evolutionary algorithms' shared loop settings."""
    from repro.search.evolutionary import EvolutionConfig

    return EvolutionConfig(population_size=config.population_size,
                           sample_size=config.sample_size,
                           cycles=config.cycles)


@register_algorithm("evolutionary")
def _run_evolutionary(harness: "RunHarness") -> SearchResult:
    """µNAS-style train-based aging evolution (surrogate benchmark).

    Fitness queries the surrogate — no engine indicators — so the pool
    and indicator store have nothing to accelerate here; the algorithm is
    registered so cost-accounting comparisons run under the same harness.
    Indicator weights would be silently meaningless, so they are rejected
    rather than ignored (use ``trainless-evolutionary`` for weighted
    indicator-driven evolution).
    """
    from repro.search.evolutionary import ConstrainedEvolutionarySearch

    if harness.config.latency_weight or harness.config.flops_weight:
        raise SearchError(
            "the train-based 'evolutionary' algorithm scores candidates by "
            "surrogate accuracy only and ignores indicator weights; drop "
            "--latency-weight/--flops-weight or use trainless-evolutionary"
        )

    return ConstrainedEvolutionarySearch(
        _evolution_config(harness.config),
        macro_config=harness.macro_config,
        seed=harness.config.seed,
    ).search()


@register_algorithm("trainless-evolutionary")
def _run_trainless_evolutionary(harness: "RunHarness") -> SearchResult:
    from repro.search.evolutionary import TrainlessEvolutionarySearch

    return TrainlessEvolutionarySearch(
        harness.objective(),
        _evolution_config(harness.config),
        seed=harness.config.seed,
    ).search()


@register_algorithm("steady-state")
def _run_steady_state(harness: "RunHarness") -> SearchResult:
    """Event-driven steady-state evolution over the executor's futures."""
    from repro.search.evolutionary import SteadyStateEvolutionarySearch

    return SteadyStateEvolutionarySearch(
        harness.objective(),
        _evolution_config(harness.config),
        seed=harness.config.seed,
    ).search()


@register_algorithm("pruning")
def _run_pruning(harness: "RunHarness") -> SearchResult:
    from repro.search.pruning import MicroNASSearch

    return MicroNASSearch(harness.objective()).search()


@register_algorithm("macro")
def _run_macro(harness: "RunHarness") -> SearchResult:
    """Secondary stage: fit ``config.arch`` onto the configured board."""
    from repro.search.macro import (
        MacroSearchSpace,
        MacroStageSearch,
        device_constraints,
    )

    if harness.config.arch is None:
        raise SearchError(
            "the macro algorithm needs a discovered cell: set "
            "RuntimeConfig.arch to an architecture string or index"
        )
    genotype = Genotype.resolve(harness.config.arch)
    search = MacroStageSearch(genotype, device=harness.device,
                              space=MacroSearchSpace(),
                              engine=harness.engine)
    plan = search.select(device_constraints(harness.device))
    harness.engine.ledger.add("macro_candidates",
                              count=plan.alternatives_considered)
    candidate = plan.candidate
    return SearchResult(
        genotype=genotype,
        algorithm="macro-stage",
        indicators={
            "latency": candidate.latency_ms,
            "flops": float(candidate.flops),
            "params": float(candidate.params),
            "peak_sram_bytes": float(candidate.peak_sram_bytes),
            "flash_bytes": float(candidate.flash_bytes),
        },
        history=[{
            "skeleton": {
                "init_channels": candidate.config.init_channels,
                "cells_per_stage": candidate.config.cells_per_stage,
            },
            "alternatives_considered": plan.alternatives_considered,
        }],
        ledger=harness.engine.ledger,
    )


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
class RunHarness:
    """Materialises a :class:`RuntimeConfig` and runs its algorithm."""

    def __init__(self, config: RuntimeConfig) -> None:
        if config.algorithm not in ALGORITHMS:
            raise SearchError(
                f"unknown algorithm {config.algorithm!r}; registered: "
                f"{sorted(ALGORITHMS)}"
            )
        devices = known_devices()
        if config.device not in devices:
            raise SearchError(
                f"unknown device {config.device!r}; known: {sorted(devices)}"
            )
        for name in config.devices:
            if name not in devices:
                raise SearchError(
                    f"unknown matrix device {name!r}; known: "
                    f"{sorted(devices)}")
        if config.objectives or config.devices:
            from repro.search.costs import registered_cost_models

            registered = registered_cost_models()
            for axis in config.cost_axes():
                if axis not in registered:
                    raise SearchError(
                        f"unknown cost axis {axis!r}; registered: "
                        f"{list(registered)}")
        # Fail fast on unknown precision names (the proxies would only
        # raise at first evaluation, deep inside the run).
        resolve_policy(config.precision)
        if config.samples < 1:
            raise SearchError("samples must be >= 1")
        if not (config.heartbeat is None or 0 < config.heartbeat < math.inf):
            raise SearchError("heartbeat must be positive and finite")
        if config.chunk_size < 1:
            raise SearchError("chunk_size must be >= 1")
        fault_policy = FaultPolicy(chunk_timeout=config.chunk_timeout,
                                   max_retries=config.max_retries)
        if not config.devices and config.algorithm in _ALGORITHM_MODULES:
            importlib.import_module(_ALGORITHM_MODULES[config.algorithm])
        self.config = config
        self.device = devices[config.device]
        self.proxy_config = config.proxy_config()
        self.macro_config = config.macro_config()
        #: Short random hex correlating this run across processes, logs
        #: and telemetry events (minted even when telemetry is off — the
        #: report always carries it).
        self.run_id = os.urandom(4).hex()
        #: Armed when the run wants a trace file or a heartbeat; the
        #: shared disabled singleton otherwise — every layer below takes
        #: it unconditionally and no-ops when disabled.
        self.telemetry = (
            Telemetry.armed(run_id=self.run_id, trace_path=config.trace_path)
            if (config.trace_path or config.heartbeat)
            else Telemetry.disabled()
        )
        self.store = (RuntimeStore(config.store_dir,
                                   telemetry=self.telemetry)
                      if config.store_dir else None)
        # Extra cost axes fold into the store fingerprint so rows never
        # alias across objective sets; the built-in latency/flops axes
        # are part of the legacy indicator schema already, so plain runs
        # (and latency-only objective sets) keep the legacy fingerprint
        # bit-compatible.
        extra_axes = tuple(a for a in config.cost_axes()
                           if a not in ("latency", "flops"))
        self.fingerprint = cache_fingerprint(self.proxy_config,
                                             self.macro_config,
                                             cost_axes=extra_axes)
        self.executor = AsyncPopulationExecutor(
            n_workers=config.n_workers, chunk_size=config.chunk_size,
            fault_policy=fault_policy,
            # Quarantine decisions persist in the store directory (and
            # pre-seed the executor) when a store is configured;
            # store-less runs quarantine in memory only.
            quarantine_ledger=(
                self.store.quarantine_ledger(self.fingerprint)
                if self.store is not None else None
            ),
            telemetry=self.telemetry,
        )
        self.engine = Engine(
            proxy_config=self.proxy_config,
            macro_config=self.macro_config,
            device=self.device,
            lut_store=self.store,
            telemetry=self.telemetry,
            executor=self.executor,
        )
        #: Rows warm-started from the store (one eager replay).
        self.warm_entries = (
            self.store.load_cache_into(self.engine.cache, self.fingerprint)
            if self.store is not None else 0)
        if not self.warm_entries:
            # A cold run computes: load the proxies now, not in its
            # timed search (a warm run loads them at its first chunk).
            import_compute()
        #: Rows appended to the store by mid-run flushes.
        self.flushed_entries = 0
        #: Set by the first SIGINT/SIGTERM during a run: the run is
        #: draining and its report will carry ``status="interrupted"``.
        self._drain_requested = False
        if self.store is not None:
            # The store appends only dirty rows (O(delta)), so
            # flushing on *every* gather is affordable: a crashed or
            # killed run leaves everything it computed persisted, and
            # sibling processes warm-start from it while this run is
            # still going.
            self.executor.on_gather = self._flush_store

    def _flush_store(self, gathered) -> None:
        self.flushed_entries += self.store.save_cache(self.engine.cache,
                                                      self.fingerprint)

    def _heartbeat_source(self) -> Dict:
        """One reading for the heartbeat line (reads shared counters only,
        so it is safe from the heartbeat thread mid-run)."""
        stats = self.executor.stats
        return {
            "evals": getattr(stats, "tasks", 0),
            "in_flight": getattr(self.executor, "num_pending", 0),
            "idle_fraction": getattr(stats, "idle_fraction", None),
            "retries": getattr(stats, "retries", 0),
            "store_rows": self.flushed_entries,
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut worker pools down *now* (idempotent).

        Leaning on ``__del__`` for cleanup runs at GC's convenience, so
        forked workers could outlive the run that spawned them.  The
        harness is the object with the executor's lifecycle in hand, so
        it closes deterministically: every run on completion (success
        or not), or the context manager on scope exit.
        """
        self.executor.close()

    def __enter__(self) -> "RunHarness":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def objective(self):
        """A hybrid objective over this harness's engine (and so its
        executor).

        ``RuntimeConfig.objectives`` axes fold in at weight 1.0 unless an
        explicit weight already covers them (``latency``/``flops`` via
        their dedicated knobs, extra axes at unit weight) — so a config
        naming ``energy,peak-mem`` scores those axes even outside
        device-matrix mode.
        """
        axes = self.config.cost_axes()
        latency_weight = self.config.latency_weight
        if not latency_weight and "latency" in axes:
            latency_weight = 1.0
        flops_weight = self.config.flops_weight
        if not flops_weight and "flops" in axes:
            flops_weight = 1.0
        extra = {axis: 1.0 for axis in axes
                 if axis not in ("latency", "flops")}
        return HybridObjective(
            weights=ObjectiveWeights(latency=latency_weight,
                                     flops=flops_weight,
                                     costs=extra),
            engine=self.engine,
        )

    # ------------------------------------------------------------------
    # Graceful drain
    # ------------------------------------------------------------------
    def _handle_drain_signal(self, signum, frame) -> None:
        """First SIGINT/SIGTERM: drain.  Second: abort for real."""
        if self._drain_requested:
            raise KeyboardInterrupt(
                f"second signal {signum} during drain")
        self._drain_requested = True
        self.executor.request_drain()

    def _install_drain_handlers(self) -> List:
        """Route SIGINT/SIGTERM into a graceful drain; returns the
        ``(signum, previous_handler)`` pairs to restore afterwards.

        Only armed from the main thread: signal handlers cannot be
        installed off it.
        """
        if threading.current_thread() is not threading.main_thread():
            return []
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous = signal.signal(signum, self._handle_drain_signal)
            installed.append((signum, previous))
        return installed

    # ------------------------------------------------------------------
    def _lifecycle(self, body: Callable[[], object]) -> Tuple:
        """Run ``body`` as this harness's one run; return its value and
        the report fields :class:`RunReport` and
        :class:`DeviceMatrixReport` share.

        SIGINT/SIGTERM triggers a **graceful drain** rather than an
        abort: submission stops (in loops that consult the executor's
        ``drain_requested``), in-flight chunks are gathered and flushed,
        and the report comes back marked ``status="interrupted"`` with
        everything computed so far persisted (a second signal aborts
        immediately).  The heartbeat runs for the body's duration; the
        pool closes and the trace is written even when the body raises.
        """
        stats_before = self.engine.cache.stats
        installed = self._install_drain_handlers()
        started_at = _utc_now()
        heartbeat = (Heartbeat(self.config.heartbeat, self._heartbeat_source,
                               run_id=self.run_id).start()
                     if self.config.heartbeat else None)
        try:
            with Timer() as timer:
                value = body()
        finally:
            if heartbeat is not None:
                heartbeat.stop()
            for signum, previous in installed:
                signal.signal(signum, previous)
            self.close()  # forked workers don't outlive the run
            finished_at = _utc_now()
            # Write the trace even when the run raised or was drained —
            # an interrupted timeline is exactly when you want one — and
            # never let a telemetry write failure mask the run's outcome.
            try:
                self.telemetry.write_trace(other_data={
                    "started_at": started_at,
                    "finished_at": finished_at,
                    "interrupted": self._drain_requested,
                })
            except Exception:
                pass
        stats_after = self.engine.cache.stats
        saved_entries = self.flushed_entries
        if self.store is not None:
            # Appends whatever the mid-run flushes have not already
            # persisted (e.g. cost rows priced driver-side).
            saved_entries += self.store.save_cache(self.engine.cache,
                                                   self.fingerprint)
        return value, dict(
            wall_seconds=timer.elapsed,
            cache={
                "warm_start_entries": self.warm_entries,
                "hits": stats_after.hits - stats_before.hits,
                "misses": stats_after.misses - stats_before.misses,
                "entries": stats_after.entries,
                "hit_rate": stats_after.hit_rate,
            },
            pool=self.executor.stats.to_dict(),
            store={
                "dir": self.config.store_dir,
                "cache_loaded": self.warm_entries,
                "cache_saved": saved_entries,
                "luts": (self.store.lut_keys()
                         if self.store is not None else []),
            },
            status=("interrupted" if self._drain_requested
                    else "completed"),
            run_id=self.run_id,
            started_at=started_at,
            finished_at=finished_at,
            telemetry=(self.telemetry.metrics_snapshot()
                       if self.telemetry.enabled else None),
        )

    def run(self) -> RunReport:
        """Run the configured algorithm; persist and report (the run's
        lifecycle, drain included, is :meth:`_lifecycle`)."""
        result, shared = self._lifecycle(
            lambda: ALGORITHMS[self.config.algorithm](self))
        return RunReport(
            config=self.config,
            algorithm=result.algorithm,
            arch_str=result.arch_str,
            arch_index=result.genotype.to_index(),
            indicators={k: float(v) for k, v in result.indicators.items()},
            num_evaluations=result.num_evaluations,
            weights_used=result.weights_used,
            history=result.history,
            **shared,
        )

    # ------------------------------------------------------------------
    # Device-matrix mode
    # ------------------------------------------------------------------
    def run_matrix(self) -> DeviceMatrixReport:
        """Evaluate one candidate sample across every (device,
        objective-set) cell; return one Pareto front per cell.

        Trainless indicators (κ_NTK, linear regions) are computed exactly
        once per unique canonical form — by the engine's executor, as in a
        plain run, so the serial and fork transports compose unchanged
        and workers stay oblivious to cost axes.  Each device then prices
        its cost axes against the shared cache via the registered
        :class:`~repro.search.costs.CostModel` adapters (LUT-mediated,
        driver-side), and each objective set builds its own front and
        knee with :func:`~repro.search.pareto.build_front`, as
        :class:`~repro.search.pareto.ParetoZeroShotSearch` does.  The run
        shares :meth:`run`'s lifecycle: trace, heartbeat, drain and the
        final store save.  The population is one batch, so a drain lets it
        finish and marks the report ``status="interrupted"``.
        """
        if not self.config.devices:
            raise SearchError(
                "device-matrix mode needs RuntimeConfig(devices=[...]) "
                "(CLI: micronas runtime --device-matrix DEV1,DEV2)")
        (table, cells), shared = self._lifecycle(self._matrix_body)
        counts = self.engine.ledger.counts
        return DeviceMatrixReport(
            config=self.config,
            cells=cells,
            samples=self.config.samples,
            unique_canonical=table.unique_canonical,
            trainless_evals={
                "ntk": counts.get("ntk_eval", 0),
                "linear_regions": counts.get("lr_eval", 0),
                "rows_computed": table.cache_misses,
                "rows_hit": table.cache_hits,
            },
            **shared,
        )

    def _matrix_body(self):
        """One trainless population pass, then every cell's front.

        The pass canonicalizes the sample once; its table carries the
        unique canonical forms and each sample's position among them.
        Each (device, axis) column is priced over those unique forms only
        (:meth:`~repro.engine.core.Engine.cost_column`: the cached cells
        read in bulk, the rest looked up one by one) and expanded to
        sample order by one gather,
        so duplicates cost nothing and the fronts still rank the sample
        as drawn.
        """
        config = self.config
        objective_sets = config.objective_sets() or (("latency",),)
        # Quality is the trainless part only — hardware enters as cost
        # axes, so cells stay comparable across devices.
        trainless = HybridObjective(weights=ObjectiveWeights(),
                                    engine=self.engine)
        genotypes = NasBench201Space().sample(config.samples,
                                              rng=config.seed)
        table = trainless.evaluate_population(genotypes)
        quality = trainless.combined_ranks(table.rows())
        # Each axis is priced once per device; objective sets sharing an
        # axis reuse the same column.
        axis_names = dict.fromkeys(a for axes in objective_sets for a in axes)
        cells: List[MatrixCell] = []
        for device_name in config.devices:
            engine = self.engine.for_device(get_device(device_name))
            columns = {axis: engine.cost_column(
                           table.canonical,
                           engine.cost_model(axis))[table.inverse]
                       for axis in axis_names}
            for axes in objective_sets:
                members, crowd, num_fronts, knee = build_front(
                    np.column_stack([quality]
                                    + [columns[axis] for axis in axes]))
                rows = [{"arch_str": genotypes[idx].to_arch_str(),
                         "arch_index": genotypes[idx].to_index(),
                         "quality_rank": float(quality[idx]),
                         "crowding": float(crowding),
                         **{axis: float(columns[axis][idx]) for axis in axes}}
                        for idx, crowding in zip(members, crowd)]
                cells.append(MatrixCell(device=device_name,
                                        objectives=tuple(axes), front=rows,
                                        knee=rows[knee],
                                        num_fronts=num_fronts))
        return table, cells


def run(config: RuntimeConfig) -> RunReport:
    """One-call convenience: build the harness and run it."""
    return RunHarness(config).run()


def run_matrix(config: RuntimeConfig) -> DeviceMatrixReport:
    """One-call convenience for device-matrix mode."""
    return RunHarness(config).run_matrix()


__all__ = [
    "RuntimeConfig",
    "RunHarness",
    "RunReport",
    "MatrixCell",
    "DeviceMatrixReport",
    "ALGORITHMS",
    "register_algorithm",
    "run",
    "run_matrix",
]
