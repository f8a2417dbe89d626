"""The parallel evaluation runtime.

:mod:`repro.engine` owns *what* trainless evaluation computes (vectorized
proxy kernels, the canonicalization-aware cache, the population API).
This package owns *how* populations get evaluated at scale; importing the
engine does not import it:

1. **Executor** (:mod:`repro.runtime.async_pool`, worker chunk functions
   in :mod:`repro.runtime.pool`) —
   :class:`AsyncPopulationExecutor` maps proxy evaluation over the
   unique canonical genotypes (or supernet states) of a population as
   DeepHyper-style submit/gather halves: per-chunk futures whose
   indicator rows merge into the shared
   :class:`~repro.engine.cache.IndicatorCache` **the moment each chunk
   lands** (via :meth:`~repro.engine.core.Engine.merge_indicator_rows`),
   in any completion order.  Every proxy seeds from the canonical key,
   so results are bit-identical regardless of worker count or
   completion order.  Its chunk workers are the only code that computes
   NTK and line-region rows.  The blocking ``warm_population`` /
   ``warm_supernets`` calls serve the engine and the generational loops;
   the steady-state evolutionary search keeps ``n_workers`` candidates
   in flight on the split halves.  With one worker the transport is a
   serial queue that runs chunks inline at gather time.
2. **Persistent store** (:mod:`repro.runtime.store`) —
   :class:`RuntimeStore` persists the indicator cache as one
   append-only log per fingerprint, with fingerprint validation (stale
   proxy/macro configurations never poison results), read back by one
   full replay, and keeps a device-keyed latency-LUT store built on
   :meth:`~repro.hardware.profiler.LatencyLUT.save_json`, so repeated
   runs, multi-device Pareto searches and CI all warm-start.
3. **Run harness** (:mod:`repro.runtime.harness`) — one
   :class:`RuntimeConfig` configures engine + executor + store, runs any
   registered search algorithm against them and emits a structured
   :class:`RunReport`.  The harness owns executor lifecycle: pools are
   closed deterministically when the run finishes (or via the harness's
   context manager), never left to GC timing.
4. **Fault tolerance** (:mod:`repro.runtime.faults`) — the failure
   policy the executor runs under: transient-vs-poison classification,
   deterministic retry backoff, per-chunk deadlines, pool respawn after
   worker death, a persistent quarantine ledger for poison candidates,
   and a deterministic fault-injection harness (:class:`FaultPlan`) that
   makes every failure mode replayable in tests.  SIGINT/SIGTERM during
   a harness run triggers a graceful drain: submission stops, in-flight
   chunks land and flush, and the report comes back marked
   ``interrupted`` with nothing lost.
5. **Telemetry** (:mod:`repro.runtime.telemetry` +
   :mod:`repro.runtime.tracing`) — a strict-observer instrumentation
   substrate: one run-scoped :class:`Telemetry` object threaded through
   harness → executor → pool → store → engine records spans (dispatch,
   worker compute, gather, merge, flush, compaction, backoff, respawn)
   and a lock-free metrics registry; every transport returns a chunk's
   compute span with its result.  Exports Chrome ``trace_event`` JSON
   (Perfetto-loadable) plus a metrics snapshot in the
   :class:`RunReport`; disabled by default with <2% armed overhead and
   zero effect on computed rows.

The composition seam is one object: the executor is a property of the
engine, set once as ``Engine(executor=...)`` (the harness hands in its
own; an engine given none builds a serial one on its first miss, and its
``for_device`` siblings share it).  The engine's accessors and
population API call ``warm_population`` / ``warm_supernets`` on it, and
the search loops reach it as ``objective.engine.executor`` —
``submit_population`` / ``gather`` for the event-driven loop.  The
engine/estimator accept a ``lut_store``, and the executor accepts any
``pool=`` with ``FuturePool``'s ``submit``, ``gather``, ``num_pending``,
``close``, ``mode``, ``n_workers`` and ``respawns``, so a transport
plugs in without touching the executor.  The transports only run
chunks; the executor keeps the books (worker seconds, utilisation,
timeouts) from the task results they return.
"""

from repro.runtime.async_pool import (
    AsyncPoolStats,
    AsyncPopulationExecutor,
    ChunkGatherError,
    FuturePool,
    GatheredChunk,
)
from repro.runtime.faults import (
    ChunkTimeoutError,
    FaultPlan,
    FaultPolicy,
    QuarantineLedger,
    TransientWorkerError,
    classify_failure,
)
from repro.runtime.store import RuntimeStore, cache_fingerprint
from repro.runtime.harness import (
    ALGORITHMS,
    DeviceMatrixReport,
    MatrixCell,
    RunHarness,
    RunReport,
    RuntimeConfig,
    register_algorithm,
    run_matrix,
)
from repro.runtime.telemetry import (
    Heartbeat,
    MetricsRegistry,
    Telemetry,
    load_trace,
    span_coverage,
    summarize_trace,
)
from repro.runtime.tracing import Tracer, write_chrome_trace

__all__ = [
    "AsyncPopulationExecutor",
    "AsyncPoolStats",
    "ChunkGatherError",
    "ChunkTimeoutError",
    "FaultPlan",
    "FaultPolicy",
    "FuturePool",
    "GatheredChunk",
    "QuarantineLedger",
    "TransientWorkerError",
    "classify_failure",
    "RuntimeStore",
    "cache_fingerprint",
    "RuntimeConfig",
    "RunHarness",
    "RunReport",
    "MatrixCell",
    "DeviceMatrixReport",
    "ALGORITHMS",
    "register_algorithm",
    "run_matrix",
    "Heartbeat",
    "MetricsRegistry",
    "Telemetry",
    "Tracer",
    "load_trace",
    "span_coverage",
    "summarize_trace",
    "write_chrome_trace",
]
