"""The parallel evaluation runtime.

:mod:`repro.engine` owns *what* trainless evaluation computes (vectorized
proxy kernels, the canonicalization-aware cache, the population API).
This package owns *how* populations get evaluated at scale — without the
engine ever importing it:

1. **Executor** (:mod:`repro.runtime.async_pool`, worker chunk functions
   and cache-key builders in :mod:`repro.runtime.pool`) —
   :class:`AsyncPopulationExecutor` maps proxy evaluation over the
   unique canonical genotypes (or supernet states) of a population as
   DeepHyper-style submit/gather halves: per-chunk futures whose
   indicator rows merge into the shared
   :class:`~repro.engine.cache.IndicatorCache` **the moment each chunk
   lands** (via :meth:`~repro.engine.core.Engine.merge_indicator_rows`),
   in any completion order.  Every proxy seeds from the canonical key,
   so results are bit-identical to serial evaluation regardless of
   worker count or completion order.  The blocking ``warm_population`` /
   ``warm_supernets`` hooks serve the generational loops; the
   steady-state evolutionary search keeps ``n_workers`` candidates in
   flight on the split halves.  With one worker the transport is a
   serial queue that runs chunks inline at gather time.
2. **Persistent store** (:mod:`repro.runtime.store`) —
   :class:`RuntimeStore` persists the indicator cache as a sharded
   append-only log with fingerprint validation (stale proxy/macro
   configurations never poison results), read back by one full replay
   (or followed file by file by long-lived fleet workers), and keeps a device-keyed latency-LUT store
   built on :meth:`~repro.hardware.profiler.LatencyLUT.save_json`, so
   repeated runs, multi-device Pareto searches and CI all warm-start.
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
   and a lock-free metrics registry; fork workers self-report through a
   ``flock``'d JSONL sidecar.  Exports Chrome ``trace_event`` JSON
   (Perfetto-loadable) plus a metrics snapshot in the
   :class:`RunReport`; disabled by default with <2% armed overhead and
   zero effect on computed rows.
6. **Distributed fleet** (:mod:`repro.runtime.fleet`, imported on first
   use) — a TCP socket broker (:class:`FleetBroker`) leasing picklable
   chunk payloads to an elastic set of worker processes (``micronas
   fleet worker``), with per-lease deadlines, exactly-once re-lease of
   expired chunks, and requeue of chunks a disconnected worker held.
   The driver-side :class:`FleetPool` implements the ``FuturePool``
   submit/gather contract, so the executor, fault taxonomy, quarantine
   ledger, telemetry and graceful drain compose unchanged; workers
   warm-start from — and flush freshly computed rows into — the shared
   store, so late joiners inherit everything already computed.

The composition seam is deliberately thin: ``Engine.evaluate_population``
and every search loop accept an optional ``executor=`` object they only
duck-type (``warm_population`` / ``warm_supernets`` for barrier-style
warming, ``submit_population`` / ``gather`` for event-driven loops), the
engine/estimator accept a duck-typed ``lut_store``, and the executor
accepts any ``pool=`` honouring the ``FuturePool`` contract — which is
exactly how the fleet transport plugs in.
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
    "FleetBroker",
    "FleetPool",
    "FleetWorkerLostError",
    "FleetWorkerStats",
    "run_worker",
    "spawn_local_worker",
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

#: Names served lazily from :mod:`repro.runtime.fleet`, so importing the
#: runtime (or the harness) never pays for the socket/broker stack.
_FLEET_NAMES = ("FleetBroker", "FleetPool", "FleetWorkerLostError",
                "FleetWorkerStats", "run_worker", "spawn_local_worker")


def __getattr__(name):
    if name in _FLEET_NAMES:
        from repro.runtime import fleet

        return getattr(fleet, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
