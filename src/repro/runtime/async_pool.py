"""Futures-per-chunk population evaluation: the runtime's one executor.

A barrier executor blocks until every chunk of a population has been
computed, so a search loop sits idle while the slowest chunk finishes.
This module splits that barrier into DeepHyper-style **submit/gather**
halves (their evaluator abstraction keeps ``num_workers`` jobs in flight
and lets the search react to whichever result lands first):

* :class:`FuturePool` — the transport: submit picklable ``(worker,
  payload)`` tasks, gather completed results **in completion order**.
  ``n_workers`` picks it: a fork pool for more than one worker, else a
  serial fallback that defers execution to gather time so single-process
  runs interleave exactly like a pool would (FIFO completion).  Each
  result carries the worker's :class:`WorkerSpan`; the transport keeps
  no other books.
* :class:`AsyncPopulationExecutor` — the engine adapter, with one path
  for both candidate kinds.  :meth:`~AsyncPopulationExecutor.
  submit_population` and :meth:`~AsyncPopulationExecutor.submit_supernets`
  only turn their input into a unique ``{identity: chunk head}`` map
  (canonical index -> canonical ops, or supernet state -> state).  One
  submit path then skips quarantined candidates, gives each candidate a
  need mask over its proxy rows (needed = neither cached nor claimed by
  a chunk *already in flight*), claims the rows it ships and ships one
  future per chunk — at most ``chunk_size`` candidates, cut by guided
  self-scheduling so the chunks shrink towards the end of a dispatch and
  the workers finish together.  Every chunk ships ``(items,
  proxy_config)``.  :meth:`~AsyncPopulationExecutor.gather` merges each
  chunk's rows into the shared :class:`~repro.engine.cache.IndicatorCache`
  the moment it lands, via
  :meth:`~repro.engine.core.Engine.merge_indicator_rows`.  Claims and
  merges use the keys of :meth:`~repro.engine.core.Engine.proxy_row_keys`,
  the one place a row's key takes in the engine's configuration.  Each
  gather and merge runs under its telemetry span, which is a no-op when
  telemetry is disabled, so traced and untraced runs share one body.
  The executor also keeps the books every transport shares: worker
  seconds, utilisation and timeouts, all read from the gathered task
  results.

**Determinism.**  Indicator values are bit-identical to a serial
executor's no matter how futures resolve: every proxy seeds its RNG from
the canonical key, merges are first-write-wins under unique keys, and the
engine's serial assembly pass (``evaluate_population``) reads the cache in
request order.  Completion order can therefore reorder *when* rows land,
never *what* they say — the property the completion-order fuzzing tests
pin down.

**Fault tolerance.**  Both layers carry the failure semantics a pool of
workers needs (policy objects in :mod:`repro.runtime.faults`):

* the transport enforces per-chunk deadlines (``chunk_timeout``), tracks
  hung futures it had to abandon, and survives pool death
  (``BrokenProcessPool``): it terminates the carcass, spawns a fresh
  pool, and resubmits every lost in-flight task exactly once per death,
  up to ``max_respawns``;
* the executor classifies chunk failures under its
  :class:`~repro.runtime.faults.FaultPolicy`: *transient* ones retry
  with deterministic exponential backoff under a retry budget; *poison*
  ones bisect, so one bad genotype cannot sink its chunk-mates, and the
  lone offender left at the bottom lands in the (optionally persistent)
  :class:`~repro.runtime.faults.QuarantineLedger`, after which it is
  never shipped again.  The default policy retries and quarantines
  nothing: any worker failure surfaces as :class:`ChunkGatherError`
  after siblings merge.

The executor is a property of the :class:`~repro.engine.core.Engine`
(``Engine(executor=...)``, or a serial one the engine builds on its first
miss), and its chunk workers are the only code that computes proxy rows.
The blocking ``warm_population`` / ``warm_supernets`` calls (submit +
gather-all) serve the engine's accessors, ``Engine.evaluate_population``
and the pruning rounds; the steady-state evolutionary search
(:class:`~repro.search.evolutionary.SteadyStateEvolutionarySearch`) is
the loop that exploits the split halves.  With ``n_workers=1`` the
transport is the serial :class:`FuturePool`: chunks run inline, in the
parent, at gather time.

The executor never reads the persistent store: the harness replays it
into the engine's cache once, before the first submit, so the submit-time
dedupe against the cache already skips every warm row.

Worker functions are injectable (``genotype_worker=`` /
``supernet_worker=``): the seam through which a test or benchmark wraps
workers with simulated device latency, or a
:class:`~repro.runtime.faults.FaultPlan` injects scripted failures,
without touching scheduling.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.engine.core import supernet_state_key
from repro.errors import SearchError
from repro.runtime.faults import (
    POISON,
    TRANSIENT,
    ChunkTimeoutError,
    FaultPolicy,
    classify_failure,
)
from repro.runtime.pool import (
    _chunked,
    _evaluate_genotype_chunk,
    _evaluate_supernet_chunk,
    _fork_available,
    import_compute,
)
from repro.runtime.telemetry import Telemetry
from repro.runtime.tracing import (
    CAT_DISPATCH,
    CAT_FAULT,
    CAT_GATHER,
    CAT_MERGE,
    CAT_WORKER,
)
from repro.searchspace.canonical import canonicalize
from repro.searchspace.genotype import Genotype


# ----------------------------------------------------------------------
# The transport: submit/gather over futures with a serial-lazy fallback
# ----------------------------------------------------------------------
class WorkerSpan(NamedTuple):
    """Where and when one task's worker ran: its process and thread, the
    epoch second it started and how long it took."""

    pid: int
    tid: int
    start: float
    duration: float


def _timed_call(worker: Callable, payload: object):
    """``(worker(payload), span)``, timed where the worker runs.

    A raising worker's exception is re-raised unchanged, with the span
    attached as ``worker_span`` (an exception pickles its attributes, so
    the span crosses the fork pipe with it).  The value is never touched.
    """
    start = time.time()
    perf = time.perf_counter()
    try:
        value = worker(payload)
    except BaseException as exc:
        exc.worker_span = WorkerSpan(os.getpid(), threading.get_ident(),
                                     start, time.perf_counter() - perf)
        raise
    return value, WorkerSpan(os.getpid(), threading.get_ident(), start,
                             time.perf_counter() - perf)


@dataclass
class TaskResult:
    """One completed task, in the order :meth:`FuturePool.gather` saw it.

    A task whose worker raised completes with ``error`` set and ``value``
    ``None`` — it still leaves the pending queue, so one poisoned chunk
    can neither wedge the pool nor drop the results of siblings gathered
    in the same call.  A task that outlived its deadline completes with a
    :class:`~repro.runtime.faults.ChunkTimeoutError`.  ``span`` is the
    worker's :class:`WorkerSpan` whenever the worker returned or raised;
    it is ``None`` only when no worker reported (a deadline expiry, a
    lost worker).
    """

    task_id: int
    tag: object
    value: object
    error: Optional[BaseException] = None
    span: Optional[WorkerSpan] = None


class _PendingTask:
    """One submitted-but-ungathered task.

    Keeps the worker and payload alongside the live future so the pool
    can *resubmit* the task after a pool death (``future`` is replaced,
    identity and tag survive).  The pending list stays a plain reorderable
    list of these — the completion-order fuzzing harness permutes it.
    """

    __slots__ = ("task_id", "tag", "worker", "payload", "future", "deadline")

    def __init__(self, task_id: int, tag: object, worker: Callable,
                 payload: object, future: object,
                 deadline: Optional[float]) -> None:
        self.task_id = task_id
        self.tag = tag
        self.worker = worker
        self.payload = payload
        self.future = future      # None under the serial fallback
        self.deadline = deadline  # monotonic seconds; None = no deadline


class FuturePool:
    """Submit tasks now, collect whichever finishes first later.

    ``n_workers`` selects the backend:

    * one worker, or a platform without the fork start method — no pool
      at all: tasks are queued as thunks and run lazily, FIFO, inside
      :meth:`gather` (``mode == "serial"``), the completion order a
      single-worker pool would produce, without fork overhead;
    * more workers — a fork-based :class:`~concurrent.futures.
      ProcessPoolExecutor` (``mode == "fork"``): workers inherit the
      pure-NumPy substrate.

    **Deadlines.**  With ``chunk_timeout`` set, a task that *runs* longer
    than the timeout is expired during :meth:`gather`: its future is
    cancelled, and it completes with a :class:`~repro.runtime.faults.
    ChunkTimeoutError`.  The clock starts when the task starts executing
    (queued tasks don't age).  A running future usually cannot be
    cancelled — the worker is *hung* and keeps occupying its slot; the
    pool tracks these and, once every worker is wedged behind one,
    terminates the workers and respawns the pool.

    **Pool death.**  ``BrokenProcessPool`` (a worker died mid-task, e.g.
    segfault or ``os._exit``) does not kill the run: the pool terminates
    the broken backend, spawns a fresh one and resubmits every lost
    in-flight task exactly once per death.  Each recovery — death or
    hung-worker sweep — spends one unit of the ``max_respawns`` budget;
    past the budget, pending tasks complete with the error instead.
    """

    #: Poll interval while waiting for queued tasks to start running
    #: (only relevant when a deadline is configured).
    _POLL_SECONDS = 0.05

    def __init__(self, n_workers: Optional[int] = None,
                 chunk_timeout: Optional[float] = None,
                 max_respawns: int = 3,
                 telemetry: Optional[Telemetry] = None) -> None:
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers < 1:
            raise SearchError("n_workers must be >= 1")
        if chunk_timeout is not None and not chunk_timeout > 0:
            raise SearchError("chunk_timeout must be positive (or None)")
        self.n_workers = n_workers
        self.mode = ("fork" if n_workers > 1 and _fork_available()
                     else "serial")
        if self.mode == "fork":
            # Loaded with a fork pool, not with this module: a serial run
            # never uses it, and it brings ``logging`` along.
            import concurrent.futures  # noqa: F401
        self.chunk_timeout = chunk_timeout
        self.max_respawns = max_respawns
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry.disabled())
        self._pool = None
        self._next_id = 0
        #: Pending tasks in submission order.
        self._pending: List[_PendingTask] = []
        #: Abandoned (timed-out, uncancellable) futures still occupying
        #: worker slots.
        self._hung: List[object] = []
        self.respawns = 0            # backend recoveries performed

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=multiprocessing.get_context("fork"),
            )
        return self._pool

    def _deadline(self) -> Optional[float]:
        if self.chunk_timeout is None:
            return None
        return time.monotonic() + self.chunk_timeout

    def submit(self, worker: Callable, payload: object,
               tag: object = None) -> int:
        """Queue one task; returns its id.  Never blocks.

        Submitting into a broken pool respawns it first (within the
        respawn budget) instead of propagating ``BrokenProcessPool``.
        """
        task_id = self._next_id
        self._next_id += 1
        if self.mode == "serial":
            # Deferred thunk: runs inside gather(), so submission really is
            # instantaneous and completion order is FIFO by construction.
            future = None
        else:
            from concurrent.futures import BrokenExecutor

            try:
                future = self._ensure_pool().submit(_timed_call, worker,
                                                    payload)
            except (BrokenExecutor, RuntimeError):
                # Broken (or shut-down-by-breakage) backend: recover and
                # retry once; a spent budget propagates the failure.
                if not self._respawn():
                    raise
                future = self._ensure_pool().submit(_timed_call, worker,
                                                    payload)
        self._pending.append(_PendingTask(task_id, tag, worker, payload,
                                          future, self._deadline()))
        return task_id

    @property
    def num_pending(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Fault mechanics
    # ------------------------------------------------------------------
    def _respawn(self) -> bool:
        """Replace the backend and resubmit every pending task.

        Returns ``False`` (doing nothing) when the respawn budget is
        spent.  The old backend's workers are terminated first so hung
        or crashed processes don't linger.
        """
        if self.respawns >= self.max_respawns:
            return False
        self.respawns += 1
        self.telemetry.count("pool.respawns")
        with self.telemetry.span("pool_respawn", CAT_FAULT,
                                 resubmitted=len(self._pending)):
            pool, self._pool = self._pool, None
            self._hung = []
            if pool is not None:
                for process in list((getattr(pool, "_processes", None)
                                     or {}).values()):
                    try:
                        process.terminate()
                    except Exception:
                        pass
                try:
                    pool.shutdown(wait=False, cancel_futures=True)
                except Exception:
                    pass
            fresh = self._ensure_pool()
            for task in self._pending:
                task.future = fresh.submit(_timed_call, task.worker,
                                           task.payload)
                task.deadline = self._deadline()
        return True

    def _expire_overdue(self, results: List[TaskResult]) -> None:
        """Expire running tasks past their deadline into ``results``."""
        if self.chunk_timeout is None:
            return
        now = time.monotonic()
        still: List[_PendingTask] = []
        for task in self._pending:
            future = task.future
            if future.done():
                still.append(task)  # collected by the wait path
            elif not future.running():
                # Still queued: the deadline clock starts at dispatch.
                task.deadline = now + self.chunk_timeout
                still.append(task)
            elif task.deadline is not None and now >= task.deadline:
                if not future.cancel():
                    # Uncancellable = genuinely executing = hung worker.
                    self._hung.append(future)
                results.append(TaskResult(
                    task.task_id, task.tag, None,
                    ChunkTimeoutError(
                        f"chunk exceeded its {self.chunk_timeout:g}s "
                        "deadline"),
                ))
            else:
                still.append(task)
        self._pending = still

    def _expire_all(self, results: List[TaskResult],
                    error: Optional[BaseException] = None) -> None:
        """Fail every pending task (respawn budget spent, can't progress)."""
        for task in self._pending:
            if error is None:
                task_error: BaseException = ChunkTimeoutError(
                    "all workers hung and the respawn budget is spent")
            else:
                task_error = error
            results.append(TaskResult(task.task_id, task.tag, None,
                                      task_error))
        self._pending = []

    def _wait_timeout(self) -> Optional[float]:
        """How long the next ``wait`` may block before a deadline check."""
        if self.chunk_timeout is None:
            return None
        deadlines = [task.deadline for task in self._pending
                     if task.deadline is not None and task.future.running()]
        if not deadlines:
            return self._POLL_SECONDS  # queued tasks: poll for startup
        return max(0.0, min(deadlines) - time.monotonic()) + 0.01

    # ------------------------------------------------------------------
    def gather(self, k: int = 1) -> List[TaskResult]:
        """Block until at least ``k`` pending tasks finish; return them
        **in completion order** (FIFO under the serial fallback).  Fewer
        than ``k`` pending gathers everything; ``k <= 0`` is an error."""
        if k <= 0:
            raise SearchError("gather needs k >= 1 (use gather_all)")
        k = min(k, len(self._pending))
        if k == 0:
            return []
        results: List[TaskResult] = []
        if self.mode == "serial":
            take, self._pending = self._pending[:k], self._pending[k:]
            for task in take:
                try:
                    value, span = _timed_call(task.worker, task.payload)
                    results.append(TaskResult(task.task_id, task.tag, value,
                                              span=span))
                except Exception as exc:
                    results.append(TaskResult(task.task_id, task.tag, None,
                                              exc, exc.worker_span))
        else:
            from concurrent.futures import (
                FIRST_COMPLETED,
                BrokenExecutor,
                wait,
            )

            while len(results) < k and self._pending:
                self._expire_overdue(results)
                if len(results) >= k or not self._pending:
                    break
                if len(self._hung) >= self.n_workers:
                    # Every worker is wedged behind an abandoned future:
                    # nothing pending can ever start.
                    if not self._respawn():
                        self._expire_all(results)
                        break
                futures = {task.future for task in self._pending}
                done, _ = wait(futures, timeout=self._wait_timeout(),
                               return_when=FIRST_COMPLETED)
                if not done:
                    continue  # deadline sweep runs next iteration
                still_pending: List[_PendingTask] = []
                broken: Optional[BaseException] = None
                for task in self._pending:
                    if task.future not in done:
                        still_pending.append(task)
                        continue
                    try:
                        value, span = task.future.result()
                        results.append(TaskResult(task.task_id, task.tag,
                                                  value, span=span))
                    except BrokenExecutor as exc:
                        # The pool died under this task — keep it (and
                        # everything else) pending for resubmission.
                        broken = exc
                        still_pending.append(task)
                    except Exception as exc:
                        results.append(TaskResult(
                            task.task_id, task.tag, None, exc,
                            getattr(exc, "worker_span", None)))
                self._pending = still_pending
                if broken is not None and not self._respawn():
                    self._expire_all(results, error=broken)
        return results

    def gather_all(self) -> List[TaskResult]:
        """Gather every pending task (empty list when nothing is pending)."""
        if not self._pending:
            return []
        return self.gather(len(self._pending))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the backing pool down *now* (idempotent, never raises).

        Pending serial thunks are dropped and queued futures cancelled —
        their results would be discarded anyway, and an aborted run must
        not block behind a backlog of straggler chunks; only tasks
        already executing are waited out.  A broken backend or hung
        workers cannot make close raise or block: with hung workers the
        shutdown doesn't wait (the workers are terminated outright), so
        harness cleanup never masks the failure that triggered it.
        """
        pool, self._pool = self._pool, None
        self._pending = []
        hung, self._hung = bool(self._hung), []
        if pool is None:
            return
        try:
            if hung:
                for process in list((getattr(pool, "_processes", None)
                                     or {}).values()):
                    try:
                        process.terminate()
                    except Exception:
                        pass
            pool.shutdown(wait=not hung, cancel_futures=True)
        except Exception:
            # A pool that broke mid-run may fail its own shutdown;
            # cleanup must stay silent so the original error surfaces.
            pass

    def __enter__(self) -> "FuturePool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# The engine adapter
# ----------------------------------------------------------------------
@dataclass
class AsyncPoolStats:
    """Cumulative accounting of one :class:`AsyncPopulationExecutor`."""

    mode: str = "serial"
    n_workers: int = 1
    dispatches: int = 0       # submit_* calls that shipped >= 1 chunk
    chunks: int = 0           # chunk futures submitted
    # gather() calls that drained >= 1 chunk — landed *or failed*: an
    # all-failure gather still synchronised with the pool, and reports
    # must not understate how often that happened.
    gathers: int = 0
    flushes: int = 0          # on_gather flush-hook invocations
    tasks: int = 0            # candidate rows computed by workers
    merged_rows: int = 0      # cache entries merged
    # Candidates skipped at submit time because a submitted-but-ungathered
    # chunk already owned every key they were missing.
    dedupe_hits: int = 0
    retries: int = 0          # transient chunk failures retried
    timeouts: int = 0         # chunks expired past their deadline
    respawns: int = 0         # pool backends replaced after death/hang
    quarantined: int = 0      # poison candidates quarantined
    # Summed worker spans of every gathered task, landed or raised.
    worker_seconds: float = 0.0
    # None = no utilisation data yet (no worker has reported a span) —
    # deliberately distinct from 0.0, "no idle at all".
    idle_fraction: Optional[float] = None
    span_seconds: float = 0.0  # first submit to last gather

    def to_dict(self) -> Dict:
        return asdict(self)


@dataclass
class GatheredChunk:
    """What one landed chunk contributed (the search loop's event unit).

    A quarantine event surfaces as a chunk with empty indices/states and
    the offender in ``quarantined_indices`` / ``quarantined_states`` —
    the search loop's signal to stop waiting for (and stop re-proposing)
    that candidate.
    """

    kind: str                      # "genotype" | "supernet"
    canonical_indices: Tuple[int, ...] = ()   # genotype chunks
    states: Tuple = ()             # supernet chunks
    merged_rows: int = 0
    worker_seconds: float = 0.0
    quarantined_indices: Tuple[int, ...] = ()
    quarantined_states: Tuple = ()


#: The :class:`GatheredChunk` fields that report a landed and a
#: quarantined candidate of each kind.
_EVENT_FIELDS = {"genotype": ("canonical_indices", "quarantined_indices"),
                 "supernet": ("states", "quarantined_states")}


class ChunkGatherError(SearchError):
    """One or more chunk workers raised during a gather.

    The sibling chunks that *did* land are not lost: their rows were
    merged into their engines' caches before this was raised, and they
    ride along as :attr:`gathered` so an error-tolerant caller can still
    react to them (commit candidates, update bookkeeping).  The first
    worker exception is the ``__cause__``; all of them are in
    :attr:`failures`.  If the gather's ``on_gather`` flush hook *also*
    raised, that exception rides along as :attr:`flush_error` (worker
    failures take precedence, but a store problem must stay visible).
    """

    def __init__(self, failures: List[BaseException],
                 gathered: List[GatheredChunk]) -> None:
        super().__init__(
            f"{len(failures)} chunk worker(s) raised during gather "
            f"(first: {failures[0]!r}); {len(gathered)} sibling chunk(s) "
            "landed and merged before the error"
        )
        self.failures = failures
        self.gathered = gathered
        self.flush_error: Optional[BaseException] = None


class _ChunkContext:
    """Submission-time context a gathered chunk needs to merge itself —
    and, under a fault policy, to retry, bisect or quarantine itself:
    the chunk's items, their candidate identities and per-item key
    claims ride along so a failed chunk can be resubmitted (or split)
    without re-deriving anything."""

    __slots__ = ("kind", "engine", "worker", "items", "identities",
                 "item_claims", "keys", "attempts", "chunk_id")

    def __init__(self, kind: str, engine, worker: Callable, items: Tuple,
                 identities: Tuple, item_claims: Tuple, attempts: int = 0,
                 chunk_id: Optional[int] = None) -> None:
        self.kind = kind
        self.engine = engine
        self.worker = worker
        self.items = items              # the (head, needs) chunk slice
        self.identities = identities    # per-item candidate identities
        self.item_claims = item_claims  # per-item claimed key tuples
        self.attempts = attempts        # completed attempts of THIS chunk
        #: Telemetry correlation key: ties the chunk's dispatch span to
        #: its worker-compute and merge spans across retries/bisection.
        self.chunk_id = chunk_id
        #: Pending-set members to release on landing (all claims, flat).
        self.keys = tuple(key for claims in item_claims for key in claims)

    def split(self) -> Tuple["_ChunkContext", "_ChunkContext"]:
        """Bisect into two halves (identities and claims follow their
        items; halves keep the parent's chunk id so the trace shows one
        lineage)."""
        mid = len(self.items) // 2
        return tuple(
            _ChunkContext(self.kind, self.engine, self.worker,
                          self.items[lo:hi], self.identities[lo:hi],
                          self.item_claims[lo:hi], chunk_id=self.chunk_id)
            for lo, hi in ((0, mid), (mid, len(self.items))))


class AsyncPopulationExecutor:
    """Submit population chunks as futures; merge results as they land.

    The two halves compose with the engine like this::

        executor.submit_population(engine, candidates)   # never blocks
        ... mutate / select while workers compute ...
        for chunk in executor.gather(1):                 # completion order
            ...react to chunk.canonical_indices...       # rows now cached
        engine.evaluate_population(candidates)           # pure cache reads

    In-flight dedupe: a candidate whose missing indicators are already
    owned by a submitted-but-ungathered chunk is *not* resubmitted —
    mutation loops revisit architectures constantly, and double-computing
    them would waste exactly the capacity the async runtime frees up.

    **Fault policy.**  Pass a recovering ``fault_policy=`` (and
    ``quarantine_ledger=`` to persist quarantine decisions in the store
    directory): transient failures retry with deterministic backoff,
    poison chunks bisect down to the offending candidate which is
    quarantined and never re-shipped — submits consult the quarantine
    sets, which are seeded from the ledger, so a restart keeps earlier
    decisions.  The default, ``FaultPolicy(max_retries=0,
    quarantine=False)``, recovers nothing: every worker failure raises
    :class:`ChunkGatherError` once the sibling chunks have merged.

    The blocking ``warm_population`` / ``warm_supernets`` calls serve
    the engine that owns this executor (``Engine(executor=...)``).
    """

    def __init__(self, n_workers: Optional[int] = None, chunk_size: int = 8,
                 genotype_worker: Callable = _evaluate_genotype_chunk,
                 supernet_worker: Callable = _evaluate_supernet_chunk,
                 fault_policy: Optional[FaultPolicy] = None,
                 quarantine_ledger=None,
                 telemetry: Optional[Telemetry] = None,
                 pool=None,
                 ) -> None:
        if chunk_size < 1:
            raise SearchError("chunk_size must be >= 1")
        if fault_policy is None:
            fault_policy = FaultPolicy(max_retries=0, quarantine=False)
        self.fault_policy = fault_policy
        self.quarantine_ledger = quarantine_ledger
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry.disabled())
        if pool is not None:
            # Transport injection: anything with FuturePool's submit,
            # gather, num_pending, close, mode, n_workers and respawns
            # slots in here; scheduling, dedupe, fault policy, drain
            # logic and the books below never look past those seven
            # members.
            self.pool = pool
        else:
            self.pool = FuturePool(
                n_workers=n_workers,
                chunk_timeout=fault_policy.chunk_timeout,
                max_respawns=fault_policy.max_respawns,
                telemetry=self.telemetry,
            )
        self.n_workers = self.pool.n_workers
        self.chunk_size = chunk_size
        self.genotype_worker = genotype_worker
        self.supernet_worker = supernet_worker
        self.stats = AsyncPoolStats(mode=self.pool.mode,
                                    n_workers=self.pool.n_workers)
        #: Monotone chunk ids — the telemetry correlation key tying a
        #: dispatch span to its worker-compute and merge spans.
        self._next_chunk_id = 0
        #: The utilisation window opens at the first submit
        #: (``perf_counter`` seconds) and closes at the latest gather.
        self._first_submit: Optional[float] = None
        #: Cache keys owned by in-flight chunks, per engine identity —
        #: the in-flight half of the dedupe (the cache is the landed half).
        self._in_flight: Dict[int, set] = {}
        #: Quarantined candidate identities — consulted at submit time so
        #: a poison candidate is never shipped again.  Seeded from the
        #: ledger (when given), so the set survives restarts.
        self.quarantined_genotypes: set = set()
        self.quarantined_states: set = set()
        if quarantine_ledger is not None:
            self.quarantined_genotypes |= quarantine_ledger.identities(
                "genotype")
            self.quarantined_states |= quarantine_ledger.identities(
                "supernet")
        #: Set by :meth:`request_drain` (the harness's signal handlers):
        #: search loops consult it to stop proposing new work while the
        #: executor stays fully functional for gathering what's in flight.
        self.drain_requested = False
        #: Called after every gather that drained >= 1 chunk, with the
        #: chunks that landed (possibly empty when all failed) — the seam
        #: the harness uses for O(delta) mid-run store flushes, so rows
        #: persist the moment they merge instead of only at run end.
        self.on_gather: Optional[
            Callable[[List["GatheredChunk"]], None]] = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _pending_keys(self, engine) -> set:
        return self._in_flight.setdefault(id(engine), set())

    def request_drain(self) -> None:
        """Ask search loops to stop proposing new work (sticky flag).

        Gathering, merging and store flushing stay fully functional —
        drain means *finish what's in flight, start nothing new*.
        """
        self.drain_requested = True

    def submit_population(self, engine, genotypes: Sequence[Genotype],
                          assume_canonical: bool = False) -> int:
        """Submit missing unique-canonical indicator rows; returns the
        number of chunk futures shipped (0 = everything cached or already
        in flight).  Never blocks.  Quarantined candidates are skipped.
        FLOPs and latency stay in the parent, priced by its cost models
        (LUT composition and FLOP counts are cheap, the profiled estimator
        lives there)."""
        canons = (genotypes if assume_canonical
                  else [canonicalize(genotype) for genotype in genotypes])
        return self._submit("genotype", engine,
                            {canon.to_index(): canon.ops for canon in canons},
                            self.genotype_worker)

    def submit_supernets(self, engine, spec_lists: Sequence[Sequence]
                         ) -> int:
        """Submit missing supernet-state rows; returns chunks shipped."""
        states = [supernet_state_key(specs) for specs in spec_lists]
        return self._submit("supernet", engine,
                            {state: state for state in states},
                            self.supernet_worker)

    def _quarantined(self, kind: str) -> set:
        return (self.quarantined_genotypes if kind == "genotype"
                else self.quarantined_states)

    def _submit(self, kind: str, engine, heads: Dict, worker: Callable
                ) -> int:
        """Ship the rows that ``heads`` (candidate identity -> the chunk
        head a worker computes from: canonical ops or a state) miss;
        returns the number of chunks shipped.

        A quarantined candidate is skipped.  Any other gets a need mask
        over its :meth:`~repro.engine.core.Engine.proxy_row_keys`: a row
        is needed when neither cached nor claimed by a chunk in flight,
        and the chunk that ships it claims it.  A candidate with nothing
        needed but a claimed row is an in-flight dedupe hit.
        """
        quarantined = self._quarantined(kind)
        pending = self._pending_keys(engine)
        todo: List[Tuple] = []  # (identity, (head, needs), claimed keys)
        for identity, head in heads.items():
            if identity in quarantined:
                continue
            keys = engine.proxy_row_keys(kind, identity).values()
            needs = tuple(key not in engine.cache and key not in pending
                          for key in keys)
            if any(needs):
                todo.append((identity, (head, needs),
                             tuple(key for key, need in zip(keys, needs)
                                   if need)))
            elif any(key in pending for key in keys):
                self.stats.dedupe_hits += 1
                self.telemetry.count("executor.dedupe_hits")
        if not todo:
            return 0
        # The first chunk that computes loads the proxies here, in the
        # parent, before the first submit forks a pool.
        import_compute()
        # A serial pool runs one chunk at a time, whatever its n_workers.
        workers = 1 if self.pool.mode == "serial" else self.n_workers
        chunks = _chunked(todo, self.chunk_size, workers)
        for chunk in chunks:
            identities, items, claims = zip(*chunk)
            context = _ChunkContext(kind, engine, worker, items, identities,
                                    claims, chunk_id=self._next_chunk_id)
            self._next_chunk_id += 1
            pending.update(context.keys)
            self._dispatch(context)
        self.stats.dispatches += 1
        self.stats.chunks += len(chunks)
        self.telemetry.gauge("executor.in_flight", self.pool.num_pending)
        return len(chunks)

    def _dispatch(self, context: _ChunkContext, **args) -> None:
        """Submit one chunk context to the transport (its claims are
        already held); the first submit opens the utilisation window.
        Both kinds ship ``(items, proxy_config)``."""
        if self._first_submit is None:
            self._first_submit = time.perf_counter()
        with self.telemetry.span("dispatch", CAT_DISPATCH,
                                 chunk=context.chunk_id, kind=context.kind,
                                 items=len(context.items), **args):
            self.pool.submit(context.worker,
                             (context.items, context.engine.proxy_config),
                             tag=context)

    # ------------------------------------------------------------------
    # Gathering
    # ------------------------------------------------------------------
    @property
    def num_pending(self) -> int:
        """Chunk futures submitted but not yet gathered."""
        return self.pool.num_pending

    def _account(self, result: TaskResult) -> float:
        """Book one gathered task and return its worker's seconds (0.0
        when no worker reported): the one place the runtime's books and
        worker telemetry are kept, whichever transport ran the chunk."""
        tel = self.telemetry
        if isinstance(result.error, ChunkTimeoutError):
            self.stats.timeouts += 1
            tel.count("executor.timeouts")
        span = result.span
        if span is None:
            return 0.0
        self.stats.worker_seconds += span.duration
        if tel.enabled:
            # One compute span on the worker's pid/tid track, plus the
            # per-chunk worker metrics.
            args = {"chunk": result.tag.chunk_id}
            if result.error is not None:
                args["error"] = type(result.error).__name__
            else:
                args["rows"] = len(result.value)
                tel.count("worker.chunks")
                tel.count("worker.rows", len(result.value))
                tel.observe("worker_chunk_seconds", span.duration)
            tel.tracer.record("worker_compute", CAT_WORKER, span.start,
                              span.duration, pid=span.pid, tid=span.tid,
                              args=args)
        return span.duration

    def _merge_landed(self, context: _ChunkContext, rows: List[Tuple],
                      seconds: float) -> GatheredChunk:
        """Merge one landed chunk into its engine's cache; release its
        claims; return the search-loop event."""
        engine = context.engine
        tel = self.telemetry
        with tel.span("merge", CAT_MERGE, chunk=context.chunk_id,
                      kind=context.kind) as span:
            keyed: List[Tuple[Tuple, float]] = []
            for identity, row, spent in rows:
                for entry, entry_seconds in spent.items():
                    engine.ledger.add(entry, entry_seconds)
                keys = engine.proxy_row_keys(context.kind, identity)
                keyed.extend((keys[name], value)
                              for name, value in row.items())
            merged = engine.merge_indicator_rows(keyed)
            self._pending_keys(engine).difference_update(context.keys)
            self.stats.tasks += len(rows)
            self.stats.merged_rows += merged
            span.note(rows=len(rows), merged=merged)
            tel.count("executor.evals", len(rows))
            tel.count("executor.merged_rows", merged)
            tel.gauge("executor.in_flight", self.pool.num_pending)
        landed = _EVENT_FIELDS[context.kind][0]
        return GatheredChunk(kind=context.kind, merged_rows=merged,
                             worker_seconds=seconds,
                             **{landed: tuple(identity
                                              for identity, _, _ in rows)})

    def _quarantine(self, context: _ChunkContext,
                    error: BaseException) -> GatheredChunk:
        """Quarantine the single candidate of a bisected-down context."""
        identity = context.identities[0]
        self._quarantined(context.kind).add(identity)
        if self.quarantine_ledger is not None:
            self.quarantine_ledger.add(context.kind, identity,
                                       reason=repr(error),
                                       attempts=context.attempts + 1)
        self._pending_keys(context.engine).difference_update(context.keys)
        self.stats.quarantined += 1
        self.telemetry.count("executor.quarantined")
        field = _EVENT_FIELDS[context.kind][1]
        return GatheredChunk(kind=context.kind, **{field: (identity,)})

    def _handle_failure(self, context: _ChunkContext,
                        error: BaseException,
                        failures: List[BaseException],
                        gathered: List[GatheredChunk]) -> int:
        """React to one failed chunk under the fault policy.

        Returns the number of *resolved* chunk events (0 when the chunk
        was retried or bisected and is back in flight).
        """
        policy = self.fault_policy
        label = classify_failure(error)
        if label == TRANSIENT and context.attempts < policy.max_retries:
            self.stats.retries += 1
            self.telemetry.count("executor.retries")
            context.attempts += 1
            delay = policy.backoff_delay(
                (context.kind, context.keys), context.attempts - 1)
            with self.telemetry.span("backoff_wait", CAT_FAULT,
                                     chunk=context.chunk_id,
                                     attempt=context.attempts,
                                     delay_seconds=delay):
                policy.sleep(delay)
            self._dispatch(context, resubmit=True)
            return 0
        if label == POISON and policy.quarantine:
            if len(context.items) > 1:
                # One bad candidate mustn't sink its chunk-mates: split
                # and retry the halves (claims follow their items).
                for half in context.split():
                    self._dispatch(half, resubmit=True)
                return 0
            gathered.append(self._quarantine(context, error))
            return 1
        # Worker-lost past the respawn budget, transient past the retry
        # budget, or quarantine disabled: surface as a plain failure.
        self._pending_keys(context.engine).difference_update(context.keys)
        failures.append(error)
        return 1

    def gather(self, k: int = 1) -> List[GatheredChunk]:
        """Block until ``k`` chunks land; merge each into its engine's
        cache immediately and return them in completion order.  Gathers
        everything when fewer than ``k`` chunks are pending; returns
        ``[]`` when nothing is.

        A chunk failure the fault policy cannot recover (with the default
        policy: every failure) surfaces as :class:`ChunkGatherError` —
        but only after the sibling chunks gathered in the same call have
        merged (they ride along on the error's ``gathered`` attribute)
        and the failed chunk's in-flight key claims have been released,
        so the executor stays drainable and the candidates can be
        resubmitted.  Transient failures within the retry budget retry,
        and poison chunks bisect/quarantine when the policy quarantines.
        """
        with self.telemetry.span("gather", CAT_GATHER, requested=k,
                                 pending=self.pool.num_pending) as span:
            gathered: List[GatheredChunk] = []
            failures: List[BaseException] = []
            drain_all = k >= self.pool.num_pending
            resolved = 0
            saw_results = False
            while self.pool.num_pending and (drain_all or resolved < k):
                for result in self.pool.gather(1):
                    saw_results = True
                    context: _ChunkContext = result.tag
                    seconds = self._account(result)
                    if result.error is None:
                        gathered.append(self._merge_landed(
                            context, result.value, seconds))
                        resolved += 1
                    else:
                        resolved += self._handle_failure(
                            context, result.error, failures, gathered)
            chunks = self._finish_gather(gathered, failures, saw_results)
            span.note(chunks=len(chunks))
        return chunks

    def _finish_gather(self, gathered: List[GatheredChunk],
                       failures: List[BaseException],
                       saw_results: bool) -> List[GatheredChunk]:
        stats = self.stats
        if saw_results:
            # Count the gather even when every chunk in it failed —
            # the loop still synchronised with the pool, and reports
            # must not understate that.
            stats.gathers += 1
            stats.span_seconds = time.perf_counter() - self._first_submit
            capacity = self.n_workers * stats.span_seconds
            if stats.worker_seconds > 0.0 and capacity > 0.0:
                stats.idle_fraction = max(
                    0.0, 1.0 - stats.worker_seconds / capacity)
        stats.respawns = self.pool.respawns
        flush_error: Optional[BaseException] = None
        if saw_results and self.on_gather is not None:
            # Flush before surfacing failures: the sibling chunks that
            # landed are already merged and deserve to be persisted.
            self.stats.flushes += 1
            try:
                self.on_gather(gathered)
            except Exception as exc:
                # Never let a store hiccup mask ChunkGatherError — the
                # caller needs the worker failures and landed chunks it
                # carries.  With no worker failures the flush error
                # surfaces itself (and a transient one re-surfaces on
                # the next gather anyway, when the rows are re-flushed).
                flush_error = exc
        if failures:
            error = ChunkGatherError(failures, gathered)
            error.flush_error = flush_error  # don't swallow a store error
            raise error from failures[0]
        if flush_error is not None:
            raise flush_error
        return gathered

    def gather_all(self) -> List[GatheredChunk]:
        """Gather every in-flight chunk (the barrier the sync hooks use)."""
        if self.num_pending == 0:
            return []
        return self.gather(self.num_pending)

    # ------------------------------------------------------------------
    # Blocking calls (the engine's compute path)
    # ------------------------------------------------------------------
    def warm_population(self, engine, genotypes: Sequence[Genotype],
                        assume_canonical: bool = True) -> int:
        """Submit + gather-all: how the engine computes genotype rows.

        ``assume_canonical`` defaults to ``True`` because the engine
        passes already-canonical forms (canonicalizing again would build
        a cell graph per candidate), while :meth:`submit_population`
        defaults to ``False`` because search loops submit raw mutants
        directly.
        """
        self.submit_population(engine, genotypes,
                               assume_canonical=assume_canonical)
        return sum(chunk.merged_rows for chunk in self.gather_all())

    def warm_supernets(self, engine, spec_lists: Sequence[Sequence]) -> int:
        self.submit_supernets(engine, spec_lists)
        return sum(chunk.merged_rows for chunk in self.gather_all())

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the transport down (idempotent; in-flight bookkeeping is
        cleared so a closed executor can be reused serially)."""
        self.pool.close()
        self._in_flight.clear()

    def __enter__(self) -> "AsyncPopulationExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


__all__ = [
    "AsyncPopulationExecutor",
    "AsyncPoolStats",
    "ChunkGatherError",
    "FuturePool",
    "GatheredChunk",
    "TaskResult",
    "WorkerSpan",
]
