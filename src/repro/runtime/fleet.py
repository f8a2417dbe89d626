"""Distributed evaluation fleet: a socket broker over the async seam.

The async runtime (PR 3) deliberately left one seam open: the
:class:`~repro.runtime.async_pool.AsyncPopulationExecutor` talks to its
transport only through the ``FuturePool`` submit/gather contract, and its
chunk workers are plain picklable callables.  This module plugs a
multi-process / multi-host transport into that seam:

* :class:`FleetBroker` — a TCP socket broker living in the driver
  process.  Workers *register*, then *lease* chunk payloads one at a
  time; each lease carries a deadline.  The broker reports failures and
  never retries: a chunk whose lease expires completes with a
  :class:`~repro.runtime.faults.ChunkTimeoutError`, and a chunk whose
  worker disconnects mid-lease completes with
  :class:`FleetWorkerLostError`.  Both are classified *transient*, so
  the executor's :class:`~repro.runtime.faults.FaultPolicy` — the one
  owner of retries — resubmits them under its normal budget and
  deterministic backoff.
* :class:`FleetPool` — the driver-side transport implementing the
  contract the executor relies on (``submit`` / ``gather`` in
  completion order / ``num_pending`` / ``close`` / ``mode`` /
  ``n_workers`` / ``respawns``), so the executor, fault taxonomy,
  quarantine ledger, telemetry spans and graceful drain all compose
  unchanged.  Each result or error frame carries the worker's pid,
  thread id and compute duration, which come back as the chunk's
  :class:`~repro.runtime.async_pool.WorkerSpan`, anchored on the
  driver's clock at arrival.  The pool records no telemetry and keeps
  no books: the executor times, counts and traces every chunk from
  those results.  A chunk's queue wait is the gap between its
  ``dispatch`` span and its ``worker_compute`` span.
* :func:`run_worker` — the worker client loop behind ``micronas fleet
  worker --connect HOST:PORT --store DIR``: lease, evaluate through the
  shipped picklable chunk worker, report back, repeat until the broker
  says *drain*.  With a ``--store`` the worker **warm-starts from the
  shared store** before computing: it keeps one resident cache per
  fingerprint for its lifetime and, before each chunk, **follows the
  segment log** — it reads only the base and segment files it has not
  read yet (:meth:`~repro.runtime.store.RuntimeStore.follow_cache_into`),
  so a late joiner inherits everything already computed with one replay,
  and each later chunk costs the new segments alone.  It
  **flushes freshly computed rows back** under the store's existing
  append flocks — the store is the fleet's shared medium, and
  duplicate appends from racing workers are harmless under the store's
  last-write-wins replay because the determinism contract makes the
  values bit-identical.

**Elastic membership.**  Workers may join and leave (or be killed) at
any point mid-search: a lost worker's leased chunks fail as transient,
the executor resubmits them, and whoever leases them next recomputes
them bit-identically.  A result for a chunk the broker has already
completed (an expired lease whose worker finished after all) is
counted as a straggler and dropped.  Nothing a worker already flushed
to the store is ever lost.  The ``fleet``-marked tests pin the
headline property: SIGKILL a worker mid-lease, join another mid-run,
and the surviving rows are bit-identical to a fault-free serial run.

**Security.**  The wire format is length-prefixed :mod:`pickle` —
deserializing a pickle executes code, so the broker must only ever be
reachable from trusted hosts.  It binds ``127.0.0.1`` by default; an
optional shared ``token`` rejects accidental cross-talk between fleets
sharing a network, but it is an identity check, not an authentication
scheme.  Do not expose the broker port to untrusted networks.

Supernet chunk payloads carry no macro config, so workers cannot derive
the store fingerprint for them: they are evaluated directly (still
bit-identical — only the warm-start shortcut is skipped).
"""

from __future__ import annotations

import contextlib
import os
import pickle
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import astuple, dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.engine.cache import IndicatorCache
from repro.engine.core import genotype_indicator_keys
from repro.errors import SearchError
from repro.proxies.base import ProxyConfig
from repro.runtime.async_pool import TaskResult, WorkerSpan
from repro.runtime.faults import ChunkTimeoutError, TransientWorkerError
from repro.searchspace.genotype import Genotype
from repro.searchspace.specs import MacroConfig


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
class FleetProtocolError(SearchError):
    """A peer spoke something that is not the fleet wire protocol."""


class FleetRemoteError(SearchError):
    """A worker-side failure whose original exception could not travel.

    Raised driver-side in place of an unpicklable worker exception; the
    original type and message ride along in the text.  Classified
    *poison* by the fault taxonomy — exactly what a deterministic
    compute error deserves (transient infrastructure errors
    (``OSError`` etc.) always pickle, so they keep their types).
    """


class FleetWorkerLostError(TransientWorkerError):
    """A chunk's worker disconnected while it held the lease.

    A :class:`~repro.runtime.faults.TransientWorkerError`, so
    :func:`~repro.runtime.faults.classify_failure` maps it to
    ``transient`` and the executor retries the chunk under its normal
    budget: the candidate is fine, only the host running it went away.
    """


# ----------------------------------------------------------------------
# Wire protocol: 4-byte big-endian length prefix + pickled dict
# ----------------------------------------------------------------------
#: Upper bound on one wire message (a chunk payload is a handful of
#: genotype tuples + configs — far below this; a length past it means a
#: desynchronized or hostile peer).
_MSG_LIMIT = 64 << 20

#: How long a broker-side lease request may block waiting for work
#: before replying ``idle`` (server-side blocking keeps dispatch latency
#: low without fast client polling).
_LEASE_BLOCK_SECONDS = 0.05

#: Granularity of the broker's lease-expiry sweep while the driver
#: waits in gather (mirrors ``FuturePool._POLL_SECONDS``).
_SWEEP_SECONDS = 0.05


def _encode(message: Dict) -> bytes:
    """One wire frame: the length prefix plus the pickled message."""
    blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return struct.pack(">I", len(blob)) + blob


def _send_msg(sock: socket.socket, message: Dict) -> None:
    sock.sendall(_encode(message))


def _recv_exact(sock: socket.socket, n: int,
                should_stop: Optional[Callable[[], bool]] = None) -> bytes:
    """Read exactly ``n`` bytes; socket timeouts just re-poll (so a
    broker handler can notice shutdown via ``should_stop`` without ever
    losing partial-message bytes)."""
    buf = bytearray()
    while len(buf) < n:
        if should_stop is not None and should_stop():
            raise EOFError("broker shutting down")
        try:
            chunk = sock.recv(n - len(buf))
        except socket.timeout:
            if should_stop is None:
                raise
            continue
        if not chunk:
            raise EOFError("connection closed mid-message")
        buf.extend(chunk)
    return bytes(buf)


def _recv_msg(sock: socket.socket,
              should_stop: Optional[Callable[[], bool]] = None) -> Dict:
    (length,) = struct.unpack(">I", _recv_exact(sock, 4, should_stop))
    if length > _MSG_LIMIT:
        raise FleetProtocolError(
            f"wire message of {length} bytes exceeds the "
            f"{_MSG_LIMIT}-byte limit (desynchronized peer?)")
    message = pickle.loads(_recv_exact(sock, length, should_stop))
    if not isinstance(message, dict) or "op" not in message:
        raise FleetProtocolError("wire message is not an op dict")
    return message


def parse_address(text: str) -> Tuple[str, int]:
    """``"HOST:PORT"`` → ``(host, port)`` (the CLI/env address format)."""
    host, sep, port = str(text).rpartition(":")
    if not sep or not host:
        raise SearchError(f"fleet address must be HOST:PORT, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise SearchError(f"fleet address port must be an integer, "
                          f"got {text!r}")


# ----------------------------------------------------------------------
# Broker
# ----------------------------------------------------------------------
class _FleetTask:
    """One submitted chunk as the broker tracks it: queued until a
    worker leases it (``leased_to`` set), then completed once.  ``frame``
    is the task message, encoded once at submit."""

    __slots__ = ("task_id", "frame", "payload", "tag", "leased_to",
                 "deadline", "leased_wall", "span", "value", "error")

    def __init__(self, task_id: int, frame: bytes, payload: object,
                 tag: object) -> None:
        self.task_id = task_id
        self.frame = frame
        self.payload = payload
        self.tag = tag
        self.leased_to: Optional[int] = None
        self.deadline: Optional[float] = None  # monotonic seconds
        self.leased_wall: Optional[float] = None
        self.span: Optional[WorkerSpan] = None
        self.value: object = None
        self.error: Optional[BaseException] = None


class _WorkerSession:
    """One registered worker connection (broker-side bookkeeping)."""

    __slots__ = ("worker_id", "pid", "address", "leased", "graceful")

    def __init__(self, worker_id: int, pid: int, address: str) -> None:
        self.worker_id = worker_id
        self.pid = pid
        self.address = address
        self.leased: set = set()   # task ids currently leased here
        self.graceful = False      # sent "leave" before disconnecting


class FleetBroker:
    """TCP chunk broker: registration, leasing, expiry, elastic workers.

    Runs entirely on daemon threads inside the driver process — one
    accept loop plus one handler per connection; all shared state lives
    behind one lock.  The driver thread interacts through
    :meth:`submit` and :meth:`wait_completed` (which also runs the
    lease-expiry sweep, so expiries are detected even when no worker
    traffic arrives — the hung-worker case).

    Lease semantics: a task moves one way, queued → leased → completed,
    and the broker never retries it.  A lease whose deadline passes
    completes its chunk with :class:`~repro.runtime.faults.
    ChunkTimeoutError`; a worker that disconnects (or cannot be sent
    its task) completes every chunk it held with
    :class:`FleetWorkerLostError`.  Retrying either is the executor's
    :class:`~repro.runtime.faults.FaultPolicy`'s call, and a retry is a
    fresh submit.  A completed task is forgotten at once, so a result
    or error for an unknown task id — or for a chunk the reporting
    worker no longer holds — is a straggler: counted and dropped.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 lease_seconds: Optional[float] = None,
                 token: str = "") -> None:
        if lease_seconds is not None and lease_seconds <= 0:
            raise SearchError("lease_seconds must be positive (or None)")
        self.lease_seconds = lease_seconds
        self.token = token
        self._listener = socket.create_server((host, port))
        # Set before the accept thread starts: a broker closed at once
        # must not fail the thread on a closed listener.
        self._listener.settimeout(0.25)
        bound = self._listener.getsockname()
        self.host, self.port = bound[0], bound[1]
        self._lock = threading.Lock()
        self._queue_cv = threading.Condition(self._lock)
        self._completed_cv = threading.Condition(self._lock)
        self._tasks: Dict[int, _FleetTask] = {}  # queued + leased only
        self._queue: Deque[int] = deque()
        self._completed: Deque[_FleetTask] = deque()
        self._workers: Dict[int, _WorkerSession] = {}
        self._next_task_id = 0
        self._next_worker_id = 0
        self._closing = False
        self._draining = False
        # Counters (read for stats/benchmarks; guarded by self._lock).
        self.workers_joined = 0
        self.workers_lost = 0       # non-graceful disconnects
        self.leases = 0
        self.lease_expiries = 0     # chunks failed with ChunkTimeoutError
        self.lost_tasks = 0         # chunks failed with FleetWorkerLostError
        self.stragglers = 0         # results for chunks no longer held
        self.rejected = 0           # registrations refused (bad token)
        self._threads: List[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fleet-broker-accept",
            daemon=True)
        self._accept_thread.start()

    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """``HOST:PORT`` as workers should pass to ``--connect``."""
        return f"{self.host}:{self.port}"

    @property
    def num_workers(self) -> int:
        with self._lock:
            return len(self._workers)

    @property
    def num_pending(self) -> int:
        with self._lock:
            return len(self._tasks)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "workers_joined": self.workers_joined,
                "workers_lost": self.workers_lost,
                "leases": self.leases,
                "lease_expiries": self.lease_expiries,
                "lost_tasks": self.lost_tasks,
                "stragglers": self.stragglers,
            }

    # ------------------------------------------------------------------
    # Driver-side API
    # ------------------------------------------------------------------
    def submit(self, worker_fn: Callable, payload: object,
               tag: object = None) -> int:
        """Queue one chunk for leasing; returns its task id.  Never
        blocks (workers pull — nothing is pushed).  The task frame is
        pickled here, so an unpicklable worker or payload raises in the
        caller and nothing is queued."""
        with self._lock:
            task_id = self._next_task_id
            frame = _encode({
                "op": "task",
                "task_id": task_id,
                "worker": worker_fn,
                "payload": payload,
                "lease_seconds": self.lease_seconds,
            })
            self._next_task_id += 1
            task = _FleetTask(task_id, frame, payload, tag)
            self._tasks[task_id] = task
            self._queue.append(task_id)
            self._queue_cv.notify()
        return task_id

    def wait_completed(self, timeout: float = _SWEEP_SECONDS
                       ) -> List[_FleetTask]:
        """Completed tasks since the last call (possibly empty), waiting
        up to ``timeout`` for one to land.  Also runs the lease-expiry
        sweep, so calling this in a loop *is* the broker's clock."""
        with self._completed_cv:
            self._sweep_expired_locked()
            if not self._completed and not self._closing:
                self._completed_cv.wait(min(timeout, _SWEEP_SECONDS))
                self._sweep_expired_locked()
            out = list(self._completed)
            self._completed.clear()
            return out

    def drain(self) -> None:
        """Tell workers to exit once no queued chunks remain (leased
        chunks still report back first — drain is graceful)."""
        with self._lock:
            self._draining = True
            self._queue_cv.notify_all()

    def close(self) -> None:
        """Shut the broker down now (idempotent, never raises).  Workers
        see EOF on their next request and exit their loops."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            self._draining = True
            self._queue_cv.notify_all()
            self._completed_cv.notify_all()
        with contextlib.suppress(OSError):
            # Wakes an accept() blocked in its poll at once.
            self._listener.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._listener.close()
        self._accept_thread.join(timeout=2.0)
        for thread in list(self._threads):
            thread.join(timeout=2.0)

    def __enter__(self) -> "FleetBroker":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internal mechanics (all *_locked helpers assume self._lock held)
    # ------------------------------------------------------------------
    def _complete_locked(self, task: _FleetTask, value: object = None,
                         error: Optional[BaseException] = None,
                         report: Optional[Dict] = None) -> None:
        """Finish a leased task and forget it: its result now lives only
        in the completed queue the driver drains.  ``report`` is the
        worker's result or error frame; its compute span is anchored on
        this clock at arrival, since a remote host's clock is not the
        driver's."""
        del self._tasks[task.task_id]
        session = self._workers.get(task.leased_to)
        if session is not None:
            session.leased.discard(task.task_id)
        task.value = value
        task.error = error
        if report is not None and isinstance(report.get("dur"), float):
            duration = report["dur"]
            task.span = WorkerSpan(report.get("pid"), report.get("tid"),
                                   time.time() - duration, duration)
        self._completed.append(task)
        self._completed_cv.notify_all()

    def _sweep_expired_locked(self) -> None:
        if self.lease_seconds is None:
            return
        now = time.monotonic()
        expired = [task for task in self._tasks.values()
                   if task.deadline is not None and now >= task.deadline]
        for task in expired:
            self.lease_expiries += 1
            self._complete_locked(task, error=ChunkTimeoutError(
                f"chunk lease expired ({self.lease_seconds:g}s)"))

    def _lease_locked(self, session: _WorkerSession
                      ) -> Optional[_FleetTask]:
        self._sweep_expired_locked()
        if not self._queue:
            return None
        task = self._tasks[self._queue.popleft()]
        task.leased_to = session.worker_id
        task.leased_wall = time.time()
        task.deadline = (time.monotonic() + self.lease_seconds
                         if self.lease_seconds is not None else None)
        session.leased.add(task.task_id)
        self.leases += 1
        return task

    def _drop_worker_locked(self, session: _WorkerSession) -> None:
        self._workers.pop(session.worker_id, None)
        if not session.graceful:
            self.workers_lost += 1
        for task_id in list(session.leased):
            self.lost_tasks += 1
            self._complete_locked(self._tasks[task_id],
                                  error=FleetWorkerLostError(
                                      f"worker {session.worker_id} "
                                      f"({session.address}) disconnected "
                                      f"mid-lease"))

    def _held_task_locked(self, session: _WorkerSession,
                          message: Dict) -> Optional[_FleetTask]:
        """The live task a worker reports on, or ``None`` (counted as a
        straggler) when it no longer holds that lease: the task expired,
        or was never its to report."""
        task_id = message.get("task_id")
        if task_id in session.leased:
            return self._tasks[task_id]
        self.stragglers += 1
        return None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed under us: shutting down
            self._threads = [thread for thread in self._threads
                             if thread.is_alive()]
            thread = threading.Thread(
                target=self._serve, args=(conn, f"{addr[0]}:{addr[1]}"),
                name="fleet-broker-conn", daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket, address: str) -> None:
        session: Optional[_WorkerSession] = None
        conn.settimeout(0.25)
        should_stop = lambda: self._closing  # noqa: E731
        try:
            message = _recv_msg(conn, should_stop)
            if (message.get("op") != "register"
                    or message.get("token", "") != self.token):
                with self._lock:
                    self.rejected += 1
                _send_msg(conn, {"op": "reject",
                                 "reason": "bad token or handshake"})
                return
            with self._lock:
                session = _WorkerSession(self._next_worker_id,
                                         int(message.get("pid", 0)),
                                         address)
                self._next_worker_id += 1
                self._workers[session.worker_id] = session
                self.workers_joined += 1
            _send_msg(conn, {"op": "welcome",
                             "worker_id": session.worker_id})
            while not self._closing:
                message = _recv_msg(conn, should_stop)
                op = message.get("op")
                if op == "lease":
                    self._handle_lease(conn, session)
                elif op == "result":
                    self._handle_result(session, message)
                    _send_msg(conn, {"op": "ok"})
                elif op == "error":
                    self._handle_error(session, message)
                    _send_msg(conn, {"op": "ok"})
                elif op == "leave":
                    session.graceful = True
                    _send_msg(conn, {"op": "ok"})
                    return
                else:
                    raise FleetProtocolError(f"unknown worker op {op!r}")
        except (EOFError, OSError, FleetProtocolError,
                pickle.UnpicklingError, struct.error):
            pass  # the disconnect path below fails anything leased
        finally:
            with contextlib.suppress(OSError):
                conn.close()
            if session is not None:
                with self._lock:
                    self._drop_worker_locked(session)

    def _handle_lease(self, conn: socket.socket,
                      session: _WorkerSession) -> None:
        deadline = time.monotonic() + _LEASE_BLOCK_SECONDS
        with self._lock:
            task = self._lease_locked(session)
            while task is None and not self._closing:
                if self._draining and not self._queue:
                    # The worker will exit on this reply; its eventual
                    # disconnect is retirement, not a loss.
                    session.graceful = True
                    _send_msg(conn, {"op": "drain"})
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    _send_msg(conn, {"op": "idle"})
                    return
                self._queue_cv.wait(remaining)
                task = self._lease_locked(session)
            if task is None:  # closing
                session.graceful = True
                _send_msg(conn, {"op": "drain"})
                return
        # A reply that cannot be sent ends the connection, and the
        # disconnect path fails the chunk just leased.
        conn.sendall(task.frame)

    def _handle_result(self, session: _WorkerSession,
                       message: Dict) -> None:
        with self._lock:
            task = self._held_task_locked(session, message)
            if task is not None:
                self._complete_locked(task, value=message.get("value"),
                                      report=message)

    def _handle_error(self, session: _WorkerSession,
                      message: Dict) -> None:
        error = message.get("error")
        if not isinstance(error, BaseException):
            error = FleetRemoteError(f"malformed worker error: {error!r}")
        with self._lock:
            task = self._held_task_locked(session, message)
            if task is not None:
                self._complete_locked(task, error=error, report=message)


# ----------------------------------------------------------------------
# Driver-side transport: the executor's pool contract over a broker
# ----------------------------------------------------------------------
class FleetPool:
    """The executor's transport contract, backed by a :class:`FleetBroker`.

    Drop this in as ``AsyncPopulationExecutor(pool=FleetPool(...))`` and
    the executor's scheduling, dedupe, fault policy, quarantine and
    drain logic run unchanged — chunks just travel over TCP instead of a
    fork pipe.  ``mode`` is ``"fleet"``; each result comes back with its
    worker's compute span, as from every other transport, and an
    expired lease as a :class:`~repro.runtime.faults.ChunkTimeoutError`.

    ``n_workers`` is the *expected* worker count (the executor's
    utilisation capacity, and reporting); actual membership is elastic —
    ``broker.num_workers`` is live.  ``respawns`` counts chunks lost
    with their worker, the fleet analogue of the fork pool's backend
    respawns; the executor retries them.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 n_workers: int = 1,
                 lease_seconds: Optional[float] = None,
                 token: str = "") -> None:
        if n_workers < 1:
            raise SearchError("n_workers must be >= 1")
        self.broker = FleetBroker(host=host, port=port,
                                  lease_seconds=lease_seconds, token=token)
        self.mode = "fleet"
        self.n_workers = n_workers
        self._pending: Dict[int, object] = {}  # task id -> tag
        self._local_procs: List = []
        self.respawns = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        return self.broker.address

    def spawn_local_workers(self, n: int, store_dir=None,
                            poll_seconds: float = 0.05) -> List:
        """Fork ``n`` local worker processes against this pool's broker
        (the single-host fan-out path the benchmarks and the harness's
        ``fleet_workers`` knob use); returns the started processes.
        They exit on drain/close; :meth:`close` reaps them."""
        procs = [spawn_local_worker(self.address, store_dir=store_dir,
                                    token=self.broker.token,
                                    poll_seconds=poll_seconds)
                 for _ in range(n)]
        self._local_procs.extend(procs)
        return procs

    # ------------------------------------------------------------------
    def submit(self, worker: Callable, payload: object,
               tag: object = None) -> int:
        task_id = self.broker.submit(worker, payload, tag=tag)
        self._pending[task_id] = tag
        return task_id

    @property
    def num_pending(self) -> int:
        return len(self._pending)

    def gather(self, k: int = 1) -> List[TaskResult]:
        """Block until at least ``k`` pending chunks complete; returns
        them in completion order.  The wait loop doubles as the broker's
        lease-expiry clock.  Blocks until workers connect when none are
        — elastic membership means "no workers right now" is a normal
        transient state, not an error."""
        if k <= 0:
            raise SearchError("gather needs k >= 1 (use gather_all)")
        k = min(k, len(self._pending))
        if k == 0:
            return []
        results: List[TaskResult] = []
        while len(results) < k and self._pending and not self._closed:
            for task in self.broker.wait_completed():
                tag = self._pending.pop(task.task_id, task.tag)
                results.append(TaskResult(task.task_id, tag, task.value,
                                          task.error, task.span))
        self.respawns = self.broker.lost_tasks
        return results

    def gather_all(self) -> List[TaskResult]:
        if not self._pending:
            return []
        return self.gather(len(self._pending))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain + shut the broker down (idempotent, never raises).
        Local workers spawned through :meth:`spawn_local_workers` get a
        short grace period to exit on drain before being terminated."""
        if self._closed:
            return
        self._closed = True
        self._pending.clear()
        try:
            self.broker.drain()
            deadline = time.monotonic() + 2.0
            for proc in self._local_procs:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
                if proc.is_alive():
                    with contextlib.suppress(Exception):
                        proc.terminate()
                        proc.join(timeout=1.0)
            self.broker.close()
        except Exception:
            pass  # cleanup must not mask the error that triggered it

    def __enter__(self) -> "FleetPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Worker client loop
# ----------------------------------------------------------------------
@dataclass
class FleetWorkerStats:
    """What one :func:`run_worker` loop did (its return value)."""

    worker_id: int = -1
    chunks: int = 0
    rows: int = 0
    errors: int = 0
    busy_seconds: float = 0.0
    store_rows_loaded: int = 0     # warm-start rows served from the store
    store_rows_flushed: int = 0    # freshly computed rows appended
    drained: bool = False          # exited on the broker's drain signal

    def to_dict(self) -> Dict:
        return {
            "worker_id": self.worker_id,
            "chunks": self.chunks,
            "rows": self.rows,
            "errors": self.errors,
            "busy_seconds": self.busy_seconds,
            "store_rows_loaded": self.store_rows_loaded,
            "store_rows_flushed": self.store_rows_flushed,
            "drained": self.drained,
        }


#: Indicator names in genotype chunk needs-mask order (the order
#: ``_evaluate_genotype_chunk`` consumes).
_GENOTYPE_NAMES = ("ntk", "linear_regions")


def _genotype_payload(payload: object) -> bool:
    """Shape check: is this a genotype chunk payload the warm-start path
    understands?  Anything else (supernet chunks, exotic injected
    workers) is evaluated as-is — warm start is an optimisation, never a
    requirement."""
    return (isinstance(payload, tuple) and len(payload) == 3
            and isinstance(payload[1], ProxyConfig)
            and isinstance(payload[2], MacroConfig)
            and isinstance(payload[0], tuple)
            and all(isinstance(item, tuple) and len(item) == 2
                    and len(item[1]) == len(_GENOTYPE_NAMES)
                    for item in payload[0]))


def _warm_start_evaluate(worker_fn: Callable, payload: Tuple, store,
                         resident: Dict,
                         stats: FleetWorkerStats) -> List[Tuple]:
    """Evaluate one genotype chunk with the store as warm-start medium.

    ``resident`` maps each fingerprint this worker has served to its
    ``(fingerprint, cache, seen)``: a cache that lives as long as the
    worker, and the record of which store files it has read.  Before
    the chunk the cache follows the store (only files not read yet), so
    rows the shared store already holds are served instead of
    recomputed; the rest are computed through the shipped worker and
    flushed back under the store's append flock.  The combined result
    is bit-identical to a cold evaluation — stored rows were produced
    by the same deterministic proxies."""
    from repro.runtime.store import cache_fingerprint

    items, proxy_config, macro_config = payload
    finger_key = (astuple(proxy_config), astuple(macro_config))
    if finger_key not in resident:
        resident[finger_key] = (
            cache_fingerprint(proxy_config, macro_config),
            IndicatorCache(), {})
    fingerprint, cache, seen = resident[finger_key]
    store.follow_cache_into(cache, fingerprint, seen)
    proxy_key, macro_key = finger_key
    stored_rows: List[Tuple] = []
    reduced: List[Tuple] = []
    for ops, needs in items:
        index = Genotype(tuple(ops)).to_index()
        keys = genotype_indicator_keys(index, proxy_key, macro_key)
        hit_row = {}
        remaining = []
        for name, need in zip(_GENOTYPE_NAMES, needs):
            if need and keys[name] in cache:
                hit_row[name] = cache.get(keys[name])
                remaining.append(False)
            else:
                remaining.append(need)
        if hit_row:
            # Served, not computed here: no proxy seconds to record.
            stored_rows.append((index, hit_row, {}))
            stats.store_rows_loaded += len(hit_row)
        if any(remaining):
            reduced.append((ops, tuple(remaining)))
    if not reduced:
        return stored_rows
    computed_rows = worker_fn((tuple(reduced), proxy_config, macro_config))
    for index, row, _ in computed_rows:
        keys = genotype_indicator_keys(index, proxy_key, macro_key)
        for name, value in row.items():
            cache.put(keys[name], value)
    # Only the freshly computed rows are dirty (followed rows land
    # clean), so this append is O(computed delta) and runs under the
    # store's append flock like every other writer.
    stats.store_rows_flushed += store.save_cache(cache, fingerprint)
    return stored_rows + list(computed_rows)


def _picklable_error(error: BaseException) -> BaseException:
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return FleetRemoteError(
            f"unpicklable worker exception "
            f"{type(error).__name__}: {error!r}")


def run_worker(connect: str, store_dir=None, token: str = "",
               poll_seconds: float = 0.2,
               max_chunks: Optional[int] = None,
               socket_timeout: float = 60.0) -> FleetWorkerStats:
    """The fleet worker client loop (``micronas fleet worker``).

    Connects to the broker at ``connect`` (``HOST:PORT``), registers,
    then leases chunks until the broker drains: each chunk is evaluated
    through the shipped picklable worker — warm-started from (and
    flushed back to) the shared store when ``store_dir`` is given and
    the payload is a genotype chunk — and its result reported back.
    ``max_chunks`` caps the chunks this worker will process before
    leaving gracefully (elastic-membership tests use it to script a
    mid-run leave).  Returns the loop's :class:`FleetWorkerStats`.

    Worker exceptions are reported to the broker (driving the driver's
    fault taxonomy) and never kill the loop; a broker that vanishes
    (driver exit) ends the loop via the socket error instead.
    """
    host, port = parse_address(connect)
    store = None
    if store_dir is not None:
        from repro.runtime.store import RuntimeStore

        store = RuntimeStore(store_dir)
    stats = FleetWorkerStats()
    resident: Dict = {}
    sock = socket.create_connection((host, port), timeout=socket_timeout)
    try:
        sock.settimeout(socket_timeout)
        _send_msg(sock, {"op": "register", "token": token,
                         "pid": os.getpid()})
        reply = _recv_msg(sock)
        if reply.get("op") != "welcome":
            raise FleetProtocolError(
                f"broker rejected registration: "
                f"{reply.get('reason', reply)!r}")
        stats.worker_id = int(reply["worker_id"])
        while True:
            if max_chunks is not None and stats.chunks >= max_chunks:
                _send_msg(sock, {"op": "leave",
                                 "worker_id": stats.worker_id})
                _recv_msg(sock)  # the closing "ok"
                break
            _send_msg(sock, {"op": "lease", "worker_id": stats.worker_id})
            reply = _recv_msg(sock)
            op = reply.get("op")
            if op == "idle":
                time.sleep(poll_seconds)
                continue
            if op == "drain":
                stats.drained = True
                break
            if op != "task":
                raise FleetProtocolError(f"unexpected broker op {op!r}")
            task_id = reply["task_id"]
            worker_fn, payload = reply["worker"], reply["payload"]
            started = time.perf_counter()
            try:
                if store is not None and _genotype_payload(payload):
                    value = _warm_start_evaluate(
                        worker_fn, payload, store, resident, stats)
                else:
                    value = worker_fn(payload)
                rows = len(value)
            except Exception as exc:
                duration = time.perf_counter() - started
                stats.errors += 1
                frame = {"op": "error", "error": _picklable_error(exc)}
            else:
                duration = time.perf_counter() - started
                stats.chunks += 1
                stats.rows += rows
                frame = {"op": "result", "value": value}
            stats.busy_seconds += duration
            # The compute span rides home on the frame; the broker
            # anchors it on the driver's clock at arrival.
            frame.update(worker_id=stats.worker_id, task_id=task_id,
                         pid=os.getpid(), tid=threading.get_ident(),
                         dur=duration)
            _send_msg(sock, frame)
            _recv_msg(sock)  # the broker's "ok" acknowledgement
    finally:
        with contextlib.suppress(OSError):
            sock.close()
    return stats


def _local_worker_main(connect: str, store_dir, token: str,
                       poll_seconds: float) -> None:
    """Entry point of a forked local worker process."""
    try:
        run_worker(connect, store_dir=store_dir, token=token,
                   poll_seconds=poll_seconds)
    except Exception:
        os._exit(13)  # broker gone / protocol error: just die quietly


def spawn_local_worker(connect: str, store_dir=None, token: str = "",
                       poll_seconds: float = 0.05):
    """Fork one local worker process running :func:`run_worker` against
    ``connect``; returns the started ``multiprocessing.Process``.  Fork
    start method (the pure-NumPy substrate ships by inheritance, like
    the fork pool's workers); callers on fork-less platforms should use
    ``micronas fleet worker`` subprocesses instead."""
    import multiprocessing

    process = multiprocessing.get_context("fork").Process(
        target=_local_worker_main,
        args=(connect, store_dir, token, poll_seconds),
        daemon=True, name="fleet-worker")
    process.start()
    return process


__all__ = [
    "FleetBroker",
    "FleetPool",
    "FleetProtocolError",
    "FleetRemoteError",
    "FleetWorkerLostError",
    "FleetWorkerStats",
    "parse_address",
    "run_worker",
    "spawn_local_worker",
]
