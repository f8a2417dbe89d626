"""Fault tolerance for the asynchronous evaluation runtime.

Workers die, hang and raise, and a long search must survive all three.
This module holds the failure *policy* the async runtime executes — the
mechanisms live in :mod:`repro.runtime.async_pool` (per-chunk deadlines,
pool respawn) and the policy objects here decide what happens next:

* :func:`classify_failure` — the taxonomy.  A chunk failure is either
  **transient** (timeouts, I/O hiccups, lost workers: retrying may
  succeed) or **poison** (a deterministic exception from the worker's own
  compute: retrying the same candidate will fail forever).  The split
  drives two different recoveries: transient failures are retried with
  exponential backoff, poison chunks are *bisected* so one bad genotype
  cannot sink its chunk-mates, and the lone offender left at the bottom
  of the bisection is quarantined.
* :class:`FaultPolicy` — the knobs: per-chunk deadline, retry budget,
  backoff schedule with **deterministic jitter** (derived from the chunk
  identity + attempt number, never from wall clock or a global RNG, so
  fault-injection tests replay exactly), pool-respawn budget.
* :class:`QuarantineLedger` — a ``flock``'d append-only JSONL file of
  quarantined candidate identities, living inside the format-2 store
  directory so quarantine decisions survive restarts and are shared by
  every process using the store.  The executor consults it at submit
  time: a quarantined key is never shipped again.
* :class:`FaultPlan` — the deterministic fault-injection harness the
  tests and ``benchmarks/bench_fault_tolerance.py`` drive: a picklable
  worker wrapper that crashes (``os._exit``), hangs (sleeps past the
  chunk deadline), flakes (one transient raise) or poisons (raises
  forever) on *scripted candidate identities*, with cross-process
  attempt counting through a ``flock``'d state file — no wall-clock
  randomness anywhere, so every failure mode is replayable.

Everything here is transport-agnostic: the same classification, ledger
and plan drive the serial queue and the thread and fork pools.
Transports only report failures — an expired deadline as
:class:`ChunkTimeoutError`, a dead pool as ``BrokenExecutor`` — and the
executor's :class:`FaultPolicy` is the one place that retries a chunk.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

try:  # POSIX advisory locks; absent on some platforms (e.g. Windows)
    import fcntl
except ImportError:  # pragma: no cover - platform dependent
    fcntl = None

from repro.errors import SearchError
from repro.searchspace.genotype import Genotype


# ----------------------------------------------------------------------
# Failure taxonomy
# ----------------------------------------------------------------------
class ChunkTimeoutError(SearchError):
    """A chunk future outlived its per-chunk deadline and was abandoned."""


class TransientWorkerError(SearchError):
    """A worker failure that is explicitly safe to retry.

    The fault-injection plan's ``flake`` action raises this to mark a
    failure as environmental rather than a property of the candidate
    being evaluated.
    """


class ScriptedPoisonError(SearchError):
    """The deterministic 'poison candidate' failure a FaultPlan injects."""

    def __init__(self, identity: object) -> None:
        super().__init__(f"scripted poison candidate {identity!r}")
        self.identity = identity


#: Classification outcomes (plain strings: they travel through stats
#: dicts and ledger rows, where an enum would just be noise).
TRANSIENT = "transient"
POISON = "poison"
WORKER_LOST = "worker-lost"


def classify_failure(error: BaseException) -> str:
    """Sort one chunk failure into the retry taxonomy.

    * :data:`WORKER_LOST` — a local fork pool died (``BrokenExecutor``)
      and has used up its ``max_respawns`` budget: the pool already
      respawned and resubmitted its pending chunks once per death.
    * :data:`TRANSIENT` — deadline expiry, explicit transient markers,
      and the I/O-shaped exceptions (``OSError``/``EOFError``/``TimeoutError``)
      infrastructure produces: retry with backoff.
    * :data:`POISON` — everything else.  A deterministic exception from
      the worker's own compute re-raises on every retry by the runtime's
      determinism contract, so it is bisected down to the offending
      candidate and quarantined instead of retried forever.
    """
    if isinstance(error, BrokenExecutor):
        return WORKER_LOST
    if isinstance(error, (ChunkTimeoutError, TransientWorkerError,
                          OSError, EOFError, TimeoutError)):
        return TRANSIENT
    return POISON


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
@dataclass
class FaultPolicy:
    """Retry/timeout/quarantine knobs for one async executor.

    ``backoff_delay`` is a pure function of ``(material, attempt)`` —
    exponential in the attempt with a ±``backoff_jitter`` fraction of
    deterministic jitter hashed from the chunk identity, so colliding
    retries de-synchronise without any wall-clock randomness (the
    property that keeps fault-injection tests bit-replayable).
    ``sleep`` is injectable so tests can record delays instead of
    paying them.
    """

    chunk_timeout: Optional[float] = None  # seconds; None = no deadline
    max_retries: int = 2                   # transient retries per chunk
    backoff_base: float = 0.05             # first-retry delay, seconds
    backoff_factor: float = 2.0            # exponential growth per retry
    backoff_jitter: float = 0.25           # ± fraction of the delay
    max_respawns: int = 3                  # pool-death recoveries per run
    quarantine: bool = True                # False: poison raises instead
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise SearchError("max_retries must be >= 0")
        if self.chunk_timeout is not None and not self.chunk_timeout > 0:
            raise SearchError("chunk_timeout must be positive (or None)")

    def backoff_delay(self, material: object, attempt: int) -> float:
        """Deterministic exponential backoff with hashed jitter.

        ``attempt`` counts completed attempts (the first retry passes 0).
        """
        delay = self.backoff_base * (self.backoff_factor ** attempt)
        digest = hashlib.sha1(
            repr((material, attempt)).encode("utf-8")
        ).hexdigest()[:8]
        unit = int(digest, 16) / float(0xFFFFFFFF)  # [0, 1], deterministic
        return delay * (1.0 + self.backoff_jitter * (2.0 * unit - 1.0))


# ----------------------------------------------------------------------
# Quarantine ledger
# ----------------------------------------------------------------------
def _encode_identity(identity):
    """Tuples → lists, recursively (mirrors the store's key encoding)."""
    if isinstance(identity, tuple):
        return [_encode_identity(part) for part in identity]
    return identity


def _decode_identity(obj):
    if isinstance(obj, list):
        return tuple(_decode_identity(part) for part in obj)
    return obj


class _LockedFile:
    """Tiny flock wrapper (kept local: the store's lock helper guards
    sibling paths; the ledger and fault-plan state lock *their own*
    file handle, which also lets them read+append atomically)."""

    def __init__(self, path: Path, mode: str) -> None:
        self.path = Path(path)
        self.mode = mode

    def __enter__(self):
        self.handle = open(self.path, self.mode, encoding="utf-8")
        if fcntl is not None:
            fcntl.flock(self.handle, fcntl.LOCK_EX)
        return self.handle

    def __exit__(self, *exc: object) -> None:
        try:
            if fcntl is not None:
                fcntl.flock(self.handle, fcntl.LOCK_UN)
        finally:
            self.handle.close()


class QuarantineLedger:
    """Append-only JSONL record of quarantined candidate identities.

    One line per quarantined candidate::

        {"kind": "genotype", "identity": 1462,
         "reason": "ValueError('...')", "attempts": 3}

    Appends hold the file's own ``flock`` and re-read before writing, so
    concurrent executors sharing a store directory union their
    quarantine decisions instead of duplicating or clobbering them.
    Reads are crash-tolerant (torn tail lines are skipped) — the same
    discipline as the store's segment replay.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._entries: Dict[Tuple[str, object], Dict] = {}
        self._loaded = False

    # ------------------------------------------------------------------
    def _parse_lines(self, text: str) -> None:
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn tail from a crashed writer
            if not isinstance(record, dict) or "identity" not in record:
                continue
            kind = record.get("kind", "genotype")
            identity = _decode_identity(record["identity"])
            self._entries.setdefault((kind, identity), {
                "kind": kind,
                "identity": identity,
                "reason": record.get("reason", ""),
                "attempts": record.get("attempts", 1),
            })

    def load(self) -> int:
        """(Re)read the ledger; returns the number of distinct entries."""
        self._entries = {}
        self._loaded = True
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return 0
        self._parse_lines(text)
        return len(self._entries)

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            self.load()

    # ------------------------------------------------------------------
    def add(self, kind: str, identity: object, reason: str,
            attempts: int = 1) -> bool:
        """Record one quarantined identity; returns ``False`` when it was
        already present (locally or, after the under-lock re-read, from a
        concurrent writer)."""
        self._ensure_loaded()
        if (kind, identity) in self._entries:
            return False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with _LockedFile(self.path, "a+") as handle:
            handle.seek(0)
            self._parse_lines(handle.read())
            if (kind, identity) in self._entries:
                return False
            record = {
                "kind": kind,
                "identity": _encode_identity(identity),
                "reason": reason[:300],
                "attempts": attempts,
            }
            handle.write(json.dumps(record) + "\n")
            handle.flush()
        self._entries[(kind, identity)] = {
            "kind": kind, "identity": identity,
            "reason": reason[:300], "attempts": attempts,
        }
        return True

    def identities(self, kind: str) -> set:
        self._ensure_loaded()
        return {identity for k, identity in self._entries if k == kind}

    def entries(self) -> List[Dict]:
        self._ensure_loaded()
        return [dict(entry) for entry in self._entries.values()]

    def __contains__(self, key: Tuple[str, object]) -> bool:
        self._ensure_loaded()
        return key in self._entries

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)


# ----------------------------------------------------------------------
# Deterministic fault injection
# ----------------------------------------------------------------------
def chunk_item_identity(kind: str, item: Tuple) -> object:
    """The candidate identity of one chunk item, as quarantine keys it.

    Genotype chunk items carry ``(ops, needs)`` — the identity is the
    *canonical index* (the ops are already canonical at submit time);
    supernet items carry ``(state, needs)`` — the state tuple is its own
    identity.
    """
    head = item[0]
    if kind == "genotype":
        return Genotype(tuple(head)).to_index()
    return head


def _payload_kind(payload: Tuple) -> str:
    # Both payloads are (items, proxy_config): a genotype item leads with
    # its ops (op names), a supernet item with its state (one alive-op
    # tuple per edge).
    items = payload[0]
    return ("genotype" if items and isinstance(items[0][0][0], str)
            else "supernet")


#: FaultPlan actions.
OK = "ok"
POISON_ACTION = "poison"   # raise ScriptedPoisonError, every attempt
FLAKE = "flake"            # raise TransientWorkerError, then heal
CRASH = "crash"            # os._exit: kills the worker process
HANG = "hang"              # sleep past any sane chunk deadline

_ACTIONS = (OK, POISON_ACTION, FLAKE, CRASH, HANG)


@dataclass
class FaultPlan:
    """A deterministic, cross-process schedule of injected worker faults.

    Faults are keyed by **candidate identity** (canonical genotype index
    or supernet state), never by call count alone, so the schedule is
    stable under chunking, bisection, retries and pool respawns.  Two
    selection mechanisms compose:

    * ``script`` — an explicit ``{identity: (action, action, ...)}``
      map; attempt *n* on that identity consumes the *n*-th action
      (exhausted scripts act ``"ok"``, except a trailing ``"poison"``,
      which repeats forever — deterministic errors do not heal).
    * ``hash_rate`` — population-scale fuzzing: an identity is faulted when
      ``sha1(identity) % 10000 < hash_rate * 10000``, with the action
      drawn (deterministically, from the same digest) out of
      ``hash_actions``.  Non-poison hash faults fire once and heal.

    Attempt counts persist in a ``flock``'d append-only state file, so
    fork workers — including workers of a *respawned* pool — share one
    counter; :meth:`wrap` returns a picklable worker wrapper.
    """

    state_path: str
    script: Dict[object, Tuple[str, ...]] = field(default_factory=dict)
    hash_rate: float = 0.0
    hash_actions: Tuple[str, ...] = (POISON_ACTION,)
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        for actions in self.script.values():
            for action in actions:
                if action not in _ACTIONS:
                    raise SearchError(f"unknown fault action {action!r}")
        for action in self.hash_actions:
            if action not in _ACTIONS:
                raise SearchError(f"unknown fault action {action!r}")

    # ------------------------------------------------------------------
    def _consume_attempt(self, identity: object) -> int:
        """Next attempt number (1-based) for this identity, shared across
        processes through the flock'd state file."""
        marker = json.dumps(_encode_identity(identity), sort_keys=True)
        with _LockedFile(Path(self.state_path), "a+") as handle:
            handle.seek(0)
            attempts = sum(1 for line in handle.read().splitlines()
                           if line == marker)
            handle.write(marker + "\n")
            handle.flush()
        return attempts + 1

    @staticmethod
    def _digest(identity: object) -> int:
        material = json.dumps(_encode_identity(identity), sort_keys=True)
        return int(hashlib.sha1(material.encode("utf-8")).hexdigest()[:12],
                   16)

    def action_for(self, identity: object) -> str:
        """The action this attempt on ``identity`` should suffer."""
        scripted = self.script.get(identity)
        hashed = None
        if scripted is None and self.hash_rate > 0.0:
            digest = self._digest(identity)
            if digest % 10000 < int(self.hash_rate * 10000):
                hashed = self.hash_actions[
                    (digest // 10000) % len(self.hash_actions)
                ]
                if hashed == OK:
                    hashed = None
        if scripted is None and hashed is None:
            return OK  # clean identity: no state-file traffic
        attempt = self._consume_attempt(identity)
        if scripted is not None:
            if attempt <= len(scripted):
                return scripted[attempt - 1]
            return (POISON_ACTION if scripted and scripted[-1] == POISON_ACTION
                    else OK)
        if hashed == POISON_ACTION:
            return POISON_ACTION  # poison never heals
        return hashed if attempt == 1 else OK

    def wrap(self, worker: Callable) -> "PlannedWorker":
        """A picklable worker executing this plan around ``worker``."""
        return PlannedWorker(self, worker)


class PlannedWorker:
    """Worker wrapper executing a :class:`FaultPlan` (picklable: both the
    plan and the wrapped worker ship to fork workers by value/reference).

    The *first* scripted item in a chunk decides the whole chunk's fate
    — exactly the failure shape bisection exists to unpick."""

    def __init__(self, plan: FaultPlan, inner: Callable) -> None:
        self.plan = plan
        self.inner = inner

    def __call__(self, payload: Tuple):
        kind = _payload_kind(payload)
        for item in payload[0]:
            identity = chunk_item_identity(kind, item)
            action = self.plan.action_for(identity)
            if action == OK:
                continue
            if action == POISON_ACTION:
                raise ScriptedPoisonError(identity)
            if action == FLAKE:
                raise TransientWorkerError(
                    f"scripted transient failure for {identity!r}"
                )
            if action == CRASH:
                os._exit(23)
            if action == HANG:
                time.sleep(self.plan.hang_seconds)
        return self.inner(payload)


__all__ = [
    "ChunkTimeoutError",
    "FaultPlan",
    "FaultPolicy",
    "PlannedWorker",
    "QuarantineLedger",
    "ScriptedPoisonError",
    "TransientWorkerError",
    "TRANSIENT",
    "POISON",
    "WORKER_LOST",
    "classify_failure",
    "chunk_item_identity",
]
