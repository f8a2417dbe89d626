"""Structured span tracing for the evaluation runtime.

A **span** is one named, timed interval of runtime work — a chunk
dispatch, a worker's proxy compute, a gather wait, a cache merge, a store
flush — with a category (the *phase* it belongs to), the process/thread
that ran it, and free-form correlation arguments (most importantly the
chunk id, the key that ties a dispatch to its worker compute to its
merge).  :class:`Tracer` collects spans in-process with no locks on the
hot path (one list append under the GIL), and exports them as Chrome
``trace_event`` JSON — the format ``chrome://tracing`` and Perfetto load
directly, so a run's timeline can be inspected visually.

Design constraints (shared with :mod:`repro.runtime.telemetry`, which
owns the run-scoped facade):

* **Strict observer.**  Recording a span never changes what the runtime
  computes; a span body's return value passes through untouched, and a
  span records even when its body raises (with the exception type noted),
  so failure timelines stay visible.
* **Cheap when disarmed.**  The disabled path is one attribute check plus
  a shared no-op context manager (:data:`NULL_SPAN`) — no allocation, no
  timestamping — which is what keeps armed-but-unused overhead inside the
  <2% budget ``benchmarks/bench_telemetry.py`` enforces.
* **One timeline across processes.**  Timestamps are epoch seconds
  (``time.time()``) so the compute spans fork workers on the same host
  send back with their chunk results land on one coherent timeline with
  the parent's spans; durations come from ``perf_counter`` deltas.

Span *nesting* needs no explicit parent ids: Chrome's trace model nests
complete (``"ph": "X"``) events on the same ``pid``/``tid`` track by
containment, which matches how the runtime's spans actually nest (merge
inside gather, compaction inside flush).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Category names the runtime's built-in spans use.  Free-form strings
#: are legal — these exist so the phase breakdown and tests agree on
#: spelling.
CAT_DISPATCH = "dispatch"
CAT_WORKER = "worker"
CAT_GATHER = "gather"
CAT_MERGE = "merge"
CAT_STORE = "store"
CAT_FAULT = "fault"
CAT_ENGINE = "engine"


class _NullSpan:
    """The shared no-op span: entering, exiting and annotating all do
    nothing.  One instance serves every disarmed call site, so the
    disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def note(self, **args: object) -> None:
        """Discard correlation arguments (live spans record them)."""


#: The singleton no-op span (what disabled telemetry hands out).
NULL_SPAN = _NullSpan()


class Span:
    """One live span: a context manager that records itself into its
    tracer on exit.

    ``note(**args)`` attaches correlation arguments any time before exit
    (e.g. the number of rows a merge landed, known only at the end).  A
    body that raises still records — with ``error`` set to the exception
    type name — and the exception propagates untouched.
    """

    __slots__ = ("_tracer", "name", "cat", "args", "_wall", "_perf")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Optional[Dict] = None) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = dict(args) if args else {}

    def note(self, **args: object) -> None:
        self.args.update(args)

    def __enter__(self) -> "Span":
        self._wall = time.time()
        self._perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._perf
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        self._tracer.record(self.name, self.cat, self._wall, duration,
                            args=self.args)
        return False


class Tracer:
    """In-process span collector with Chrome ``trace_event`` export.

    Spans append to a plain list — atomic enough under the GIL for the
    runtime's threading profile (the heartbeat thread only *reads*
    counters; spans are recorded by the thread that ran the work).
    """

    def __init__(self) -> None:
        self._events: List[Dict] = []
        self.pid = os.getpid()

    def __len__(self) -> int:
        return len(self._events)

    def span(self, name: str, cat: str = "runtime",
             args: Optional[Dict] = None) -> Span:
        """A live span context manager recording into this tracer."""
        return Span(self, name, cat, args)

    def record(self, name: str, cat: str, ts: float, duration: float,
               pid: Optional[int] = None, tid: Optional[int] = None,
               args: Optional[Dict] = None) -> None:
        """Record one externally measured span.

        ``ts`` is epoch seconds (``time.time()``), ``duration`` seconds.
        The explicit ``pid``/``tid`` override is how worker compute
        spans — returned with each chunk result — keep their own track
        identity instead of inheriting the parent's.
        """
        self._events.append({
            "name": name,
            "cat": cat,
            "ts": ts,
            "dur": max(0.0, duration),
            "pid": self.pid if pid is None else pid,
            "tid": threading.get_ident() if tid is None else tid,
            "args": dict(args) if args else {},
        })

    def events(self) -> List[Dict]:
        """Snapshot of raw recorded events (seconds-based, unexported)."""
        return list(self._events)

    # ------------------------------------------------------------------
    # Chrome trace_event export
    # ------------------------------------------------------------------
    def chrome_events(self, run_id: str = "") -> List[Dict]:
        """Recorded spans as Chrome complete (``"ph": "X"``) events.

        Timestamps/durations convert to integer microseconds (the unit
        the format mandates); every event carries the run id in its
        ``args`` so traces from several runs can be concatenated and
        still told apart.
        """
        events: List[Dict] = []
        pids = {}
        for raw in self._events:
            args = dict(raw["args"])
            if run_id:
                args["run_id"] = run_id
            events.append({
                "name": raw["name"],
                "cat": raw["cat"],
                "ph": "X",
                "ts": int(raw["ts"] * 1e6),
                "dur": max(1, int(raw["dur"] * 1e6)),
                "pid": raw["pid"],
                "tid": raw["tid"],
                "args": args,
            })
            pids.setdefault(raw["pid"], raw["cat"] == CAT_WORKER)
        for pid, is_worker in sorted(pids.items()):
            label = ("micronas-worker" if is_worker and pid != self.pid
                     else "micronas-run")
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": f"{label} [{pid}]"},
            })
        return events


def write_chrome_trace(path, events: List[Dict],
                       other_data: Optional[Dict] = None) -> Path:
    """Write a Chrome ``trace_event`` JSON object file.

    The object form (``{"traceEvents": [...]}``) is used instead of the
    bare array so run-level metadata — run id, timestamps, the metrics
    snapshot — rides along in ``otherData``, where both Perfetto and
    ``micronas trace summarize`` can find it.
    """
    path = Path(path)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(other_data or {}),
    }
    tmp_path = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp_path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    os.replace(tmp_path, path)
    return path


__all__ = [
    "CAT_DISPATCH",
    "CAT_ENGINE",
    "CAT_FAULT",
    "CAT_GATHER",
    "CAT_MERGE",
    "CAT_STORE",
    "CAT_WORKER",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "write_chrome_trace",
]
