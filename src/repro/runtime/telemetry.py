"""Run-scoped telemetry: metrics registry, run facade, heartbeat.

This module owns the runtime's observability substrate.  One
:class:`Telemetry` object is minted per harness run and threaded through
``RunHarness`` → ``AsyncPopulationExecutor`` → ``FuturePool`` →
``RuntimeStore`` → ``Engine``; every layer records spans (via
:mod:`repro.runtime.tracing`) and metrics against it.  The contract:

* **Strict observer.**  Nothing here may change what the runtime
  computes.  Worker timing never touches a chunk's value; the
  bit-identity assertions in ``benchmarks/bench_telemetry.py`` and the
  ``obs``-marked tests hold the line.
* **Disabled by default, cheap when armed.**  The disabled singleton
  (:meth:`Telemetry.disabled`) answers every call with a no-op; armed
  overhead must stay under 2% (``BENCH_telemetry.json``).  Metric
  updates are single int/float ops on plain attributes — GIL-atomic, no
  locks on the hot path.
* **Worker spans ride home with the result.**  Every transport times
  each chunk where it runs and hands the span (pid, tid, start,
  duration) back with the chunk result — over the fork pipe or within
  the same process — and the executor records it here.  No
  worker ever writes telemetry of its own, so nothing needs merging.

The engine never imports this module: ``Engine`` takes a duck-typed
``telemetry`` object, keeping the engine→runtime layering acyclic.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.tracing import (
    NULL_SPAN,
    Tracer,
    write_chrome_trace,
)


# ----------------------------------------------------------------------
# Metrics primitives
# ----------------------------------------------------------------------

#: Default histogram bucket upper bounds, in seconds — log-spaced to
#: cover everything from a cache-hit merge (~1ms) to a hung-chunk
#: deadline (~60s).  Values above the last bound land in the overflow
#: bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """A monotonically increasing count.  ``inc`` is one int add on a
    plain attribute — GIL-atomic, lock-free."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (queue depth, cache hit rate): last set
    wins."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A bucketed distribution (chunk latency, flush time).

    Fixed upper-bound buckets plus an overflow slot; ``observe`` is a
    linear scan over ~a dozen bounds and two adds — cheap enough for the
    per-chunk hot path.
    """

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1

    def snapshot(self) -> Dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "mean": (self.total / self.count) if self.count else 0.0,
        }


class MetricsRegistry:
    """Named counters/gauges/histograms, created on demand.

    Creation takes a lock (it mutates a dict and is rare); updates on
    the returned primitive never do.  Call sites that update in a loop
    should hold the primitive, not re-look it up.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._create_lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            with self._create_lock:
                return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            with self._create_lock:
                return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            with self._create_lock:
                return self._histograms.setdefault(name, Histogram(buckets))

    def snapshot(self) -> Dict:
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.snapshot()
                           for name, h in sorted(self._histograms.items())},
        }


# ----------------------------------------------------------------------
# The run-scoped facade
# ----------------------------------------------------------------------
class Telemetry:
    """The run-scoped telemetry object every runtime layer records into.

    Obtain one via :meth:`armed` (tracing/metrics live) or
    :meth:`disabled` (the shared no-op singleton, the default
    everywhere).  Call sites guard with ``tel.enabled`` only when they
    would otherwise build argument dicts; plain ``tel.span(...)`` /
    ``tel.count(...)`` calls are already no-ops when disabled.
    """

    _DISABLED: Optional["Telemetry"] = None

    def __init__(self, enabled: bool, run_id: str = "",
                 trace_path=None) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.trace_path = Path(trace_path) if trace_path else None
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    @classmethod
    def disabled(cls) -> "Telemetry":
        """The shared no-op instance (safe to hand to every layer)."""
        if cls._DISABLED is None:
            cls._DISABLED = cls(enabled=False)
        return cls._DISABLED

    @classmethod
    def armed(cls, run_id: str = "", trace_path=None) -> "Telemetry":
        return cls(enabled=True, run_id=run_id, trace_path=trace_path)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, cat: str = "runtime", **args):
        """A span context manager (the shared no-op when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(name, cat, args or None)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.metrics.counter(name).inc(n)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.histogram(name).observe(value)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict:
        return self.metrics.snapshot()

    def export(self, other_data: Optional[Dict] = None) -> Dict:
        """The full trace payload (Chrome ``trace_event`` object form),
        with the metrics snapshot embedded in ``otherData``."""
        data = {
            "run_id": self.run_id,
            "pid": self.tracer.pid,
            "metrics": self.metrics_snapshot(),
        }
        data.update(other_data or {})
        return {
            "traceEvents": self.tracer.chrome_events(self.run_id),
            "displayTimeUnit": "ms",
            "otherData": data,
        }

    def write_trace(self, other_data: Optional[Dict] = None) -> Optional[Path]:
        """Write the Chrome trace JSON to the armed ``trace_path``."""
        if not (self.enabled and self.trace_path):
            return None
        payload = self.export(other_data)
        return write_chrome_trace(self.trace_path, payload["traceEvents"],
                                  other_data=payload["otherData"])


# ----------------------------------------------------------------------
# Heartbeat
# ----------------------------------------------------------------------
class Heartbeat:
    """Periodic one-line progress reporter on a daemon thread.

    ``source`` is a zero-arg callable returning a stats dict (keys:
    ``evals``, ``in_flight``, ``idle_fraction``, ``retries``,
    ``store_rows`` — all optional); ``emit`` receives the formatted
    line.  The thread only *reads* counters, so no synchronisation with
    the run loop is needed, and ``stop()`` is prompt (event wait, not
    sleep).
    """

    def __init__(self, interval: float, source: Callable[[], Dict],
                 emit: Optional[Callable[[str], None]] = None,
                 run_id: str = "") -> None:
        self.interval = float(interval)
        self.source = source
        self.emit = emit if emit is not None else self._default_emit
        self.run_id = run_id
        self.beats = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_evals = 0
        self._last_time: Optional[float] = None

    @staticmethod
    def _default_emit(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    def start(self) -> "Heartbeat":
        if self._thread is None:
            self._thread = threading.Thread(target=self._loop,
                                            name="telemetry-heartbeat",
                                            daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.beat()
            except Exception:  # noqa: BLE001 - observer must not kill runs
                pass

    def beat(self) -> str:
        """Take one reading and emit it (also called directly by tests)."""
        stats = self.source() or {}
        now = time.perf_counter()
        evals = int(stats.get("evals", 0))
        if self._last_time is None:
            rate = 0.0
        else:
            elapsed = max(now - self._last_time, 1e-9)
            rate = max(evals - self._last_evals, 0) / elapsed
        self._last_evals = evals
        self._last_time = now
        idle = stats.get("idle_fraction")
        idle_text = "n/a" if idle is None else f"{idle:.0%}"
        prefix = f"[run {self.run_id}] " if self.run_id else ""
        line = (f"{prefix}{evals} evals ({rate:.1f}/s)"
                f" | in-flight {int(stats.get('in_flight', 0))}"
                f" | idle {idle_text}"
                f" | retries {int(stats.get('retries', 0))}"
                f" | store rows {int(stats.get('store_rows', 0))}")
        self.beats += 1
        self.emit(line)
        return line


# ----------------------------------------------------------------------
# Trace inspection (`micronas trace summarize`)
# ----------------------------------------------------------------------
def load_trace(path) -> Dict:
    """Read a Chrome trace JSON file written by :meth:`Telemetry.write_trace`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError(f"not a Chrome trace object file: {path}")
    return payload


def _complete_events(payload: Dict) -> List[Dict]:
    return [event for event in payload.get("traceEvents", [])
            if event.get("ph") == "X"]


def _union_seconds(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``[start, end]`` intervals, seconds."""
    if not intervals:
        return 0.0
    intervals.sort()
    union = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            union += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    union += cur_end - cur_start
    return union


def span_coverage(payload: Dict) -> float:
    """Fraction of the trace's wall-clock window covered by at least one
    span (union over all tracks).

    The window runs from the earliest span start to the latest span end
    — for a harness run that is first dispatch to last gather, the
    interval the ≥95% acceptance bar is stated over.
    """
    events = _complete_events(payload)
    if not events:
        return 0.0
    intervals = [(event["ts"] / 1e6, (event["ts"] + event["dur"]) / 1e6)
                 for event in events]
    window = (max(end for _, end in intervals)
              - min(start for start, _ in intervals))
    if window <= 0.0:
        return 1.0
    return min(1.0, _union_seconds(intervals) / window)


def summarize_trace(payload: Dict) -> Dict:
    """Phase/span time breakdown of a trace payload.

    Phases are span categories (dispatch/worker/gather/...).  Shares are
    of the wall-clock window, and can sum past 1.0 — phases overlap by
    design (workers compute while the parent waits in gather).
    """
    events = _complete_events(payload)
    other = payload.get("otherData", {})
    if not events:
        return {"run_id": other.get("run_id", ""), "n_spans": 0,
                "wall_seconds": 0.0, "coverage": 0.0,
                "phases": [], "spans": []}
    starts = [event["ts"] / 1e6 for event in events]
    ends = [(event["ts"] + event["dur"]) / 1e6 for event in events]
    wall = max(ends) - min(starts)

    def _rollup(key: Callable[[Dict], str]) -> List[Dict]:
        grouped: Dict[str, Dict] = {}
        for event in events:
            row = grouped.setdefault(
                key(event), {"count": 0, "seconds": 0.0})
            row["count"] += 1
            row["seconds"] += event["dur"] / 1e6
        return [
            {"name": name, "count": row["count"],
             "seconds": row["seconds"],
             "share": (row["seconds"] / wall) if wall > 0 else 0.0}
            for name, row in sorted(grouped.items(),
                                    key=lambda kv: -kv[1]["seconds"])
        ]

    return {
        "run_id": other.get("run_id", ""),
        "n_spans": len(events),
        "wall_seconds": wall,
        "coverage": span_coverage(payload),
        "phases": _rollup(lambda event: event.get("cat", "?")),
        "spans": _rollup(lambda event: event.get("name", "?")),
    }


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "load_trace",
    "span_coverage",
    "summarize_trace",
]
