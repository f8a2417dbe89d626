"""Telemetry is a strict observer: spans/metrics record, results don't change.

Covers the tracing substrate (spans, Chrome export), the metrics
registry, worker spans returned with each task result (one
``worker_compute`` span per gathered chunk on every transport), the
run-scoped ``Telemetry`` facade, executor/harness integration (trace
files, run ids, drain), the heartbeat, and the schema-stability
contracts downstream report readers rely on.
"""

import json
import os
import re
import threading

import numpy as np
import pytest

from repro.engine import Engine
from repro.runtime import RunHarness, RuntimeConfig
from repro.runtime.async_pool import (
    AsyncPoolStats,
    AsyncPopulationExecutor,
    ChunkGatherError,
    FuturePool,
    _timed_call,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.fleet import FleetPool
from repro.runtime.pool import _evaluate_genotype_chunk, _fork_available
from repro.runtime.telemetry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Heartbeat,
    Histogram,
    MetricsRegistry,
    Telemetry,
    load_trace,
    span_coverage,
    summarize_trace,
)
from repro.searchspace.canonical import canonicalize
from repro.searchspace.space import NasBench201Space
from repro.runtime.tracing import (
    CAT_DISPATCH,
    CAT_GATHER,
    CAT_MERGE,
    CAT_WORKER,
    NULL_SPAN,
    Tracer,
    write_chrome_trace,
)

pytestmark = pytest.mark.obs

needs_fork = pytest.mark.skipif(not _fork_available(),
                                reason="needs fork start method")


def _quick_config(**overrides):
    defaults = dict(algorithm="random", samples=6, seed=3, fast=True)
    defaults.update(overrides)
    return RuntimeConfig(**defaults)


#: The harness's two entry points; the matrix cases are ``hw`` tests too.
ENTRY_POINTS = ["run", pytest.param("run_matrix", marks=pytest.mark.hw)]


def _entry_harness(entry, **overrides):
    """A harness and its bound entry point: a quick random run, or a
    small two-board device matrix (``samples=8``)."""
    if entry == "run_matrix":
        overrides = dict(samples=8, devices=("nucleo-f746zg",
                                             "nucleo-l432kc"),
                         objectives=("latency", "energy,peak-mem"),
                         **overrides)
    harness = RunHarness(_quick_config(**overrides))
    return harness, getattr(harness, entry)


# ----------------------------------------------------------------------
# Tracing substrate
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_records_name_cat_args_and_duration(self):
        tracer = Tracer()
        with tracer.span("merge", CAT_MERGE, {"chunk": 3}) as span:
            span.note(rows=8)
        (event,) = tracer.events()
        assert event["name"] == "merge"
        assert event["cat"] == CAT_MERGE
        assert event["args"] == {"chunk": 3, "rows": 8}
        assert event["dur"] >= 0.0
        assert event["pid"] == tracer.pid

    def test_span_records_on_exception_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("dispatch", CAT_DISPATCH):
                raise ValueError("boom")
        (event,) = tracer.events()
        assert event["args"]["error"] == "ValueError"

    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            span.note(anything=1)  # discarded, no error
        assert span is NULL_SPAN

    def test_chrome_events_use_integer_microseconds_and_run_id(self):
        tracer = Tracer()
        tracer.record("gather", CAT_GATHER, ts=10.0, duration=0.25)
        events = tracer.chrome_events(run_id="cafe0123")
        complete = [e for e in events if e.get("ph") == "X"]
        (event,) = complete
        assert event["ts"] == 10_000_000
        assert event["dur"] == 250_000
        assert isinstance(event["ts"], int) and isinstance(event["dur"], int)
        assert event["args"]["run_id"] == "cafe0123"
        # Metadata events label every pid track.
        meta = [e for e in events if e.get("ph") == "M"]
        assert any(e["name"] == "process_name" for e in meta)

    def test_chrome_events_label_worker_tracks(self):
        tracer = Tracer()
        tracer.record("worker_compute", CAT_WORKER, ts=1.0, duration=0.1,
                      pid=tracer.pid + 1, tid=1)
        labels = [e["args"]["name"] for e in tracer.chrome_events()
                  if e.get("ph") == "M"]
        assert any(label.startswith("micronas-worker") for label in labels)

    def test_write_chrome_trace_round_trips(self, tmp_path):
        tracer = Tracer()
        tracer.record("flush", "store", ts=5.0, duration=0.01)
        path = write_chrome_trace(tmp_path / "t.json",
                                  tracer.chrome_events("ab"),
                                  other_data={"run_id": "ab"})
        payload = load_trace(path)
        assert payload["otherData"]["run_id"] == "ab"
        assert payload["displayTimeUnit"] == "ms"
        assert any(e["name"] == "flush" for e in payload["traceEvents"])
        assert not list(tmp_path.glob("*.tmp"))  # atomic: no staging left

    def test_load_trace_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "not_a_trace.json"
        path.write_text(json.dumps({"events": []}), encoding="utf-8")
        with pytest.raises(ValueError):
            load_trace(path)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram_semantics(self):
        counter, gauge, histogram = Counter(), Gauge(), Histogram()
        counter.inc()
        counter.inc(4)
        gauge.set(3)
        gauge.set(7.5)
        for value in (0.003, 0.003, 2.0, 999.0):
            histogram.observe(value)
        assert counter.value == 5
        assert gauge.value == 7.5
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(0.003 + 0.003 + 2.0 + 999.0)
        # 0.003 x2 -> the 0.005 bucket; 2.0 -> the 5.0 bucket;
        # 999 -> overflow (the extra trailing slot).
        assert len(snap["counts"]) == len(DEFAULT_BUCKETS) + 1
        assert snap["counts"][DEFAULT_BUCKETS.index(0.005)] == 2
        assert snap["counts"][DEFAULT_BUCKETS.index(5.0)] == 1
        assert snap["counts"][-1] == 1

    def test_registry_reuses_instruments_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        registry.counter("a").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.2)
        snap = registry.snapshot()
        assert snap["counters"] == {"a": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1


# ----------------------------------------------------------------------
# Worker spans: timed where the worker runs, returned with the result
# ----------------------------------------------------------------------
class TestTracedWorker:
    """A worker is timed where it runs by ``_timed_call``; the executor
    records the span that comes back with the result."""

    def test_result_passes_through_bit_identical(self):
        rows = [("key", np.arange(4, dtype=np.float64))]

        def inner(payload):
            return rows

        value, span = _timed_call(inner, "payload")
        assert value is rows  # the very same object, untouched
        assert span.pid == os.getpid()
        assert span.tid == threading.get_ident()
        assert span.duration >= 0.0

    def test_records_span_and_metrics(self, tiny_proxy_config):
        tel = Telemetry.armed(run_id="ab")
        engine = Engine(proxy_config=tiny_proxy_config)
        population = NasBench201Space().sample(2, rng=5)
        with AsyncPopulationExecutor(n_workers=1, chunk_size=2,
                                     mode="serial",
                                     telemetry=tel) as executor:
            executor.warm_population(engine, population,
                                     assume_canonical=False)
        (span,) = [event for event in tel.tracer.events()
                   if event["name"] == "worker_compute"]
        assert span["cat"] == CAT_WORKER
        assert span["args"]["chunk"] == 0
        assert span["args"]["rows"] == 2
        assert span["dur"] > 0
        snap = tel.metrics_snapshot()
        assert snap["counters"]["worker.chunks"] == 1
        assert snap["counters"]["worker.rows"] == 2
        assert snap["histograms"]["worker_chunk_seconds"]["count"] == 1

    def test_raising_inner_logs_error_and_reraises(self):
        error = RuntimeError("poison")

        def inner(payload):
            raise error

        with pytest.raises(RuntimeError) as info:
            _timed_call(inner, None)
        assert info.value is error  # re-raised unchanged
        assert info.value.worker_span.pid == os.getpid()
        # The pool hands the exception and its span back together.
        pool = FuturePool(n_workers=1, mode="serial")
        pool.submit(inner, None)
        (result,) = pool.gather_all()
        assert result.error is error
        assert result.span is error.worker_span


TRANSPORTS = [
    "serial",
    "thread",
    pytest.param("fork", marks=needs_fork),
    pytest.param("fleet", marks=[needs_fork, pytest.mark.fleet]),
]


@pytest.mark.parametrize("traced", [False, True],
                         ids=["heartbeat", "trace"])
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_one_worker_compute_span_per_gathered_chunk(
        transport, traced, tiny_proxy_config, tmp_path):
    """Every transport, armed with or without a trace path, yields one
    ``worker_compute`` span per gathered chunk on the track of the
    process that computed it, and the per-chunk worker metrics; the
    executor's worker seconds are those spans' durations, and nothing
    but the executor's own ``dispatch`` spans reads as dispatch."""
    population = NasBench201Space().sample(6, rng=5)
    poison = canonicalize(population[0]).to_index()
    worker = FaultPlan(state_path=str(tmp_path / "faults"),
                       script={poison: ("poison",)}).wrap(
                           _evaluate_genotype_chunk)
    trace = tmp_path / "run.json" if traced else None
    tel = Telemetry.armed(run_id="ab", trace_path=trace)
    if transport == "fleet":
        pool = FleetPool(n_workers=1, lease_seconds=60.0)
        worker_pids = {proc.pid for proc in pool.spawn_local_workers(1)}
        executor = AsyncPopulationExecutor(chunk_size=2,
                                           genotype_worker=worker,
                                           pool=pool, telemetry=tel)
    else:
        executor = AsyncPopulationExecutor(
            n_workers=1 if transport == "serial" else 2, chunk_size=2,
            mode=transport, genotype_worker=worker, telemetry=tel)
    engine = Engine(proxy_config=tiny_proxy_config)
    gathered, failures = [], []
    with executor:
        executor.submit_population(engine, population)
        while executor.num_pending:
            try:
                gathered += executor.gather(1)
            except ChunkGatherError as error:
                gathered += error.gathered
                failures += error.failures
        if transport in ("serial", "thread"):
            worker_pids = {os.getpid()}
        elif transport == "fork":
            worker_pids = set(executor.pool._pool._processes)
    assert len(failures) == 1

    if traced:
        tel.write_trace()
        payload = load_trace(trace)
    else:
        payload = tel.export()
    spans = [event for event in payload["traceEvents"]
             if event.get("ph") == "X"]
    computes = [event for event in spans
                if event["name"] == "worker_compute"]
    dispatched = sorted(event["args"]["chunk"] for event in spans
                        if event["name"] == "dispatch")
    assert len(computes) == len(gathered) + len(failures)
    assert sorted(event["args"]["chunk"] for event in computes) \
        == dispatched
    assert {event["pid"] for event in computes} <= worker_pids
    (errored,) = [event for event in computes if "error" in event["args"]]
    assert errored["args"]["error"] == type(failures[0]).__name__
    # Trace durations are whole microseconds, truncated.
    assert executor.stats.worker_seconds == pytest.approx(
        sum(event["dur"] for event in computes) / 1e6,
        abs=1e-6 * len(computes))
    assert {event["name"] for event in spans
            if event["cat"] == CAT_DISPATCH} == {"dispatch"}
    counters = tel.metrics_snapshot()["counters"]
    assert counters["worker.chunks"] == len(gathered)
    assert counters["worker.rows"] == sum(
        len(chunk.canonical_indices) for chunk in gathered)
    if transport == "fleet":
        phases = {phase["name"]: phase
                  for phase in summarize_trace(payload)["phases"]}
        assert phases["worker"]["share"] <= 1.0
    assert not list(tmp_path.glob("*.workers.jsonl"))


# ----------------------------------------------------------------------
# The run-scoped facade
# ----------------------------------------------------------------------
class TestTelemetryFacade:
    def test_disabled_is_a_shared_no_op(self):
        tel = Telemetry.disabled()
        assert tel is Telemetry.disabled()
        assert not tel.enabled
        assert tel.span("anything") is NULL_SPAN
        tel.count("c")
        tel.gauge("g", 1)
        tel.observe("h", 1)  # all silently dropped
        assert tel.metrics_snapshot() == {"counters": {}, "gauges": {},
                                          "histograms": {}}

    def test_armed_records_spans_and_metrics(self):
        tel = Telemetry.armed(run_id="ab")
        with tel.span("dispatch", CAT_DISPATCH, chunk=0):
            pass
        tel.count("executor.evals", 3)
        tel.observe("chunk_seconds", 0.2)
        assert len(tel.tracer) == 1
        snap = tel.metrics_snapshot()
        assert snap["counters"]["executor.evals"] == 3
        assert snap["histograms"]["chunk_seconds"]["count"] == 1

    def test_export_payload_shape(self, tmp_path):
        tel = Telemetry.armed(run_id="ab", trace_path=tmp_path / "t.json")
        with tel.span("gather", CAT_GATHER):
            pass
        payload = tel.export(other_data={"extra": 1})
        assert set(payload) == {"traceEvents", "displayTimeUnit",
                                "otherData"}
        assert payload["otherData"]["run_id"] == "ab"
        assert payload["otherData"]["extra"] == 1
        assert "metrics" in payload["otherData"]

    def test_write_trace_only_when_armed_with_path(self, tmp_path):
        assert Telemetry.disabled().write_trace() is None
        assert Telemetry.armed(run_id="x").write_trace() is None
        tel = Telemetry.armed(run_id="x", trace_path=tmp_path / "t.json")
        path = tel.write_trace()
        assert path is not None and path.exists()
        load_trace(path)  # well-formed


# ----------------------------------------------------------------------
# Executor integration
# ----------------------------------------------------------------------
class TestExecutorTelemetry:
    def test_async_executor_spans_correlate_by_chunk_id(
            self, tiny_proxy_config, tmp_path):
        tel = Telemetry.armed(run_id="ab", trace_path=tmp_path / "t.json")
        engine = Engine(proxy_config=tiny_proxy_config)
        population = NasBench201Space().sample(6, rng=5)
        with AsyncPopulationExecutor(n_workers=1, chunk_size=2,
                                     mode="serial",
                                     telemetry=tel) as executor:
            executor.submit_population(engine, population)
            while executor.num_pending:
                executor.gather(1)
        events = tel.tracer.events()
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event)
        assert set(by_name) >= {"dispatch", "gather", "merge",
                                "worker_compute"}
        # chunk ids tie a dispatch to its worker compute and its merge.
        dispatched = {e["args"]["chunk"] for e in by_name["dispatch"]}
        computed = {e["args"]["chunk"] for e in by_name["worker_compute"]}
        merged = {e["args"]["chunk"] for e in by_name["merge"]}
        assert dispatched == computed == merged
        assert len(dispatched) == len(by_name["dispatch"])
        snap = tel.metrics_snapshot()
        assert snap["counters"]["executor.evals"] > 0
        assert snap["histograms"]["worker_chunk_seconds"]["count"] >= 1

    def test_results_identical_with_and_without_telemetry(
            self, tiny_proxy_config, tmp_path):
        population = NasBench201Space().sample(6, rng=5)

        def run(telemetry):
            engine = Engine(proxy_config=tiny_proxy_config)
            with AsyncPopulationExecutor(n_workers=1, chunk_size=2,
                                         mode="serial",
                                         telemetry=telemetry) as executor:
                executor.submit_population(engine, population)
                while executor.num_pending:
                    executor.gather(1)
            return engine.evaluate_population(population)

        plain = run(None)
        traced = run(Telemetry.armed(run_id="ab",
                                     trace_path=tmp_path / "t.json"))
        for name in plain.columns:
            assert np.array_equal(plain.columns[name], traced.columns[name])

    def test_dedupe_hits_counted(self, tiny_proxy_config):
        tel = Telemetry.armed(run_id="ab")
        engine = Engine(proxy_config=tiny_proxy_config)
        (genotype,) = NasBench201Space().sample(1, rng=9)
        with AsyncPopulationExecutor(n_workers=1, chunk_size=2,
                                     mode="serial",
                                     telemetry=tel) as executor:
            assert executor.submit_population(engine, [genotype]) == 1
            # The same candidate while its chunk is still in flight:
            # deduped at submit, not shipped again.
            assert executor.submit_population(engine, [genotype]) == 0
            assert executor.stats.dedupe_hits == 1
            while executor.num_pending:
                executor.gather(1)
        assert tel.metrics_snapshot()["counters"]["executor.dedupe_hits"] == 1


# ----------------------------------------------------------------------
# Harness integration
# ----------------------------------------------------------------------
class TestHarnessTelemetry:
    def test_run_id_and_utc_timestamps_in_report(self):
        report = RunHarness(_quick_config()).run()
        assert re.fullmatch(r"[0-9a-f]{8}", report.run_id)
        assert report.started_at.endswith("+00:00")
        assert report.finished_at.endswith("+00:00")
        assert report.started_at <= report.finished_at  # ISO sorts
        assert report.telemetry is None  # not armed by default

    def test_run_ids_are_distinct_per_harness(self):
        config = _quick_config()
        assert RunHarness(config).run_id != RunHarness(config).run_id

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_traced_run_writes_valid_chrome_trace(self, entry, tmp_path):
        trace = tmp_path / "run.json"
        _, run = _entry_harness(entry, trace_path=str(trace))
        report = run()
        payload = load_trace(trace)
        assert payload["otherData"]["run_id"] == report.run_id
        assert payload["otherData"]["interrupted"] is False
        names = {e["name"] for e in payload["traceEvents"]
                 if e.get("ph") == "X"}
        assert names >= {"dispatch", "gather", "merge",
                         "evaluate_population"}
        assert report.telemetry is not None
        assert report.telemetry["counters"]["executor.evals"] > 0
        summary = summarize_trace(payload)
        assert summary["coverage"] > 0.5
        assert {p["name"] for p in summary["phases"]} >= {"dispatch",
                                                          "gather"}

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_drain_interrupted_run_still_writes_well_formed_trace(
            self, entry, tmp_path):
        trace = tmp_path / "run.json"
        # The steady-state loop consults the drain flag; the matrix's
        # one population batch finishes and is marked interrupted.
        loop = (dict(algorithm="steady-state", population_size=4,
                     cycles=40) if entry == "run" else {})
        harness, run = _entry_harness(entry, trace_path=str(trace), **loop)

        def hook(gathered):
            # What the SIGINT/SIGTERM handler does, minus the signal.
            harness._drain_requested = True
            harness.executor.request_drain()

        harness.executor.on_gather = hook
        report = run()
        assert report.status == "interrupted"
        payload = load_trace(trace)
        assert payload["otherData"]["interrupted"] is True
        assert summarize_trace(payload)["n_spans"] > 0

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_heartbeat_config_emits_progress_lines(self, entry, capsys):
        _, run = _entry_harness(entry, heartbeat=0.01)
        report = run()
        assert f"[run {report.run_id}] " in capsys.readouterr().err
        # The harness armed telemetry for the heartbeat even with no
        # trace path, so the metrics snapshot rides in the report.
        assert report.telemetry is not None


# ----------------------------------------------------------------------
# Schema stability: downstream readers parse these dicts
# ----------------------------------------------------------------------
class TestReportSchemas:
    def test_async_pool_stats_to_dict_keys_are_pinned(self):
        expected = ["mode", "n_workers", "dispatches", "chunks", "gathers",
                    "flushes", "tasks", "merged_rows", "dedupe_hits",
                    "retries", "timeouts", "respawns", "quarantined",
                    "worker_seconds", "idle_fraction", "span_seconds"]
        assert list(AsyncPoolStats().to_dict()) == expected

    def test_async_pool_stats_idle_fraction_defaults_to_none(self):
        assert AsyncPoolStats().to_dict()["idle_fraction"] is None

    def test_run_report_dict_carries_identity_fields(self, tmp_path):
        report = RunHarness(_quick_config()).run()
        payload = report.to_dict()
        for key in ("run_id", "started_at", "finished_at", "status",
                    "telemetry", "config", "pool", "cache", "store",
                    "indicators", "wall_seconds"):
            assert key in payload
        path = tmp_path / "report.json"
        report.save_json(str(path))
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["run_id"] == report.run_id
        assert loaded["config"]["trace_path"] is None
        assert loaded["config"]["heartbeat"] is None


# ----------------------------------------------------------------------
# Heartbeat
# ----------------------------------------------------------------------
class TestHeartbeat:
    def test_beat_line_format_and_rate(self):
        readings = iter([
            {"evals": 0, "in_flight": 2, "idle_fraction": None,
             "retries": 0, "store_rows": 0},
            {"evals": 10, "in_flight": 1, "idle_fraction": 0.25,
             "retries": 1, "store_rows": 32},
        ])
        lines = []
        heartbeat = Heartbeat(60.0, lambda: next(readings),
                              emit=lines.append, run_id="cafe0123")
        first = heartbeat.beat()
        second = heartbeat.beat()
        assert lines == [first, second]
        assert first.startswith("[run cafe0123] 0 evals (0.0/s)")
        assert "idle n/a" in first
        assert "| in-flight 1 |" in second
        assert "idle 25%" in second
        assert "retries 1" in second
        assert "store rows 32" in second
        assert float(re.search(r"\((\d+\.\d)/s\)", second).group(1)) > 0

    def test_thread_starts_beats_and_stops(self):
        import time

        lines = []
        heartbeat = Heartbeat(0.01, lambda: {"evals": 1},
                              emit=lines.append).start()
        for _ in range(500):
            if heartbeat.beats:
                break
            time.sleep(0.01)
        heartbeat.stop()
        assert heartbeat.beats >= 1
        assert lines
        stopped_at = heartbeat.beats
        time.sleep(0.05)
        assert heartbeat.beats == stopped_at  # no beats after stop()

    def test_a_raising_source_never_kills_the_thread(self):
        import time

        heartbeat = Heartbeat(0.001, lambda: 1 / 0).start()
        time.sleep(0.02)
        heartbeat.stop()  # joins cleanly: the loop swallowed the errors


# ----------------------------------------------------------------------
# Trace analysis + CLI surface
# ----------------------------------------------------------------------
def _payload(events):
    return {"traceEvents": events, "otherData": {"run_id": "ab"}}


def _event(name, cat, ts_s, dur_s):
    return {"name": name, "cat": cat, "ph": "X",
            "ts": int(ts_s * 1e6), "dur": int(dur_s * 1e6),
            "pid": 1, "tid": 1, "args": {}}


class TestTraceAnalysis:
    def test_span_coverage_unions_overlaps_and_sees_gaps(self):
        # [0,1] and [0.5,1.5] overlap -> union 1.5; window [0,2] with
        # [1.5,2] uncovered by the third span starting at 1.8.
        payload = _payload([
            _event("a", "x", 0.0, 1.0),
            _event("b", "y", 0.5, 1.0),
            _event("c", "x", 1.8, 0.2),
        ])
        assert span_coverage(payload) == pytest.approx(1.7 / 2.0)

    def test_span_coverage_empty_trace_is_zero(self):
        assert span_coverage(_payload([])) == 0.0

    def test_summarize_groups_by_phase_and_span_name(self):
        payload = _payload([
            _event("dispatch", "dispatch", 0.0, 0.2),
            _event("dispatch", "dispatch", 0.2, 0.2),
            _event("gather", "gather", 0.4, 1.6),
        ])
        summary = summarize_trace(payload)
        assert summary["run_id"] == "ab"
        assert summary["n_spans"] == 3
        assert summary["wall_seconds"] == pytest.approx(2.0)
        phases = {p["name"]: p for p in summary["phases"]}
        assert phases["dispatch"]["count"] == 2
        assert phases["dispatch"]["seconds"] == pytest.approx(0.4)
        assert phases["dispatch"]["share"] == pytest.approx(0.2)
        assert phases["gather"]["share"] == pytest.approx(0.8)
        # Sorted by descending time.
        assert summary["phases"][0]["name"] == "gather"

    def test_cli_trace_summarize(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "run.json"
        RunHarness(_quick_config(trace_path=str(trace))).run()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "span coverage" in out
        assert "gather" in out

    def test_cli_trace_summarize_rejects_garbage(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["trace", "summarize", str(path)])
