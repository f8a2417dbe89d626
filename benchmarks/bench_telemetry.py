"""Telemetry runtime: armed overhead and trace completeness.

Two measurements, both writing ``BENCH_telemetry.json``:

1. **Armed overhead** — the same sleep-padded population warm is pushed
   through a serial (``n_workers=1``)
   :class:`~repro.runtime.async_pool.AsyncPopulationExecutor` twice:
   once with telemetry disabled (the default) and once armed with a
   trace file — spans recording (one ``worker_compute`` span per chunk
   included), metrics counting and the end-of-run Chrome-trace export
   all included in the armed wall-clock.  Telemetry is a strict
   observer, so the gap must stay under 2% **and** the indicator rows
   computed by both arms must be bit-identical.

2. **Trace completeness under faults** — a fuzzed-fault fork run (the
   fault bench's 20% crash/hang/poison mix) with tracing armed must
   produce a loadable Chrome ``trace_event`` JSON whose spans cover at
   least 95% of the wall-clock between the first dispatch and the last
   span — the timeline an operator would actually debug from, faults,
   backoff waits and respawns included.

An orchestration microbenchmark: its timings are of sleep-padded
chunks, not of proxy compute, so they measure the telemetry layer
alone.  ``perfbench/`` times the searches on real proxy compute.

Run directly (``python benchmarks/bench_telemetry.py``) or via pytest
(``pytest benchmarks/bench_telemetry.py``).
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.engine import Engine
from repro.eval.benchconfig import bench_scale, search_proxy_config
from repro.runtime.async_pool import AsyncPopulationExecutor
from repro.runtime.faults import FaultPlan, FaultPolicy, QuarantineLedger
from repro.runtime.pool import _evaluate_genotype_chunk
from repro.runtime.telemetry import (
    Telemetry,
    load_trace,
    summarize_trace,
)
from repro.searchspace.space import NasBench201Space
from repro.utils.timing import Timer, format_duration

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"

# Overhead part: enough chunks that per-span cost would show up if it
# were expensive, padded so the workload duration is stable against
# scheduler noise (the pad dominates proxy compute).
OVERHEAD_CANDIDATES = 64
OVERHEAD_PAD_S = 0.004
OVERHEAD_REPEATS = 7
OVERHEAD_BUDGET = 0.02  # the acceptance bar: < 2% armed overhead

# Traced-faults part: the fault bench's operating point.
TRACE_CANDIDATES = 24
FAULT_RATE = 0.2
N_WORKERS = 4
CHUNK_TIMEOUT_S = 2.0
HANG_S = 4.0
COVERAGE_BAR = 0.95


def _padded_worker(payload):
    """Real chunk evaluation plus a fixed per-candidate pad."""
    rows = _evaluate_genotype_chunk(payload)
    time.sleep(OVERHEAD_PAD_S * len(rows))
    return rows


# ----------------------------------------------------------------------
# Part 1: armed-vs-disabled overhead (and bit-identity)
# ----------------------------------------------------------------------
def _warm_once(proxy_config, population,
               telemetry: Optional[Telemetry]):
    engine = Engine(proxy_config=proxy_config)
    with AsyncPopulationExecutor(n_workers=1, chunk_size=1, mode="serial",
                                 genotype_worker=_padded_worker,
                                 telemetry=telemetry) as executor:
        with Timer() as timer:
            executor.warm_population(engine, population,
                                     assume_canonical=False)
            if telemetry is not None and telemetry.enabled:
                # The one-shot export is part of what arming costs.
                telemetry.write_trace()
    return timer.elapsed, engine


def _run_overhead(proxy_config, tmp_dir: Path) -> Dict:
    population = NasBench201Space().sample(OVERHEAD_CANDIDATES, rng=5)
    disabled_times, armed_times = [], []
    engines = {}
    run_counter = [0]

    def disabled_arm():
        elapsed, engine = _warm_once(proxy_config, population, None)
        engines.setdefault("disabled", engine)
        return elapsed

    def armed_arm():
        run_counter[0] += 1
        trace = tmp_dir / f"overhead-{run_counter[0]}.json"
        telemetry = Telemetry.armed(run_id=f"arm{run_counter[0]}",
                                    trace_path=trace)
        elapsed, engine = _warm_once(proxy_config, population, telemetry)
        engines.setdefault("armed", engine)
        return elapsed

    # Alternate which arm goes first each round so machine drift within
    # a round hits both arms equally; compare minima (the
    # least-disturbed observation of each arm).
    for repeat in range(OVERHEAD_REPEATS):
        arms = [(disabled_times, disabled_arm), (armed_times, armed_arm)]
        for times, arm in (arms if repeat % 2 == 0 else reversed(arms)):
            times.append(arm())

    # Strict observer: both arms computed the exact same rows.
    baseline = engines["disabled"].evaluate_population(population)
    traced = engines["armed"].evaluate_population(population)
    assert baseline.cache_misses == 0 and traced.cache_misses == 0
    bit_identical = all(
        np.array_equal(baseline.columns[name], traced.columns[name])
        for name in baseline.columns
    )

    best_disabled, best_armed = min(disabled_times), min(armed_times)
    return {
        "candidates": OVERHEAD_CANDIDATES,
        "pad_seconds_per_candidate": OVERHEAD_PAD_S,
        "repeats": OVERHEAD_REPEATS,
        "disabled_wall_seconds": best_disabled,
        "armed_wall_seconds": best_armed,
        "overhead_fraction": (best_armed - best_disabled)
                             / max(best_disabled, 1e-9),
        "budget_fraction": OVERHEAD_BUDGET,
        "rows_bit_identical": bit_identical,
    }


# ----------------------------------------------------------------------
# Part 2: trace completeness under a 20% fault rate
# ----------------------------------------------------------------------
def _run_traced(proxy_config, tmp_dir: Path) -> Dict:
    population = NasBench201Space().sample(TRACE_CANDIDATES, rng=13)
    trace_path = tmp_dir / "faulted-trace.json"
    telemetry = Telemetry.armed(run_id="benchfault", trace_path=trace_path)
    plan = FaultPlan(state_path=str(tmp_dir / "fault-state"),
                     hash_rate=FAULT_RATE,
                     hash_actions=("crash", "hang", "poison"),
                     hang_seconds=HANG_S)
    policy = FaultPolicy(chunk_timeout=CHUNK_TIMEOUT_S, max_retries=2,
                         max_respawns=8, backoff_base=0.01)
    ledger = QuarantineLedger(tmp_dir / "quarantine.jsonl")

    engine = Engine(proxy_config=proxy_config)
    with AsyncPopulationExecutor(n_workers=N_WORKERS, chunk_size=1,
                                 mode="fork",
                                 genotype_worker=plan.wrap(
                                     _evaluate_genotype_chunk),
                                 fault_policy=policy,
                                 quarantine_ledger=ledger,
                                 telemetry=telemetry) as executor:
        with Timer() as timer:
            executor.submit_population(engine, population)
            merged = sum(chunk.merged_rows
                         for chunk in executor.gather_all())
        stats = executor.stats

    telemetry.write_trace(other_data={"bench": "telemetry"})
    payload = load_trace(trace_path)
    summary = summarize_trace(payload)
    span_names = {event["name"] for event in payload["traceEvents"]
                  if event.get("ph") == "X"}
    worker_spans = sum(1 for event in payload["traceEvents"]
                       if event.get("ph") == "X"
                       and event.get("cat") == "worker")
    return {
        "candidates": TRACE_CANDIDATES,
        "fault_rate": FAULT_RATE,
        "n_workers": N_WORKERS,
        "chunk_timeout_seconds": CHUNK_TIMEOUT_S,
        "wall_seconds": timer.elapsed,
        "merged_rows": merged,
        "retries": stats.retries,
        "timeouts": stats.timeouts,
        "respawns": stats.respawns,
        "quarantined": stats.quarantined,
        "n_spans": summary["n_spans"],
        "worker_spans": worker_spans,
        "span_names": sorted(span_names),
        "coverage": summary["coverage"],
        "coverage_bar": COVERAGE_BAR,
        "phase_seconds": {phase["name"]: phase["seconds"]
                          for phase in summary["phases"]},
        "trace_bytes": trace_path.stat().st_size,
    }


def run_telemetry() -> Dict:
    proxy_config = search_proxy_config()
    with tempfile.TemporaryDirectory() as tmp:
        overhead = _run_overhead(proxy_config, Path(tmp))
        traced = _run_traced(proxy_config, Path(tmp))
    result = {
        "bench_scale": bench_scale(),
        "overhead": overhead,
        "traced": traced,
    }
    OUTPUT_PATH.write_text(json.dumps(result, indent=2) + "\n",
                           encoding="utf-8")
    return result


def test_telemetry(benchmark):
    result = benchmark.pedantic(run_telemetry, rounds=1, iterations=1)
    _report(result)
    overhead, traced = result["overhead"], result["traced"]
    # Acceptance: armed tracing costs < 2% wall-clock and changes no row.
    assert overhead["overhead_fraction"] < OVERHEAD_BUDGET
    assert overhead["rows_bit_identical"]
    # Acceptance: the fuzzed-fault trace is complete — spans cover >= 95%
    # of the window from first dispatch to last span — and every layer
    # shows up, fork workers' compute spans (returned with each chunk
    # result) included.
    assert traced["coverage"] >= COVERAGE_BAR
    assert traced["worker_spans"] >= 1
    assert set(traced["span_names"]) >= {"dispatch", "gather", "merge",
                                         "worker_compute"}


def _report(result: Dict) -> None:
    overhead, traced = result["overhead"], result["traced"]
    print()
    print(f"disabled warm     : "
          f"{format_duration(overhead['disabled_wall_seconds'])}")
    print(f"armed warm        : "
          f"{format_duration(overhead['armed_wall_seconds'])}"
          f"  -> {overhead['overhead_fraction']:+.2%} overhead"
          f" (budget {overhead['budget_fraction']:.0%})")
    print(f"rows identical    : {overhead['rows_bit_identical']}")
    print(f"faulted traced run: "
          f"{format_duration(traced['wall_seconds'])}"
          f"  ({traced['merged_rows']} rows, {traced['retries']} retries, "
          f"{traced['timeouts']} timeouts, {traced['respawns']} respawns)")
    print(f"trace             : {traced['n_spans']} spans "
          f"({traced['worker_spans']} from workers), "
          f"coverage {traced['coverage']:.1%} "
          f"(bar {traced['coverage_bar']:.0%}), "
          f"{traced['trace_bytes'] / 1024:.1f} KB")
    print(f"written           : {OUTPUT_PATH}")


if __name__ == "__main__":
    _report(run_telemetry())
