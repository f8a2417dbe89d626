"""Fault-tolerance runtime: policy overhead and recovery under faults.

Two measurements, both writing ``BENCH_faults.json``:

1. **Fault-free overhead** — the same sleep-padded population warm is
   pushed through :class:`~repro.runtime.async_pool.AsyncPopulationExecutor`
   twice: once under the executor's default policy
   (``FaultPolicy(max_retries=0, quarantine=False)``: any failure
   raises) and once with a full :class:`~repro.runtime.faults.FaultPolicy`
   (deadlines armed, retry budget armed, quarantine on).  No fault ever
   fires, so the gap is what arming recovery costs when nothing fails —
   deadline arithmetic, retry and quarantine bookkeeping.  The armed
   policy must cost under 2% wall-clock.

2. **Recovery under a 20% fault rate** — a fixed sampled population is
   evaluated on fork workers wrapped in a fuzzing
   :class:`~repro.runtime.faults.FaultPlan` (hash-selected ~20% of
   candidates crash the worker process, hang past the chunk deadline,
   or poison deterministically).  Crash and hang candidates must heal
   through respawn/retry; poison candidates must end quarantined; and
   every surviving row must be **bit-identical** to a fault-free serial
   run of the same candidates.

An orchestration microbenchmark: its timings are of sleep-padded
chunks, not of proxy compute, so they measure the fault-handling machinery
alone.  ``perfbench/`` times the searches on real proxy compute.

Run directly (``python benchmarks/bench_fault_tolerance.py``) or via
pytest (``pytest benchmarks/bench_fault_tolerance.py``).
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path
from typing import Dict

import numpy as np

from repro.engine import Engine
from repro.eval.benchconfig import bench_scale, search_proxy_config
from repro.runtime.async_pool import AsyncPopulationExecutor
from repro.runtime.faults import FaultPlan, FaultPolicy, QuarantineLedger
from repro.runtime.pool import _evaluate_genotype_chunk
from repro.searchspace.canonical import canonicalize
from repro.searchspace.space import NasBench201Space
from repro.utils.timing import Timer, format_duration

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_faults.json"

# Overhead part: enough candidates that per-chunk policy bookkeeping
# would show up if it were expensive, padded so the workload duration is
# stable against scheduler noise (the pad dominates proxy compute).
OVERHEAD_CANDIDATES = 64
OVERHEAD_PAD_S = 0.004
OVERHEAD_REPEATS = 7
OVERHEAD_BUDGET = 0.02  # the acceptance bar: < 2% policy overhead

# Fault part: fuzzed fault injection at the issue's 20% rate.
FAULT_CANDIDATES = 24
FAULT_RATE = 0.2
N_WORKERS = 4
CHUNK_TIMEOUT_S = 2.0
HANG_S = 4.0  # hangs must overrun the deadline decisively


def _padded_worker(payload):
    """Real chunk evaluation plus a fixed per-candidate pad.

    The pad makes each run long enough (~0.26s) that wall-clock deltas
    measure policy bookkeeping rather than timer granularity."""
    rows = _evaluate_genotype_chunk(payload)
    time.sleep(OVERHEAD_PAD_S * len(rows))
    return rows


# ----------------------------------------------------------------------
# Part 1: fault-free policy overhead
# ----------------------------------------------------------------------
def _warm_once(proxy_config, population, fault_policy) -> float:
    engine = Engine(proxy_config=proxy_config)
    with AsyncPopulationExecutor(n_workers=1, chunk_size=1,
                                 genotype_worker=_padded_worker,
                                 fault_policy=fault_policy) as executor:
        with Timer() as timer:
            executor.warm_population(engine, population,
                                     assume_canonical=False)
        assert executor.stats.retries == 0
        assert executor.stats.quarantined == 0
        return timer.elapsed


def _run_overhead(proxy_config) -> Dict:
    population = NasBench201Space().sample(OVERHEAD_CANDIDATES, rng=5)
    default = FaultPolicy(max_retries=0, quarantine=False)
    policy = FaultPolicy(chunk_timeout=30.0, max_retries=2)
    baseline, policed = [], []
    # Alternate which arm goes first each round so machine drift within
    # a round hits both arms equally; compare minima (the
    # least-disturbed observation of each arm).
    for repeat in range(OVERHEAD_REPEATS):
        arms = [(baseline, default), (policed, policy)]
        for times, arm_policy in (arms if repeat % 2 == 0
                                  else reversed(arms)):
            times.append(_warm_once(proxy_config, population, arm_policy))
    best_baseline, best_policed = min(baseline), min(policed)
    return {
        "candidates": OVERHEAD_CANDIDATES,
        "pad_seconds_per_candidate": OVERHEAD_PAD_S,
        "repeats": OVERHEAD_REPEATS,
        "baseline_wall_seconds": best_baseline,
        "policy_wall_seconds": best_policed,
        "overhead_fraction": (best_policed - best_baseline)
                             / max(best_baseline, 1e-9),
        "budget_fraction": OVERHEAD_BUDGET,
    }


# ----------------------------------------------------------------------
# Part 2: completion and bit-identity under a 20% fault rate
# ----------------------------------------------------------------------
def _run_faulted(proxy_config, tmp_dir: Path) -> Dict:
    population = NasBench201Space().sample(FAULT_CANDIDATES, rng=13)
    unique = {canonicalize(g).to_index(): g for g in population}

    # Hash fuzzing covers the bulk of the fault rate, but which action a
    # digest picks is arbitrary — script one guaranteed hang and one
    # guaranteed poison so every recovery mechanism (respawn, deadline
    # retry, quarantine) demonstrably fires in the recorded run.
    hang_target, poison_target = sorted(unique)[:2]
    plan = FaultPlan(state_path=str(tmp_dir / "fault-state"),
                     script={hang_target: ("hang",),
                             poison_target: ("poison",)},
                     hash_rate=FAULT_RATE,
                     hash_actions=("crash", "hang", "poison"),
                     hang_seconds=HANG_S)
    ledger = QuarantineLedger(tmp_dir / "quarantine.jsonl")
    policy = FaultPolicy(chunk_timeout=CHUNK_TIMEOUT_S, max_retries=2,
                         max_respawns=8, backoff_base=0.01)

    engine = Engine(proxy_config=proxy_config)
    with AsyncPopulationExecutor(n_workers=N_WORKERS, chunk_size=1,
                                 genotype_worker=plan.wrap(
                                     _evaluate_genotype_chunk),
                                 fault_policy=policy,
                                 quarantine_ledger=ledger) as executor:
        with Timer() as timer:
            executor.submit_population(engine, population)
            completed = set()
            for chunk in executor.gather_all():
                completed.update(chunk.canonical_indices)
        stats = executor.stats
        quarantined = set(executor.quarantined_genotypes)

    # Every unique candidate either completed or ended quarantined.
    assert completed | quarantined == set(unique)
    assert not (completed & quarantined)

    # Surviving rows are bit-identical to a fault-free serial run.
    survivors = [unique[index] for index in sorted(completed)]
    warmed = engine.evaluate_population(survivors)
    # Every proxy row came from the workers; the one miss per cell is
    # its FLOPs row, which the driver prices.
    assert warmed.cache_misses == warmed.unique_canonical
    serial = Engine(proxy_config=proxy_config).evaluate_population(survivors)
    bit_identical = all(
        np.array_equal(serial.columns[name], warmed.columns[name])
        for name in serial.columns
    )

    return {
        "candidates": FAULT_CANDIDATES,
        "unique_candidates": len(unique),
        "fault_rate": FAULT_RATE,
        "fault_actions": ["crash", "hang", "poison"],
        "chunk_timeout_seconds": CHUNK_TIMEOUT_S,
        "wall_seconds": timer.elapsed,
        "scripted_hang": hang_target,
        "scripted_poison": poison_target,
        "completed_rows": len(completed),
        "completed_fraction": len(completed) / len(unique),
        "quarantined": sorted(quarantined),
        "retries": stats.retries,
        "timeouts": stats.timeouts,
        "respawns": stats.respawns,
        "survivors_bit_identical": bit_identical,
    }


def run_fault_tolerance() -> Dict:
    proxy_config = search_proxy_config()
    overhead = _run_overhead(proxy_config)
    with tempfile.TemporaryDirectory() as tmp:
        faulted = _run_faulted(proxy_config, Path(tmp))
    result = {
        "bench_scale": bench_scale(),
        "overhead": overhead,
        "faulted": faulted,
    }
    OUTPUT_PATH.write_text(json.dumps(result, indent=2) + "\n",
                           encoding="utf-8")
    return result


def test_fault_tolerance(benchmark):
    result = benchmark.pedantic(run_fault_tolerance, rounds=1, iterations=1)
    _report(result)
    overhead, faulted = result["overhead"], result["faulted"]
    # Acceptance: an armed-but-idle policy costs < 2% wall-clock.
    assert overhead["overhead_fraction"] < OVERHEAD_BUDGET
    # Acceptance: under ~20% mixed faults the run still completes, only
    # poison candidates are lost, and survivors match serial exactly.
    assert faulted["survivors_bit_identical"]
    assert faulted["completed_fraction"] >= 0.75
    assert faulted["completed_rows"] + len(faulted["quarantined"]) \
        == faulted["unique_candidates"]
    # Every recovery mechanism fired: the scripted hang tripped the
    # deadline (then healed on retry), the scripted poison ended
    # quarantined, and worker death forced at least one respawn.
    assert faulted["scripted_poison"] in faulted["quarantined"]
    assert faulted["scripted_hang"] not in faulted["quarantined"]
    assert faulted["timeouts"] >= 1
    assert faulted["respawns"] >= 1


def _report(result: Dict) -> None:
    overhead, faulted = result["overhead"], result["faulted"]
    print()
    print(f"fault-free baseline : "
          f"{format_duration(overhead['baseline_wall_seconds'])}")
    print(f"fault-free policed  : "
          f"{format_duration(overhead['policy_wall_seconds'])}"
          f"  -> {overhead['overhead_fraction']:+.2%} overhead"
          f" (budget {overhead['budget_fraction']:.0%})")
    print(f"faulted run         : "
          f"{format_duration(faulted['wall_seconds'])}"
          f"  ({faulted['completed_rows']}/{faulted['unique_candidates']}"
          f" rows, {len(faulted['quarantined'])} quarantined)")
    print(f"recovery            : {faulted['retries']} retries, "
          f"{faulted['timeouts']} timeouts, "
          f"{faulted['respawns']} respawns")
    print(f"survivors identical : {faulted['survivors_bit_identical']}")
    print(f"written             : {OUTPUT_PATH}")


if __name__ == "__main__":
    _report(run_fault_tolerance())
