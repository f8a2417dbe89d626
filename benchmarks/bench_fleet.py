"""Distributed fleet: worker scaling and elastic-membership recovery.

Two measurements, both writing ``BENCH_fleet.json``:

1. **Worker scaling** — a fixed set of sleep-padded chunks is pushed
   through a :class:`~repro.runtime.fleet.FleetPool` with 1, 2 and 4
   forked local workers leasing over the real TCP socket path.  Sleeps
   release the GIL and burn no CPU, so the fan-out is genuinely
   concurrent even on a small CI box and the measured gap is transport +
   scheduling, not core count.  The acceptance bar is >=3x chunk
   throughput at 4 workers vs 1 (near-linear minus the per-chunk
   lease/result round-trips).

2. **Elastic membership** — real genotype chunks (padded so a kill can
   land mid-lease) run through an ``AsyncPopulationExecutor`` over a
   fleet of store-attached workers; one worker is SIGKILLed while it
   holds a lease and a replacement joins mid-run.  The broker fails the
   lost chunk as transient and the executor's ``FaultPolicy`` retries
   it.  The run must finish with every indicator row bit-identical to a
   fault-free serial evaluation, the lost-task and retry counters
   showing the recovery actually happened, and the shared store holding
   every computed row — the zero-loss property the fleet is for.

An orchestration microbenchmark: its timings are of sleep-padded
chunks, not of proxy compute, so they measure the lease and socket transport
alone.  ``perfbench/`` times the searches on real proxy compute.

Run directly (``python benchmarks/bench_fleet.py``) or via pytest
(``pytest benchmarks/bench_fleet.py``).
"""

from __future__ import annotations

import json
import os
import signal
import time
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Dict

from repro.engine import Engine
from repro.engine.cache import IndicatorCache
from repro.eval.benchconfig import bench_scale
from repro.proxies.base import ProxyConfig
from repro.runtime.async_pool import AsyncPopulationExecutor
from repro.runtime.faults import FaultPolicy
from repro.runtime.fleet import FleetPool
from repro.runtime.pool import _evaluate_genotype_chunk
from repro.runtime.store import RuntimeStore, cache_fingerprint
from repro.searchspace.space import NasBench201Space
from repro.utils.timing import Timer, format_duration

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

#: Scaling workload: enough chunks that 4 workers stay saturated, padded
#: long enough that per-chunk round-trips (a few ms) stay in the noise.
N_CHUNKS = 24
PAD_SECONDS = 0.1
WORKER_COUNTS = (1, 2, 4)

#: Elastic workload (real genotype chunks).
ELASTIC_POPULATION = 12
ELASTIC_CHUNK = 2
ELASTIC_PAD = 0.25


def _proxy_config() -> ProxyConfig:
    """Smallest full-path proxy scale: the bench measures transport and
    recovery, not kernels."""
    return ProxyConfig(init_channels=4, cells_per_stage=1, input_size=8,
                       ntk_batch_size=8, lr_num_samples=32, lr_input_size=4,
                       lr_channels=2, seed=7)


# ----------------------------------------------------------------------
# Part 1: worker scaling
# ----------------------------------------------------------------------
def _padded_echo_chunk(payload):
    """GIL-free fixed-cost chunk: models remote proxy evaluation whose
    cost dwarfs the lease/result round-trip."""
    time.sleep(PAD_SECONDS)
    return [(payload, {"v": float(payload)})]


def _wait_for_workers(pool: FleetPool, n: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while pool.broker.num_workers < n:
        if time.monotonic() > deadline:
            raise RuntimeError(f"only {pool.broker.num_workers}/{n} "
                               f"workers registered")
        time.sleep(0.01)


def _run_scaling(n_workers: int) -> Dict:
    with FleetPool(n_workers=n_workers, lease_seconds=60.0) as pool:
        pool.spawn_local_workers(n_workers, poll_seconds=0.01)
        _wait_for_workers(pool, n_workers)
        with Timer() as timer:
            for chunk in range(N_CHUNKS):
                pool.submit(_padded_echo_chunk, chunk, tag=chunk)
            results = pool.gather_all()
        assert len(results) == N_CHUNKS
        assert all(r.error is None for r in results)
        return {
            "n_workers": n_workers,
            "wall_seconds": timer.elapsed,
            "chunks_per_second": N_CHUNKS / timer.elapsed,
        }


# ----------------------------------------------------------------------
# Part 2: elastic membership (SIGKILL mid-lease + mid-run join)
# ----------------------------------------------------------------------
def _padded_genotype_chunk(payload):
    rows = _evaluate_genotype_chunk(payload)
    time.sleep(ELASTIC_PAD)
    return rows


def _victim_freshly_leased(pool: FleetPool, pid: int) -> bool:
    """Worker process ``pid`` holds a lease granted under 0.12 s ago, so
    a kill now lands while the chunk is still computing."""
    broker = pool.broker
    with broker._lock:
        return any(time.time() - broker._tasks[task_id].leased_wall < 0.12
                   for session in broker._workers.values()
                   if session.pid == pid
                   for task_id in session.leased)


def _run_elastic(proxy_config: ProxyConfig) -> Dict:
    population = NasBench201Space().sample(ELASTIC_POPULATION, rng=5)
    serial_engine = Engine(proxy_config=proxy_config)
    serial = serial_engine.evaluate_population(population)
    serial_rows = dict(serial_engine.cache.items())

    engine = Engine(proxy_config=proxy_config)
    with TemporaryDirectory() as tmp:
        store_dir = os.path.join(tmp, "store")
        pool = FleetPool(n_workers=2, lease_seconds=60.0)
        executor = AsyncPopulationExecutor(
            chunk_size=ELASTIC_CHUNK,
            genotype_worker=_padded_genotype_chunk,
            fault_policy=FaultPolicy(chunk_timeout=60.0, backoff_base=0.01),
            pool=pool,
        )
        try:
            victim = pool.spawn_local_workers(
                1, store_dir=store_dir, poll_seconds=0.01)[0]
            _wait_for_workers(pool, 1)
            chunks = executor.submit_population(engine, population)
            deadline = time.monotonic() + 30.0
            while (not _victim_freshly_leased(pool, victim.pid)
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            os.kill(victim.pid, signal.SIGKILL)
            pool.spawn_local_workers(1, store_dir=store_dir,
                                     poll_seconds=0.01)
            while executor.num_pending:
                executor.gather(1)
            counters = pool.broker.counters()
        finally:
            executor.close()

        gathered = dict(engine.cache.items())
        bit_identical = gathered == serial_rows

        probe = IndicatorCache()
        store = RuntimeStore(store_dir)
        fingerprint = cache_fingerprint(engine.proxy_config,
                                        engine.macro_config)
        store.load_cache_into(probe, fingerprint)
        persisted = dict(probe.items())
        lost_rows = sum(1 for key, value in serial_rows.items()
                        if persisted.get(key) != value)

    return {
        "population": ELASTIC_POPULATION,
        "unique_chunks": chunks,
        "rows_expected": len(serial_rows),
        "rows_recovered": len(gathered),
        "workers_lost": counters["workers_lost"],
        "lost_tasks": counters["lost_tasks"],
        "retries": executor.stats.retries,
        "joined_mid_run": True,
        "bit_identical": bit_identical,
        "store_rows_persisted": len(persisted),
        "lost_rows": lost_rows,
        "serial_reference_unique": serial.unique_canonical,
    }


# ----------------------------------------------------------------------
def run_fleet_bench() -> Dict:
    scaling = {f"workers_{n}": _run_scaling(n) for n in WORKER_COUNTS}
    base = scaling["workers_1"]["chunks_per_second"]
    top = scaling[f"workers_{WORKER_COUNTS[-1]}"]["chunks_per_second"]
    elastic = _run_elastic(_proxy_config())
    result = {
        "bench_scale": bench_scale(),
        "n_chunks": N_CHUNKS,
        "pad_seconds": PAD_SECONDS,
        "scaling": scaling,
        "speedup_4x_vs_1": top / max(base, 1e-9),
        "fleet_bit_identical": elastic["bit_identical"],
        "elastic": elastic,
    }
    OUTPUT_PATH.write_text(json.dumps(result, indent=2) + "\n",
                           encoding="utf-8")
    return result


def test_fleet_scaling_and_elastic(benchmark):
    result = benchmark.pedantic(run_fleet_bench, rounds=1, iterations=1)
    _report(result)
    # Near-linear fan-out: the sleep pad dominates the round-trips.
    assert result["speedup_4x_vs_1"] >= 3.0
    # The headline zero-loss property.
    elastic = result["elastic"]
    assert elastic["workers_lost"] >= 1
    assert elastic["bit_identical"]
    assert elastic["lost_rows"] == 0
    assert elastic["rows_recovered"] == elastic["rows_expected"]


def _report(result: Dict) -> None:
    print()
    for n in WORKER_COUNTS:
        row = result["scaling"][f"workers_{n}"]
        print(f"{n} worker(s): {format_duration(row['wall_seconds'])}"
              f"  ({row['chunks_per_second']:.1f} chunks/s)")
    print(f"speedup 4 vs 1     : {result['speedup_4x_vs_1']:.2f}x")
    elastic = result["elastic"]
    print(f"elastic            : lost={elastic['workers_lost']} "
          f"lost_tasks={elastic['lost_tasks']} "
          f"retries={elastic['retries']} "
          f"rows {elastic['rows_recovered']}/{elastic['rows_expected']} "
          f"(store {elastic['store_rows_persisted']}, "
          f"lost {elastic['lost_rows']})")
    print(f"bit-identical      : {result['fleet_bit_identical']}")
    print(f"written            : {OUTPUT_PATH}")


if __name__ == "__main__":
    _report(run_fleet_bench())
