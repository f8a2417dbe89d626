#!/usr/bin/env python
"""Asynchronous steady-state search with a warm-started indicator store.

Demonstrates the async evaluation runtime end-to-end:

1. a **cold** steady-state run — ``n_workers`` candidates stay in flight
   as per-chunk futures; children are mutated from the current Pareto set
   the moment any future resolves — that persists its indicator cache
   into a store directory;
2. a **warm** re-run against the same store — candidates already in the
   persisted cache commit instantly without occupying a worker (the
   steady-state fast path), so far fewer futures ship and wall time
   drops.  (With a parallel executor the trajectory may still explore a
   few new candidates: it is a function of completion order — run with
   ``n_workers=1`` for an exact replay.);
3. the same config through :class:`repro.runtime.RunHarness`, which is
   what ``micronas runtime --algorithm steady-state`` runs (every harness
   run uses this executor), with deterministic executor shutdown.

Runtime: a few seconds (reduced proxy scale, pure NumPy).
"""

from __future__ import annotations

import tempfile

from repro.engine import Engine
from repro.eval.benchconfig import reduced_proxy_config
from repro.runtime import AsyncPopulationExecutor, RunHarness, RuntimeConfig
from repro.runtime.store import RuntimeStore, cache_fingerprint
from repro.search import HybridObjective, SteadyStateEvolutionarySearch
from repro.search.evolutionary import EvolutionConfig
from repro.searchspace.network import MacroConfig
from repro.utils import format_table


def run_once(store_dir: str, label: str) -> None:
    proxy_config = reduced_proxy_config(seed=0)
    macro_config = MacroConfig.full()
    store = RuntimeStore(store_dir)
    fingerprint = cache_fingerprint(proxy_config, macro_config)

    with AsyncPopulationExecutor(n_workers=4, chunk_size=1) as executor:
        # The search runs on its objective engine's executor.
        engine = Engine(proxy_config=proxy_config, macro_config=macro_config,
                        executor=executor)
        loaded = store.load_cache_into(engine.cache, fingerprint)
        result = SteadyStateEvolutionarySearch(
            HybridObjective(engine=engine),
            EvolutionConfig(population_size=12, cycles=36),
            seed=0,
        ).search()
        saved = store.save_cache(engine.cache, fingerprint)
        print(format_table(
            [
                ["architecture", result.arch_str],
                ["warm-start entries", loaded],
                ["chunk futures shipped", executor.stats.chunks],
                ["worker idle fraction",
                 "n/a" if executor.stats.idle_fraction is None
                 else f"{executor.stats.idle_fraction:.1%}"],
                ["cache entries persisted", saved],
                ["wall time", f"{result.wall_seconds:.2f} s"],
            ],
            title=f"steady-state async search ({label})",
        ))


def run_harness(store_dir: str) -> None:
    report = RunHarness(RuntimeConfig(
        algorithm="steady-state",
        n_workers=4,
        chunk_size=1,
        population_size=12,
        cycles=36,
        store_dir=store_dir,
        seed=0,
    )).run()
    print(format_table(
        [
            ["architecture", report.arch_str],
            ["executor mode", report.pool["mode"]],
            ["warm-start entries", report.cache["warm_start_entries"]],
            ["cache hits / misses", f"{report.cache['hits']} / "
                                    f"{report.cache['misses']}"],
            ["worker idle fraction",
             "n/a" if report.pool["idle_fraction"] is None
             else f"{report.pool['idle_fraction']:.1%}"],
            ["wall time", f"{report.wall_seconds:.2f} s"],
        ],
        title="the same run through RunHarness",
    ))


def main() -> None:
    with tempfile.TemporaryDirectory() as store_dir:
        run_once(store_dir, "cold: futures do the work")
        run_once(store_dir, "warm: store-backed, fewer futures")
        run_harness(store_dir)


if __name__ == "__main__":
    main()
