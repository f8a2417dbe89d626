#!/usr/bin/env python
"""Distributed fleet search on localhost: broker + two elastic workers.

Demonstrates the socket-broker evaluation fleet end-to-end:

1. a **harness-driven fleet run** — ``RunHarness`` with
   ``fleet_workers=2`` binds a :class:`repro.runtime.fleet.FleetBroker`
   on an ephemeral localhost port, forks two worker processes against
   it, and runs the steady-state search over the fleet transport.  This
   is what ``micronas runtime --fleet-workers 2 --store DIR`` runs.
   Workers flush every computed indicator row into the shared store
   (and follow its segment log, reading only files they have not read
   yet), so the run is resumable and late joiners warm-start;
2. a **warm re-run** of the same config — the driver replays the store
   the workers filled, so only candidates the (completion-order
   dependent) trajectory newly explores ship to the workers;
3. a **manual broker + remote-shaped worker** — the same wiring split
   into its two halves, the way you run it across machines: the driver
   builds a :class:`FleetPool` bound to an address, and each worker host
   runs ``micronas fleet worker --connect HOST:PORT --store DIR``
   (here: :func:`repro.runtime.fleet.run_worker` in-process).  Workers
   can join or leave at any point mid-search; chunks a dead worker held
   fail as transient, the executor retries them, and nothing is lost.

The broker pickles chunk payloads over the wire: bind only on
localhost or a trusted network.

Runtime: ~10 seconds (reduced proxy scale, pure NumPy).
"""

from __future__ import annotations

import tempfile
import threading

from repro.runtime import RunHarness, RuntimeConfig
from repro.runtime.fleet import FleetPool, run_worker
from repro.runtime.pool import _evaluate_genotype_chunk
from repro.eval.benchconfig import reduced_proxy_config
from repro.searchspace.canonical import canonicalize
from repro.searchspace.network import MacroConfig
from repro.searchspace.space import NasBench201Space
from repro.utils import format_table


def harness_fleet_run(store_dir: str) -> None:
    config = RuntimeConfig(
        algorithm="steady-state",
        samples=12,
        cycles=24,
        seed=0,
        fast=True,
        fleet_workers=2,        # fork 2 local workers on an ephemeral port
        store_dir=store_dir,    # shared store: flush + warm starts
        chunk_size=2,
    )
    for label in ("cold fleet run", "warm fleet re-run"):
        report = RunHarness(config).run()
        print(format_table([
            ["run", label],
            ["architecture", report.arch_str],
            ["pool mode", report.pool["mode"]],
            ["chunk futures", report.pool["chunks"]],
            ["rows loaded from store", report.store["cache_loaded"]],
            ["rows flushed to store", report.store["cache_saved"]],
            ["wall seconds", f"{report.wall_seconds:.2f}"],
        ]))
        print()


def manual_broker_and_worker(store_dir: str) -> None:
    """The two halves separately — the cross-machine shape."""
    proxy_config = reduced_proxy_config(seed=0)
    macro_config = MacroConfig.full()
    population = [canonicalize(g)
                  for g in NasBench201Space().sample(8, rng=3)]
    items = tuple((g.ops, (True, True, True)) for g in population)

    with FleetPool(n_workers=1, lease_seconds=60.0) as pool:
        print(f"broker listening on {pool.address}")
        # On another machine this would be:
        #   micronas fleet worker --connect {pool.address} --store DIR
        worker = threading.Thread(
            target=run_worker,
            args=(pool.address,),
            kwargs={"store_dir": store_dir, "poll_seconds": 0.05,
                    "max_chunks": 4},
            daemon=True,
        )
        worker.start()
        for start in range(0, len(items), 2):
            pool.submit(_evaluate_genotype_chunk,
                        (items[start:start + 2], proxy_config,
                         macro_config))
        results = pool.gather_all()
        worker.join(timeout=10)
        rows = sum(len(r.value) for r in results if r.error is None)
        print(format_table([
            ["chunks completed", len(results)],
            ["indicator rows", rows],
            ["broker counters", str(pool.broker.counters())],
        ]))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        harness_fleet_run(f"{tmp}/store")
    with tempfile.TemporaryDirectory() as tmp:
        manual_broker_and_worker(f"{tmp}/store")


if __name__ == "__main__":
    main()
