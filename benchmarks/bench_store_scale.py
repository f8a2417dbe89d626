"""Store scaling: O(delta) appends and O(population) indexed loads.

The store appends only a save's dirty delta to per-shard segment logs,
so persisting the handful of rows a run just computed must not cost
O(total store size) — the scaling process fleets flushing into one
shared directory need.  With a pre-existing, compacted store of ``size``
rows, this benchmark times persisting a fixed 256-row delta through
:meth:`~repro.runtime.store.RuntimeStore.save_cache` (auto-compaction
disabled so the append cost is measured in isolation) and asserts the
cost stays roughly flat across store sizes.  A round-trip check guards
against benchmarking a store that drops rows.

**Warm-start load scaling** (the read-side claim): against stores of up
to 1M+ rows, loading a fixed ~16-key population is timed through both
``load_cache_into`` read modes — ``full`` (whole-store replay,
O(store)) and ``index`` (per-shard index point lookups,
O(population)).  The bench asserts the two modes return bit-identical
rows, that the index path stays flat as the store grows 100×, and
reports the index hit rate.

Results land in ``BENCH_store.json`` at the repo root.  Run directly
(``python benchmarks/bench_store_scale.py``) or via pytest
(``pytest benchmarks/bench_store_scale.py``).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Dict, Tuple

from repro.engine.cache import IndicatorCache
from repro.proxies.base import ProxyConfig
from repro.runtime.store import RuntimeStore, cache_fingerprint
from repro.searchspace.network import MacroConfig
from repro.utils.timing import Timer, format_duration

STORE_SIZES = (1_000, 10_000, 100_000)
DELTA_ROWS = 256
#: Read-side scaling: stores of these sizes, a fixed small population.
LOAD_STORE_SIZES = (10_000, 100_000, 1_000_000)
LOAD_SHARDS = 64          # a fleet-scale shard count
LOAD_POPULATION = 16      # keys one warm-start asks for
LOAD_FILL_BATCH = 100_000  # rows per save while building big stores
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_store.json"


def _key(i: int) -> Tuple:
    # Realistic key shape: kind, canonical index, repeat, config tuple.
    return ("ntk", i, 1, (4, 1, 8, 10, 8, 32))


def _filled_cache(start: int, count: int) -> IndicatorCache:
    cache = IndicatorCache()
    for i in range(start, start + count):
        cache.put(_key(i), float(i) * 1.5)
    return cache


def run_load_scale() -> Dict:
    """Warm-start read cost for a fixed population vs store size."""
    proxy_config = ProxyConfig()
    macro_config = MacroConfig.full()
    fingerprint = cache_fingerprint(proxy_config, macro_config)

    load_points = []
    bit_identical = True
    with tempfile.TemporaryDirectory() as tmp:
        for size in LOAD_STORE_SIZES:
            root = Path(tmp) / f"load_store_{size}"
            store = RuntimeStore(root, shards=LOAD_SHARDS,
                                 auto_compact_segments=None)
            # Build in batches (one cache of 1M rows would be most of a
            # GB of tuples); compact once, so reads hit per-shard bases
            # + fresh indexes — the steady state of a long-lived store.
            filled = 0
            while filled < size:
                batch = min(LOAD_FILL_BATCH, size - filled)
                store.save_cache(_filled_cache(filled, batch), fingerprint)
                filled += batch
            store.compact_cache(fingerprint)

            # A population's worth of keys, spread across the store.
            stride = size // LOAD_POPULATION
            population = [_key(j * stride) for j in range(LOAD_POPULATION)]

            timings = {}
            results = {}
            for mode in ("full", "index"):
                target = IndicatorCache()
                with Timer() as timer:
                    loaded = store.load_cache_into(target, fingerprint,
                                                   keys=population,
                                                   read_mode=mode)
                assert loaded == LOAD_POPULATION, (mode, loaded)
                timings[mode] = timer.elapsed
                results[mode] = dict(target.items())
            stats = store.last_load_stats  # the index-mode load's stats
            if results["full"] != results["index"]:
                bit_identical = False

            load_points.append({
                "store_size": size,
                "requested": LOAD_POPULATION,
                "full_load_seconds": timings["full"],
                "index_load_seconds": timings["index"],
                "index_hit_rate": (stats["index_hits"]
                                   / max(stats["requested"], 1)),
                "index_speedup": (timings["full"]
                                  / max(timings["index"], 1e-9)),
            })

    index_flat = (load_points[-1]["index_load_seconds"]
                  / max(load_points[0]["index_load_seconds"], 1e-9))
    return {
        "load_store_sizes": list(LOAD_STORE_SIZES),
        "load_shards": LOAD_SHARDS,
        "load_population": LOAD_POPULATION,
        "load_points": load_points,
        # Index-mode load time at the largest store over the smallest:
        # ~1.0 means warm-start latency is O(population), flat in store
        # size across a 100x growth.
        "index_load_flatness_ratio": index_flat,
        "index_load_speedup_at_largest": load_points[-1]["index_speedup"],
        "index_hit_rate": load_points[-1]["index_hit_rate"],
        "read_paths_bit_identical": bit_identical,
    }


def run_store_scale() -> Dict:
    proxy_config = ProxyConfig()
    macro_config = MacroConfig.full()
    fingerprint = cache_fingerprint(proxy_config, macro_config)

    points = []
    with tempfile.TemporaryDirectory() as tmp:
        for size in STORE_SIZES:
            root = Path(tmp) / f"store_{size}"
            store = RuntimeStore(root, auto_compact_segments=None)

            # Pre-existing state: `size` rows compacted into the base.
            pre = _filled_cache(0, size)
            store.save_cache(pre, fingerprint)
            store.compact_cache(fingerprint)

            delta = _filled_cache(size, DELTA_ROWS)
            with Timer() as append_timer:
                appended = store.save_cache(delta, fingerprint)
            assert appended == DELTA_ROWS

            # Round-trip guard: the appended rows actually persisted.
            check = IndicatorCache()
            loaded = store.load_cache_into(check, fingerprint, strict=True)
            assert loaded == size + DELTA_ROWS

            points.append({
                "store_size": size,
                "delta_rows": DELTA_ROWS,
                "append_save_seconds": append_timer.elapsed,
            })

    flat_ratio = (points[-1]["append_save_seconds"]
                  / max(points[0]["append_save_seconds"], 1e-9))
    result = {
        "store_sizes": list(STORE_SIZES),
        "delta_rows": DELTA_ROWS,
        "points": points,
        # Append cost at the largest store over the smallest: ~1.0
        # means save cost is independent of store size.
        "append_flatness_ratio": flat_ratio,
    }
    result.update(run_load_scale())
    OUTPUT_PATH.write_text(json.dumps(result, indent=2) + "\n",
                           encoding="utf-8")
    return result


def test_store_scale(benchmark):
    result = benchmark.pedantic(run_store_scale, rounds=1, iterations=1)
    _report(result)
    # The acceptance criterion: appending a fixed delta costs roughly
    # the same whatever the store size (generous bound: anything that
    # rewrote the store would grow ~100x over the same range).
    assert result["append_flatness_ratio"] <= 10.0
    # Read side: the two read modes must agree bit-for-bit...
    assert result["read_paths_bit_identical"] is True
    # ...every requested key must come off the index (fresh after
    # compaction; hit rate 1.0 means zero replay fallbacks)...
    assert result["index_hit_rate"] == 1.0
    # ...and indexed warm-start latency must stay flat while the store
    # grows 100x (generous bound — full replay grows ~100x; a truly
    # store-size-dependent index path would blow far past this).
    assert result["index_load_flatness_ratio"] <= 10.0


def _report(result: Dict) -> None:
    print()
    for point in result["points"]:
        print(f"store {point['store_size']:>9,} rows | "
              f"append {point['delta_rows']}: "
              f"{format_duration(point['append_save_seconds'])}")
    print(f"append flatness ratio   : "
          f"{result['append_flatness_ratio']:.2f} "
          f"(largest/smallest store)")
    print()
    for point in result["load_points"]:
        print(f"store {point['store_size']:>9,} rows | "
              f"load {point['requested']} keys | "
              f"full: {format_duration(point['full_load_seconds'])} | "
              f"index: {format_duration(point['index_load_seconds'])} "
              f"({point['index_speedup']:.1f}x, "
              f"hit rate {point['index_hit_rate']:.2f})")
    print(f"index flatness ratio    : "
          f"{result['index_load_flatness_ratio']:.2f} "
          f"(largest/smallest store)")
    print(f"read paths bit-identical: "
          f"{result['read_paths_bit_identical']}")
    print(f"written                 : {OUTPUT_PATH}")


if __name__ == "__main__":
    _report(run_store_scale())
