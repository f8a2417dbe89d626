"""Store scaling: O(delta) appends, and reads at the reachable maximum.

The store appends only a save's dirty delta, as one segment of the
fingerprint directory's log, so persisting the handful of rows a run
just computed must not cost O(total store size) — the scaling processes
flushing into one shared directory need.  With a pre-existing, compacted
store of ``size`` rows, this benchmark times persisting a fixed 256-row
delta through :meth:`~repro.runtime.store.RuntimeStore.save_cache`
(auto-compaction disabled so the append cost is measured in isolation)
and asserts the cost stays roughly flat across store sizes.  A round-trip check guards
against benchmarking a store that drops rows.

**Reads at the reachable maximum** (the read-side claim): one store
shaped like the whole space a fingerprint can cache — every canonical
NAS-Bench-201 cell's three trainless rows plus the device-matrix cost
rows (latency, energy, peak memory) on two boards, with the real key
layouts — compacted, as a long-lived store is.  The bench times a full
replay (a harness warm start) and asserts every replay returns exactly
the rows saved, float for float.

Results land in ``BENCH_store.json`` at the repo root.  Run directly
(``python benchmarks/bench_store_scale.py``) or via pytest
(``pytest benchmarks/bench_store_scale.py``).
"""

from __future__ import annotations

import json
import statistics
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

from repro.engine import Engine
from repro.engine.cache import IndicatorCache
from repro.hardware.device import get_device
from repro.proxies.base import ProxyConfig
from repro.runtime.store import RuntimeStore, cache_fingerprint
from repro.searchspace.canonical import canonicalize
from repro.searchspace.network import MacroConfig
from repro.searchspace.space import NasBench201Space
from repro.utils.timing import Timer, format_duration

STORE_SIZES = (1_000, 10_000, 100_000)
DELTA_ROWS = 256
#: Read side: the device-matrix boards and cost axes of the space store.
SPACE_DEVICES = ("nucleo-f746zg", "nucleo-l432kc")
SPACE_COST_AXES = ("latency", "energy", "peak-mem")
REPLAY_REPEATS = 5        # full replays timed (median reported)
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_store.json"


def _key(i: int) -> Tuple:
    # Realistic key shape: kind, canonical index, repeat, config tuple.
    return ("ntk", i, 1, (4, 1, 8, 10, 8, 32))


def _filled_cache(start: int, count: int) -> IndicatorCache:
    cache = IndicatorCache()
    for i in range(start, start + count):
        cache.put(_key(i), float(i) * 1.5)
    return cache


def _as_hex(cache: IndicatorCache) -> Dict[Tuple, str]:
    return {key: float(value).hex() for key, value in cache.items()}


def _space_keys(engine: Engine) -> List[Tuple]:
    """Every key a fingerprint's store can hold for the whole space:
    the trainless rows of each canonical cell plus its cost rows on
    every matrix board (keys shared across boards counted once)."""
    canon = sorted({canonicalize(genotype).to_index()
                    for genotype in NasBench201Space()})
    models = [engine.cost_model("flops")] + [
        engine.for_device(get_device(device)).cost_model(axis)
        for device in SPACE_DEVICES for axis in SPACE_COST_AXES]
    keys = {}
    for index in canon:
        for key in engine.proxy_row_keys("genotype", index).values():
            keys[key] = None
        for model in models:
            keys[model.cache_key(index)] = None
    return list(keys)


def run_space_reads() -> Dict:
    """Replay cost against a store holding the whole space."""
    engine = Engine(proxy_config=ProxyConfig())
    fingerprint = cache_fingerprint(engine.proxy_config,
                                    engine.macro_config)
    keys = _space_keys(engine)
    with tempfile.TemporaryDirectory() as tmp:
        store = RuntimeStore(Path(tmp) / "space")
        cache = IndicatorCache()
        for slot, key in enumerate(keys):
            cache.put(key, slot * 1e-3)
        store.save_cache(cache, fingerprint)
        store.compact_cache(fingerprint)
        saved = _as_hex(cache)

        replay_times, bit_identical = [], True
        for _ in range(REPLAY_REPEATS):
            target = IndicatorCache()
            with Timer() as timer:
                loaded = store.load_cache_into(target, fingerprint)
            assert loaded == len(keys)
            replay_times.append(timer.elapsed)
            bit_identical = bit_identical and _as_hex(target) == saved
    return {
        "space_rows": len(keys),
        "space_devices": list(SPACE_DEVICES),
        "space_cost_axes": list(SPACE_COST_AXES),
        "full_replay_seconds": statistics.median(replay_times),
        # Every replay returned exactly the rows saved, as float hex.
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
    result.update(run_space_reads())
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
    # Read side: a replay returns exactly the rows saved.
    assert result["read_paths_bit_identical"] is True


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
    print(f"space store {result['space_rows']:,} rows | "
          f"full replay: {format_duration(result['full_replay_seconds'])}")
    print(f"read paths bit-identical: "
          f"{result['read_paths_bit_identical']}")
    print(f"written                 : {OUTPUT_PATH}")


if __name__ == "__main__":
    _report(run_store_scale())
