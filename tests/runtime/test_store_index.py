"""Indexed loads through the per-shard key index sidecar.

This file pins the read-side acceptance criteria of the million-row
store tier: ``index`` loads are **bit-identical** to full replay under
fuzzed write orders, torn tails and damaged sidecars (the
index is an accelerator, never an authority over row data); flushes
extend the index by pure append (the structural O(delta) property);
stale indexes fall back to shard replay and heal at the next
compaction; and the whole path stays correct when a reader races a
compactor or two concurrent writers.
"""

import json
import multiprocessing
import random
import time

import pytest

from repro.engine.cache import IndicatorCache
from repro.proxies.base import ProxyConfig
from repro.runtime.store import (
    RuntimeStore,
    StoreError,
    cache_fingerprint,
    _encode_key,
    _shard_of,
)
from repro.searchspace.network import MacroConfig

pytestmark = pytest.mark.store


@pytest.fixture()
def fingerprint():
    return cache_fingerprint(ProxyConfig(), MacroConfig.full())


@pytest.fixture()
def store(tmp_path):
    return RuntimeStore(tmp_path / "store", shards=8,
                        auto_compact_segments=None)


def key(i):
    return ("ntk", i, 1, ())


def fill(store, fingerprint, start, count):
    cache = IndicatorCache()
    for i in range(start, start + count):
        cache.put(key(i), float(i) * 1.5)
    store.save_cache(cache, fingerprint)


def load(store, fingerprint, keys, mode, strict=True):
    target = IndicatorCache()
    loaded = store.load_cache_into(target, fingerprint, keys=keys,
                                   read_mode=mode, strict=strict)
    return loaded, dict(target.items())


class TestReadModeBasics:
    def test_unknown_read_mode_raises(self, store, fingerprint):
        with pytest.raises(StoreError):
            store.load_cache_into(IndicatorCache(), fingerprint,
                                  keys=[key(1)], read_mode="psychic")

    def test_index_touches_only_hashed_shards(self, store, fingerprint):
        fill(store, fingerprint, 0, 100)
        store.compact_cache(fingerprint)
        population = [key(i) for i in (3, 17, 42)]
        loaded, rows = load(store, fingerprint, population, "index")
        assert loaded == 3
        assert rows == {key(i): float(i) * 1.5 for i in (3, 17, 42)}
        stats = store.last_load_stats
        assert stats["mode"] == "index"
        assert 1 <= stats["shards_touched"] <= 3

    def test_index_serves_every_hit_without_fallback(self, store,
                                                     fingerprint):
        fill(store, fingerprint, 0, 100)
        store.compact_cache(fingerprint)
        population = [key(i) for i in range(0, 100, 9)]
        loaded, rows = load(store, fingerprint, population, "index")
        assert loaded == len(population)
        stats = store.last_load_stats
        assert stats["index_hits"] == len(population)
        assert stats["index_fallback_shards"] == 0

    def test_fresh_index_miss_is_authoritative(self, store, fingerprint):
        fill(store, fingerprint, 0, 20)
        store.compact_cache(fingerprint)
        loaded, rows = load(store, fingerprint,
                            [key(5), key(999)], "index")
        assert loaded == 1
        assert rows == {key(5): 7.5}
        # The absent key was answered by the index, not by a replay.
        assert store.last_load_stats["index_fallback_shards"] == 0

    def test_selected_rows_are_marked_clean(self, store, fingerprint):
        fill(store, fingerprint, 0, 10)
        reader = IndicatorCache()
        store.load_cache_into(reader, fingerprint, keys=[key(3), key(4)],
                              read_mode="index")
        assert store.save_cache(reader, fingerprint) == 0

    def test_in_memory_value_wins_over_store(self, store, fingerprint):
        fill(store, fingerprint, 0, 10)
        reader = IndicatorCache()
        reader.put(key(3), -1.0)
        store.load_cache_into(reader, fingerprint, keys=[key(3)],
                              read_mode="index")
        assert dict(reader.items())[key(3)] == -1.0

    def test_cold_store_selected_load(self, store, fingerprint):
        loaded, rows = load(store, fingerprint, [key(1)], "index",
                            strict=False)
        assert loaded == 0 and rows == {}
        assert store.last_rejection == "no persisted cache"


class TestIndexMaintenance:
    def test_flush_extends_index_by_pure_append(self, store, fingerprint):
        """The O(delta) property, structurally: a post-compaction flush
        must leave the sorted region and header untouched — the old
        sidecar bytes are a strict prefix of the new ones."""
        fill(store, fingerprint, 0, 50)
        store.compact_cache(fingerprint)
        directory = store.cache_dir(fingerprint)
        before = {path.name: path.read_bytes()
                  for path in directory.glob("shard-*.idx.json")}
        fill(store, fingerprint, 50, 10)
        grew = 0
        for path in directory.glob("shard-*.idx.json"):
            data = path.read_bytes()
            old = before.get(path.name)
            if old is not None:
                assert data.startswith(old), path.name
                grew += data != old
        assert grew > 0

    def test_fresh_shard_indexes_without_compaction(self, store,
                                                    fingerprint):
        fill(store, fingerprint, 0, 30)
        population = [key(i) for i in range(0, 30, 7)]
        loaded, rows = load(store, fingerprint, population, "index")
        assert loaded == len(population)
        assert store.last_load_stats["index_hits"] == len(population)
        assert store.last_load_stats["index_fallback_shards"] == 0

    def test_foreign_segment_goes_stale_and_compaction_heals(
            self, store, fingerprint):
        """A writer without index support (or a hand-copied segment)
        must flip the covers check to stale — replay fallback, never a
        wrong answer — and the next compaction rebuilds coverage."""
        fill(store, fingerprint, 0, 20)
        store.compact_cache(fingerprint)
        target = key(7)
        shard = _shard_of(_encode_key(target), 8)
        directory = store.cache_dir(fingerprint)
        rogue = directory / f"shard-{shard:02d}.seg-00000099.1.jsonl"
        rogue.write_text(
            json.dumps([_encode_key(target), 777.0]) + "\n",
            encoding="utf-8")
        loaded, rows = load(store, fingerprint, [target], "index")
        assert loaded == 1 and rows == {target: 777.0}
        assert store.last_load_stats["index_fallback_shards"] == 1
        # A further flush must not "patch" the stale index into lying…
        fill(store, fingerprint, 100, 5)
        loaded, rows = load(store, fingerprint, [target], "index")
        assert rows == {target: 777.0}
        # …but compaction rebuilds it to full coverage.
        store.compact_cache(fingerprint)
        loaded, rows = load(store, fingerprint, [target], "index")
        assert rows == {target: 777.0}
        assert store.last_load_stats["index_fallback_shards"] == 0
        assert store.last_load_stats["index_hits"] == 1


class TestReadPathEquivalence:
    """The property battery: whatever mess the write history left,
    every read mode returns exactly what full replay returns."""

    @pytest.mark.parametrize("seed", range(10))
    def test_read_paths_bit_identical_under_fuzz(self, tmp_path,
                                                 fingerprint, seed):
        rng = random.Random(seed)
        store = RuntimeStore(tmp_path / "store",
                             shards=rng.choice([1, 2, 4, 8]),
                             auto_compact_segments=None)
        expected = {}
        for _ in range(rng.randint(3, 8)):
            cache = IndicatorCache()
            for _ in range(rng.randint(1, 30)):
                k = key(rng.randint(0, 40))
                v = float(rng.randint(0, 1000))
                cache.put(k, v)
                expected[k] = v
            store.save_cache(cache, fingerprint)
            directory = store.cache_dir(fingerprint)
            action = rng.random()
            if action < 0.25:
                store.compact_cache(fingerprint)
            elif action < 0.45:
                segments = sorted(
                    directory.glob("shard-*.seg-*.jsonl"))
                if segments:  # a crashed writer's torn segment tail
                    with open(rng.choice(segments), "a") as handle:
                        handle.write('["torn')
            elif action < 0.65:
                sidecars = sorted(directory.glob("shard-*.idx.json"))
                if sidecars:  # missing or torn index sidecar
                    path = rng.choice(sidecars)
                    if rng.random() < 0.5:
                        path.unlink()
                    else:
                        with open(path, "a") as handle:
                            handle.write('{"garbage')
        population = [key(i) for i in rng.sample(range(60), 20)]
        want = {k: expected[k] for k in population if k in expected}
        results = {}
        for mode in ("full", "index"):
            loaded, rows = load(store, fingerprint, population, mode)
            assert loaded == len(want), (mode, seed)
            results[mode] = rows
        assert results["full"] == results["index"] == want, seed


class TestConcurrentReaders:
    def test_index_reads_race_a_compactor(self, tmp_path, fingerprint):
        """A churning writer+compactor must never make a concurrent
        full/index load miss a row or see a wrong value: appends
        hold the shard flock, compaction holds base + every shard lock,
        loads replay under the shared base lock, and a mid-churn index
        is either fresh (covers match) or ignored."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        store = RuntimeStore(tmp_path / "store", shards=4,
                             auto_compact_segments=None)
        fill(store, fingerprint, 0, 40)
        population = [key(i) for i in range(0, 40, 5)]
        want = {key(i): float(i) * 1.5 for i in range(0, 40, 5)}

        context = multiprocessing.get_context("fork")
        stop = context.Event()

        def churn():
            while not stop.is_set():
                refresh = IndicatorCache()
                refresh.put(key(0), 0.0)  # same value: reads stay stable
                store.save_cache(refresh, fingerprint)
                store.compact_cache(fingerprint)

        process = context.Process(target=churn)
        process.start()
        try:
            for _ in range(25):
                for mode in ("full", "index"):
                    loaded, rows = load(store, fingerprint, population,
                                        mode)
                    assert loaded == len(population), mode
                    assert rows == want, mode
        finally:
            stop.set()
            process.join(timeout=30)
        assert process.exitcode == 0

    def test_two_writers_and_an_index_reader_drop_nothing(
            self, tmp_path, fingerprint):
        """Two processes flushing into the same single shard while a
        third reads through the index: every mid-race read is
        internally consistent, and after the writers join all three
        read modes agree on the full row set — no lost rows, no
        duplicates, no torn values."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        store = RuntimeStore(tmp_path / "store", shards=1,
                             auto_compact_segments=None)
        rows_per_writer = 15
        all_keys = [("w", wid, row) for wid in (1, 2)
                    for row in range(rows_per_writer)]
        want = {k: float(k[1] * 1000 + k[2]) for k in all_keys}

        def writer(writer_id):
            for row in range(rows_per_writer):
                cache = IndicatorCache()
                cache.put(("w", writer_id, row),
                          float(writer_id * 1000 + row))
                store.save_cache(cache, fingerprint)
                time.sleep(0.001)

        context = multiprocessing.get_context("fork")
        processes = [context.Process(target=writer, args=(writer_id,))
                     for writer_id in (1, 2)]
        for process in processes:
            process.start()
        deadline = time.time() + 30
        while (any(p.is_alive() for p in processes)
               and time.time() < deadline):
            target = IndicatorCache()
            store.load_cache_into(target, fingerprint, keys=all_keys,
                                  read_mode="index")
            for k, v in target.items():
                assert v == want[k]  # never torn, never misattributed
        for process in processes:
            process.join(timeout=30)
            assert process.exitcode == 0
        for mode in ("full", "index"):
            loaded, rows = load(store, fingerprint, all_keys, mode)
            assert loaded == len(want), mode
            assert rows == want, mode


class TestIndexTailCompaction:
    """Satellite: the index-aware auto-compaction trigger — a growing
    unsorted index tail (bisect can't serve it; every lookup scans it)
    re-compacts the shard even when segment count/bytes look healthy."""

    def test_tail_growth_triggers_compaction(self, tmp_path, fingerprint):
        store = RuntimeStore(tmp_path / "store", shards=1,
                             auto_compact_segments=10_000,
                             auto_compact_index_tail=4)
        for i in range(6):
            fill(store, fingerprint, i, 1)
        directory = store.cache_dir(fingerprint)
        # Tail crossed the bound mid-way, so the shard was rebuilt:
        # strictly fewer live segments than flushes, and the index tail
        # is short again.
        segments = list(directory.glob("shard-*.seg-*.jsonl"))
        assert len(segments) < 6
        state = store._read_index_state(directory, 0)
        assert state is not None
        assert state["tail_records"] <= 4
        # Rows all survive, through every read mode.
        for mode in ("full", "index"):
            loaded, rows = load(store, fingerprint,
                                [key(i) for i in range(6)], mode)
            assert loaded == 6, mode
            assert rows == {key(i): float(i) * 1.5 for i in range(6)}

    def test_disabled_auto_compaction_disables_tail_trigger(
            self, tmp_path, fingerprint):
        """``auto_compact_segments=None`` means *no* auto-compaction —
        the index-tail trigger must respect it (benchmarks rely on
        this to measure uncompacted layouts)."""
        store = RuntimeStore(tmp_path / "store", shards=1,
                             auto_compact_segments=None,
                             auto_compact_index_tail=1)
        for i in range(5):
            fill(store, fingerprint, i, 1)
        directory = store.cache_dir(fingerprint)
        assert len(list(directory.glob("shard-*.seg-*.jsonl"))) == 5

    def test_tail_bound_none_keeps_legacy_triggers_only(
            self, tmp_path, fingerprint):
        store = RuntimeStore(tmp_path / "store", shards=1,
                             auto_compact_segments=10_000,
                             auto_compact_index_tail=None)
        for i in range(8):
            fill(store, fingerprint, i, 1)
        directory = store.cache_dir(fingerprint)
        assert len(list(directory.glob("shard-*.seg-*.jsonl"))) == 8


class TestIndexFilters:
    """Satellite: the compaction-built per-shard fence + bloom filter —
    index-mode misses skip the bisect entirely, and the skips are
    counted in ``last_load_stats['index_filtered']``."""

    def test_misses_are_filtered_without_bisect(self, store, fingerprint):
        fill(store, fingerprint, 0, 32)
        store.compact_cache(fingerprint)
        missing = [key(i) for i in range(1000, 1050)]
        loaded, rows = load(store, fingerprint, missing, "index")
        assert loaded == 0 and rows == {}
        stats = store.last_load_stats
        # Nearly every miss is answered by fence/bloom (two hash
        # probes) instead of a binary search of the sorted region; the
        # occasional bloom false positive just falls through to the
        # bisect, which still answers "absent" correctly.
        assert stats["index_filtered"] >= int(0.8 * len(missing))
        assert stats["index_fallback_shards"] == 0

    def test_present_keys_never_filtered(self, store, fingerprint):
        fill(store, fingerprint, 0, 32)
        store.compact_cache(fingerprint)
        population = [key(i) for i in range(32)]
        loaded, rows = load(store, fingerprint, population, "index")
        assert loaded == 32
        assert store.last_load_stats["index_filtered"] == 0
        assert rows == {key(i): float(i) * 1.5 for i in range(32)}

    def test_filters_only_guard_the_sorted_region(self, store,
                                                  fingerprint):
        """Rows appended after compaction live in the index tail; the
        filters know nothing about them and must not reject them."""
        fill(store, fingerprint, 0, 16)
        store.compact_cache(fingerprint)
        fill(store, fingerprint, 500, 4)  # tail rows, outside the fence
        population = [key(i) for i in (3, 500, 501, 502, 503)]
        loaded, rows = load(store, fingerprint, population, "index")
        assert loaded == 5
        assert rows[key(500)] == 750.0

    def test_malformed_filters_degrade_to_bisect(self, store,
                                                 fingerprint):
        """A corrupt fence/bloom header is treated as *absent* — lookups
        fall back to the bisect, never to a wrong answer or a stale
        index."""
        fill(store, fingerprint, 0, 16)
        store.compact_cache(fingerprint)
        directory = store.cache_dir(fingerprint)
        for path in directory.glob("shard-*.idx.json"):
            lines = path.read_text(encoding="utf-8").splitlines(True)
            header = json.loads(lines[0])
            header["fence"] = "garbage"
            header["bloom"] = [0, "nothex!"]
            lines[0] = json.dumps(header) + "\n"
            # Keep the header's byte length irrelevant: rewrite whole
            # sidecar (this is a test-only surgery, not an append).
            path.write_text("".join(lines), encoding="utf-8")
        population = [key(i) for i in range(16)] + [key(999)]
        loaded, rows = load(store, fingerprint, population, "index")
        assert loaded == 16
        assert rows == {key(i): float(i) * 1.5 for i in range(16)}
        assert store.last_load_stats["index_filtered"] == 0

    def test_filtered_misses_counted_in_telemetry(self, tmp_path,
                                                  fingerprint):
        from repro.runtime.telemetry import Telemetry

        telemetry = Telemetry.armed()
        store = RuntimeStore(tmp_path / "store", shards=4,
                             auto_compact_segments=None,
                             telemetry=telemetry)
        fill(store, fingerprint, 0, 16)
        store.compact_cache(fingerprint)
        load(store, fingerprint, [key(i) for i in range(900, 910)],
             "index")
        snapshot = telemetry.metrics_snapshot()
        assert snapshot["counters"]["store.index_filtered"] == 10


class TestHarnessReadModes:
    def test_harness_warm_starts_through_every_read_mode(self, tmp_path):
        from repro.runtime import RunHarness, RuntimeConfig

        store_dir = str(tmp_path / "store")
        cold = RunHarness(RuntimeConfig(
            algorithm="random", samples=6, seed=3, fast=True,
            store_dir=store_dir)).run()
        assert cold.store["cache_saved"] > 0
        assert cold.store["read_mode"] == "full"
        for mode in ("full", "index"):
            warm = RunHarness(RuntimeConfig(
                algorithm="random", samples=6, seed=3, fast=True,
                store_dir=store_dir, store_read_mode=mode)).run()
            assert warm.store["read_mode"] == mode
            assert warm.cache["misses"] == 0
            assert warm.cache["warm_start_entries"] > 0
            assert warm.arch_str == cold.arch_str
            assert warm.indicators == cold.indicators

    @pytest.mark.parametrize("mode", ["full", "index"])
    @pytest.mark.parametrize("matrix", [False, True],
                             ids=["latency-run", "matrix"])
    def test_warm_restart_computes_and_saves_nothing(self, tmp_path, mode,
                                                     matrix):
        """A warm restart reads every row it needs — the trainless rows
        and the cost rows priced driver-side (latency; energy and peak
        memory per board in matrix mode) — so it computes and appends
        nothing, whichever way it reads the store."""
        from repro.runtime import RunHarness, RuntimeConfig

        if matrix:
            fields = dict(devices=("nucleo-f746zg", "nucleo-l432kc"),
                          objectives=("latency", "energy,peak-mem"))
        else:
            fields = dict(algorithm="random", latency_weight=0.5)
        config = RuntimeConfig(samples=16, seed=0, fast=True,
                               store_dir=str(tmp_path / "store"),
                               store_read_mode=mode, **fields)

        def run():
            harness = RunHarness(config)
            return harness.run_matrix() if matrix else harness.run()

        cold = run()
        assert cold.store["cache_saved"] > 0
        warm = run()
        assert warm.cache["misses"] == 0
        assert warm.store["cache_saved"] == 0
        assert warm.cache["warm_start_entries"] == cold.store["cache_saved"]

    def test_harness_rejects_unknown_read_mode(self):
        from repro.errors import SearchError
        from repro.runtime import RunHarness, RuntimeConfig

        with pytest.raises(SearchError):
            RunHarness(RuntimeConfig(algorithm="random", samples=2,
                                     fast=True,
                                     store_read_mode="psychic"))
