"""The store's two read paths: full replay and follow.

``load_cache_into`` replays every base and segment; ``follow_cache_into``
keeps a resident cache current by reading, per shard, only the files from
the first one it has not seen onward.  This file pins that both return
exactly the same rows under fuzzed write orders, torn tails, compactions
and leftover key-index sidecars from older versions; that both stay
correct when a reader races a compactor or two concurrent writers; and
that a harness warm restart computes and saves nothing.
"""

import json
import multiprocessing
import random
import time

import pytest

from repro.engine.cache import IndicatorCache
from repro.proxies.base import ProxyConfig
from repro.runtime.store import RuntimeStore, cache_fingerprint
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


def replay(store, fingerprint):
    target = IndicatorCache()
    loaded = store.load_cache_into(target, fingerprint, strict=True)
    return loaded, dict(target.items())


class TestReadModeBasics:
    """Contracts both read paths share."""

    def test_selected_rows_are_marked_clean(self, store, fingerprint):
        fill(store, fingerprint, 0, 10)
        replayed = IndicatorCache()
        store.load_cache_into(replayed, fingerprint)
        assert store.save_cache(replayed, fingerprint) == 0
        followed = IndicatorCache()
        assert store.follow_cache_into(followed, fingerprint, {}) == 10
        assert store.save_cache(followed, fingerprint) == 0

    def test_in_memory_value_wins_over_store(self, store, fingerprint):
        fill(store, fingerprint, 0, 10)
        for read in (lambda cache: store.load_cache_into(cache,
                                                         fingerprint),
                     lambda cache: store.follow_cache_into(
                         cache, fingerprint, {})):
            reader = IndicatorCache()
            reader.put(key(3), -1.0)  # dirty: not yet flushed
            read(reader)
            assert reader.get(key(3)) == -1.0
            assert reader.get(key(4)) == 6.0

    def test_cold_store_selected_load(self, store, fingerprint):
        assert store.load_cache_into(IndicatorCache(), fingerprint) == 0
        assert store.last_rejection == "no persisted cache"
        seen = {}
        assert store.follow_cache_into(IndicatorCache(), fingerprint,
                                       seen) == 0
        assert seen == {}


class TestReadPathEquivalence:
    """The property battery: whatever mess the write history left, a
    follower that kept up with it holds exactly what full replay
    returns."""

    @pytest.mark.parametrize("seed", range(10))
    def test_read_paths_bit_identical_under_fuzz(self, tmp_path,
                                                 fingerprint, seed):
        rng = random.Random(seed)
        store = RuntimeStore(tmp_path / "store",
                             shards=rng.choice([1, 2, 4, 8]),
                             auto_compact_segments=None)
        expected = {}
        follower, seen = IndicatorCache(), {}
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
            elif action < 0.6:
                # A key-index sidecar an older version left behind:
                # nothing reads it.
                (directory / "shard-00.idx.json").write_text(
                    '{"garbage', encoding="utf-8")
            if rng.random() < 0.6:
                store.follow_cache_into(follower, fingerprint, seen)
        store.follow_cache_into(follower, fingerprint, seen)
        loaded, rows = replay(store, fingerprint)
        assert loaded == len(expected), seed
        assert rows == expected, seed
        assert dict(follower.items()) == expected, seed


class TestConcurrentReaders:
    def test_reads_race_a_compactor(self, tmp_path, fingerprint):
        """A churning writer+compactor must never make a concurrent
        replay or follow miss a row or see a wrong value: appends hold
        the shard flock, compaction holds base + every shard lock, and
        both read paths read under the shared base lock."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        store = RuntimeStore(tmp_path / "store", shards=4,
                             auto_compact_segments=None)
        fill(store, fingerprint, 0, 40)
        want = {key(i): float(i) * 1.5 for i in range(40)}

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
        follower, seen = IndicatorCache(), {}
        try:
            for _ in range(25):
                loaded, rows = replay(store, fingerprint)
                assert loaded == len(want)
                assert rows == want
                store.follow_cache_into(follower, fingerprint, seen)
                assert dict(follower.items()) == want
        finally:
            stop.set()
            process.join(timeout=30)
        assert process.exitcode == 0

    def test_two_writers_and_a_follower_drop_nothing(
            self, tmp_path, fingerprint):
        """Two processes flushing into the same single shard while a
        third follows the log: every mid-race read is internally
        consistent, and after the writers join the follower and a full
        replay agree on the full row set — no lost rows, no duplicates,
        no torn values."""
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
        follower, seen = IndicatorCache(), {}
        deadline = time.time() + 30
        while (any(p.is_alive() for p in processes)
               and time.time() < deadline):
            store.follow_cache_into(follower, fingerprint, seen)
            for k, v in follower.items():
                assert v == want[k]  # never torn, never misattributed
        for process in processes:
            process.join(timeout=30)
            assert process.exitcode == 0
        store.follow_cache_into(follower, fingerprint, seen)
        assert dict(follower.items()) == want
        loaded, rows = replay(store, fingerprint)
        assert loaded == len(want)
        assert rows == want


class TestLeftoverSidecars:
    def test_compaction_unlinks_leftover_index_sidecars(self, store,
                                                        fingerprint):
        """Stores written by earlier versions hold ``shard-NN.idx.json``
        key-index sidecars that nothing maintains any more: compaction
        removes every one of them and replay is unchanged."""
        fill(store, fingerprint, 0, 30)
        directory = store.cache_dir(fingerprint)
        for shard in (0, 3, 11):  # 11: beyond the recorded shard count
            (directory / f"shard-{shard:02d}.idx.json").write_text(
                json.dumps({"row": 46, "sorted": 0, "files": [],
                            "covers": []}) + "\n", encoding="utf-8")
        before = replay(store, fingerprint)
        store.compact_cache(fingerprint)
        assert not list(directory.glob("shard-*.idx.json"))
        assert replay(store, fingerprint) == before


class TestHarnessReadModes:
    """The harness warm-starts by one eager replay."""

    @pytest.mark.parametrize("matrix", [False, True],
                             ids=["latency-run", "matrix"])
    def test_warm_restart_computes_and_saves_nothing(self, tmp_path,
                                                     matrix):
        """A warm restart reads every row it needs — the trainless rows
        and the cost rows priced driver-side (latency; energy and peak
        memory per board in matrix mode) — so it computes and appends
        nothing."""
        from repro.runtime import RunHarness, RuntimeConfig

        if matrix:
            fields = dict(devices=("nucleo-f746zg", "nucleo-l432kc"),
                          objectives=("latency", "energy,peak-mem"))
        else:
            fields = dict(algorithm="random", latency_weight=0.5)
        config = RuntimeConfig(samples=16, seed=0, fast=True,
                               store_dir=str(tmp_path / "store"), **fields)

        def run():
            harness = RunHarness(config)
            return harness.run_matrix() if matrix else harness.run()

        cold = run()
        assert cold.store["cache_saved"] > 0
        warm = run()
        assert warm.cache["misses"] == 0
        assert warm.store["cache_saved"] == 0
        assert warm.cache["warm_start_entries"] == cold.store["cache_saved"]
