"""The store's read path: full replay.

``load_cache_into`` replays the base and every segment.  This file pins
that a replay returns exactly the rows written under fuzzed write
orders, torn tails, compactions and leftover key-index sidecars from
older versions; that repeated replays stay correct when a reader races a
compactor or two concurrent writers; and that a harness warm restart
computes and saves nothing.
"""

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
    return RuntimeStore(tmp_path / "store", auto_compact_segments=None)


def key(i):
    return ("ntk", i, 1, ())


def fill(store, fingerprint, start, count):
    cache = IndicatorCache()
    for i in range(start, start + count):
        cache.put(key(i), float(i) * 1.5)
    store.save_cache(cache, fingerprint)


def pause_after_base(read_rows, seconds=0.005):
    """``RuntimeStore._read_jsonl_rows`` that sleeps after reading a
    base: it widens the window between a reader's base read and its
    segment reads, where a compaction must not land."""

    def read_then_pause(self, path, entries):
        read_rows(self, path, entries)
        if path.name == "base.jsonl":
            time.sleep(seconds)

    return read_then_pause


def replay(store, fingerprint):
    target = IndicatorCache()
    loaded = store.load_cache_into(target, fingerprint, strict=True)
    return loaded, dict(target.items())


class TestReadModeBasics:
    """Contracts of a replay into a resident cache."""

    def test_selected_rows_are_marked_clean(self, store, fingerprint):
        fill(store, fingerprint, 0, 10)
        replayed = IndicatorCache()
        assert store.load_cache_into(replayed, fingerprint) == 10
        assert store.save_cache(replayed, fingerprint) == 0

    def test_in_memory_value_wins_over_store(self, store, fingerprint):
        fill(store, fingerprint, 0, 10)
        reader = IndicatorCache()
        reader.put(key(3), -1.0)  # dirty: not yet flushed
        store.load_cache_into(reader, fingerprint)
        assert reader.get(key(3)) == -1.0
        assert reader.get(key(4)) == 6.0

    def test_cold_store_selected_load(self, store, fingerprint):
        assert store.load_cache_into(IndicatorCache(), fingerprint) == 0
        assert store.last_rejection == "no persisted cache"


class TestReadPathEquivalence:
    """The property battery: whatever mess the write history left, a
    replay at any point of it returns exactly the rows written so far."""

    @pytest.mark.parametrize("seed", range(10))
    def test_read_paths_bit_identical_under_fuzz(self, tmp_path,
                                                 fingerprint, seed):
        rng = random.Random(seed)
        store = RuntimeStore(tmp_path / "store", auto_compact_segments=None)
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
                segments = sorted(directory.glob("seg-*.jsonl"))
                if segments:  # a crashed writer's torn segment tail
                    with open(rng.choice(segments), "a") as handle:
                        handle.write('["torn')
            elif action < 0.6:
                # A key-index sidecar an older version left behind:
                # nothing reads it.
                (directory / "shard-00.idx.json").write_text(
                    '{"garbage', encoding="utf-8")
            if rng.random() < 0.6:
                assert replay(store, fingerprint)[1] == expected, seed
        loaded, rows = replay(store, fingerprint)
        assert loaded == len(expected), seed
        assert rows == expected, seed


class TestConcurrentReaders:
    def test_reads_race_a_compactor(self, tmp_path, fingerprint,
                                    monkeypatch):
        """A churning writer+compactor must never make a concurrent
        replay miss a row or see a wrong value: appends hold the append
        flock, compaction holds the base and append locks, and replays
        read under the shared base lock.

        Each churn round appends a row that lives only in a segment until
        the compaction right after it folds the row into the base and
        unlinks the segment.  A reader that read the old base without the
        shared lock, just before that swap, would find the segment gone
        and lose the row; so every read must hold every row the churn had
        saved before the read began, and every row an earlier read saw.
        The reader pauses after each base read, so a compaction that can
        slip between base and segments does."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        store = RuntimeStore(tmp_path / "store", auto_compact_segments=None)
        fill(store, fingerprint, 0, 40)
        store.compact_cache(fingerprint)

        context = multiprocessing.get_context("fork")
        stop = context.Event()
        saved = context.Value("i", 40)  # key(0) .. key(saved - 1) persisted

        def churn():
            row = 40
            while not stop.is_set():
                fill(store, fingerprint, row, 1)
                row += 1
                saved.value = row
                store.compact_cache(fingerprint)

        def assert_holds(rows, floor, known):
            for i in range(floor):
                assert rows.get(key(i)) == float(i) * 1.5, (i, floor)
            for k, value in known.items():
                assert rows.get(k) == value, k
            for k, value in rows.items():
                assert value == float(k[1]) * 1.5, k

        process = context.Process(target=churn)
        process.start()
        # Patched after the fork: only this process, the reader, pauses.
        monkeypatch.setattr(RuntimeStore, "_read_jsonl_rows",
                            pause_after_base(RuntimeStore._read_jsonl_rows))
        known = {}
        try:
            for _ in range(80):
                floor = saved.value
                loaded, rows = replay(store, fingerprint)
                assert loaded == len(rows)
                assert_holds(rows, floor, known)
                known = rows
        finally:
            stop.set()
            process.join(timeout=30)
        assert process.exitcode == 0
        assert saved.value > 40  # the churn ran

    def test_two_writers_and_a_reader_drop_nothing(
            self, tmp_path, fingerprint):
        """Two processes flushing into the same log while a third
        replays it over and over: every mid-race read is internally
        consistent and holds every row an earlier read saw, and after the
        writers join a full replay holds the full row set — no lost rows,
        no duplicates, no torn values."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        store = RuntimeStore(tmp_path / "store", auto_compact_segments=None)
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
        known = {}
        deadline = time.time() + 30
        while (any(p.is_alive() for p in processes)
               and time.time() < deadline):
            # Not strict: the first save creates the directory, and a
            # read between its mkdir and its meta.json may report the
            # meta as unreadable while still loading every row.
            reader = IndicatorCache()
            store.load_cache_into(reader, fingerprint)
            rows = dict(reader.items())
            for k, v in rows.items():
                assert v == want[k]  # never torn, never misattributed
            assert known.keys() <= rows.keys()  # appends never vanish
            known = rows
        for process in processes:
            process.join(timeout=30)
            assert process.exitcode == 0
        loaded, rows = replay(store, fingerprint)
        assert loaded == len(want)
        assert rows == want


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
