"""The segment-log store: append-only segments, compaction, LUT keys.

The properties this file pins are the acceptance criteria of the
segment-log store: a save appends only the dirty delta as one segment,
files older store formats wrote read as misses and are never compacted,
compaction is idempotent, leaves one base and preserves
last-write-wins, concurrent appenders to one log drop no rows, and
slug-colliding device names no longer clobber each other's LUTs.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.engine.cache import IndicatorCache
from repro.hardware.profiler import LatencyLUT
from repro.proxies.base import ProxyConfig
from repro.runtime.store import (
    STORE_FORMAT,
    RuntimeStore,
    StoreError,
    cache_fingerprint,
    _encode_key,
    _fingerprint_digest,
)
from repro.searchspace.network import MacroConfig
from tests.runtime.test_store_index import pause_after_base

pytestmark = pytest.mark.store


@pytest.fixture()
def store(tmp_path):
    return RuntimeStore(tmp_path / "store")


@pytest.fixture()
def fingerprint():
    return cache_fingerprint(ProxyConfig(), MacroConfig.full())


def key(i):
    return ("ntk", i, 1, ())


def write_format1_file(store, fingerprint, entries):
    """What the format-1 store wrote: one monolithic JSON file keyed
    by the format-1 fingerprint digest.  Returns its path."""
    legacy = dict(fingerprint, format=1)
    payload = {
        "fingerprint": legacy,
        "entries": [[_encode_key(k), v] for k, v in entries.items()],
    }
    path = store.root / f"indicator_cache__{_fingerprint_digest(legacy)}.json"
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


def segment_files(store, fingerprint):
    return store._segment_files(store.cache_dir(fingerprint))


class TestDirtyDelta:
    """save_cache cost tracks rows computed, not store size."""

    def test_save_appends_only_dirty_rows(self, store, fingerprint):
        cache = IndicatorCache()
        cache.put(key(1), 1.0)
        assert store.save_cache(cache, fingerprint) == 1
        # Nothing new since the last save: nothing appended, no new
        # segment files — the O(delta) property in its purest form.
        before = len(segment_files(store, fingerprint))
        assert store.save_cache(cache, fingerprint) == 0
        assert len(segment_files(store, fingerprint)) == before
        cache.put(key(2), 2.0)
        assert store.save_cache(cache, fingerprint) == 1

    def test_loaded_rows_are_marked_clean(self, store, fingerprint):
        writer = IndicatorCache()
        writer.put(key(1), 1.0)
        writer.put(key(2), 2.0)
        store.save_cache(writer, fingerprint)
        reader = IndicatorCache()
        assert store.load_cache_into(reader, fingerprint) == 2
        # Warm-started rows must not be re-appended by the next save.
        assert store.save_cache(reader, fingerprint) == 0
        reader.put(key(3), 3.0)
        assert store.save_cache(reader, fingerprint) == 1

    def test_unserialisable_rows_stay_dirty_and_are_skipped(
            self, store, fingerprint):
        cache = IndicatorCache()
        cache.put(key(1), 1.0)
        cache.put(("bad", 0), object())  # engine never produces this
        assert store.save_cache(cache, fingerprint) == 1
        restored = IndicatorCache()
        assert store.load_cache_into(restored, fingerprint) == 1


class TestFormat1Compat:
    """Files an older store format wrote are never read: a run against
    them starts cold and recomputes (the store is a cache)."""

    def test_format1_file_reads_as_miss(self, store, fingerprint):
        legacy = write_format1_file(store, fingerprint, {key(1): 1.0})
        cache = IndicatorCache()
        assert store.load_cache_into(cache, fingerprint, strict=True) == 0
        assert store.last_rejection == "no persisted cache"
        assert store.compact_all() == []  # nothing to fold or migrate
        fresh = IndicatorCache()
        fresh.put(key(1), 99.0)  # the recomputed row
        assert store.save_cache(fresh, fingerprint) == 1
        assert legacy.exists()  # left alone, never migrated
        restored = IndicatorCache()
        assert store.load_cache_into(restored, fingerprint, strict=True) == 1
        assert restored.get(key(1)) == 99.0

    def test_older_format_directory_is_never_compacted(self, store,
                                                       fingerprint):
        """``compact_all`` leaves a directory an older format wrote byte
        for byte as it is, and does not report it."""
        older = dict(fingerprint, format=STORE_FORMAT - 1)
        for i in range(3):
            cache = IndicatorCache()
            cache.put(key(i), float(i))
            store.save_cache(cache, older)
        directory = store.cache_dir(older)

        def snapshot():
            return {path.name: path.read_bytes()
                    for path in directory.iterdir()}

        before = snapshot()
        assert len(segment_files(store, older)) == 3
        assert store.compact_all() == []
        assert snapshot() == before

    def test_format2_directory_reads_as_miss(self, store, fingerprint):
        older = dict(fingerprint, format=2)
        cache = IndicatorCache()
        cache.put(key(1), 1.0)
        store.save_cache(cache, older)
        assert store.cache_dir(older) != store.cache_dir(fingerprint)
        assert store.load_cache_into(IndicatorCache(), fingerprint) == 0
        assert store.follow_cache_into(IndicatorCache(), fingerprint,
                                       {}) == 0


class TestLayout:
    def test_one_save_writes_one_segment_and_compaction_one_base(
            self, store, fingerprint):
        cache = IndicatorCache()
        for i in range(50):
            cache.put(key(i), float(i))
        assert store.save_cache(cache, fingerprint) == 50
        directory = store.cache_dir(fingerprint)

        def data_files():  # lock sidecars aside
            return sorted(path.name for path in directory.iterdir()
                          if not path.name.endswith(".lock"))

        files = data_files()
        assert len(files) == 2 and files[0] == "meta.json"
        assert files[1].startswith("seg-") and files[1].endswith(".jsonl")
        store.compact_cache(fingerprint)
        assert data_files() == ["base.jsonl", "meta.json"]
        restored = IndicatorCache()
        assert store.load_cache_into(restored, fingerprint,
                                     strict=True) == 50


class TestCompaction:
    def test_compact_folds_segments_preserving_last_write_wins(
            self, store, fingerprint):
        older = IndicatorCache()
        older.put(key(1), 1.0)
        older.put(key(2), 2.0)
        store.save_cache(older, fingerprint)
        newer = IndicatorCache()
        newer.put(key(1), 99.0)  # overrides the older segment's row
        store.save_cache(newer, fingerprint)
        assert len(segment_files(store, fingerprint)) > 0
        stats = store.compact_cache(fingerprint)
        assert stats["segments_folded"] > 0
        assert stats["entries"] == 2
        assert segment_files(store, fingerprint) == []
        restored = IndicatorCache()
        assert store.load_cache_into(restored, fingerprint, strict=True) == 2
        assert restored.get(key(1)) == 99.0
        assert restored.get(key(2)) == 2.0

    def test_compaction_is_idempotent(self, store, fingerprint):
        cache = IndicatorCache()
        for i in range(10):
            cache.put(key(i), float(i))
        store.save_cache(cache, fingerprint)
        store.compact_cache(fingerprint)

        def layout():
            directory = store.cache_dir(fingerprint)
            return {path.name: path.read_bytes()
                    for path in directory.glob("base.jsonl")}

        first = layout()
        assert first  # compaction wrote the base
        stats = store.compact_cache(fingerprint)
        assert stats["segments_folded"] == 0
        assert layout() == first

    def test_auto_compaction_past_segment_threshold(self, tmp_path,
                                                    fingerprint):
        store = RuntimeStore(tmp_path / "store", auto_compact_segments=2)
        cache = IndicatorCache()
        for i in range(4):
            cache.put(key(i), float(i))
            store.save_cache(cache, fingerprint)
        # Four saves, threshold 2: the store must have folded segments
        # down along the way rather than accumulating one per save.
        assert len(segment_files(store, fingerprint)) <= 2
        restored = IndicatorCache()
        assert store.load_cache_into(restored, fingerprint, strict=True) == 4

    def test_auto_compaction_amortized_against_base_bytes(self, tmp_path,
                                                          fingerprint):
        """Tiny deltas against a big base must NOT rewrite the base on
        every few saves — segments accumulate until their bytes rival
        the base (log-structured amortization), so every-gather flushing
        stays O(delta) amortized."""
        store = RuntimeStore(tmp_path / "store", auto_compact_segments=2)
        bulk = IndicatorCache()
        for i in range(500):
            bulk.put(key(i), float(i))
        store.save_cache(bulk, fingerprint)
        store.compact_cache(fingerprint)  # big base, zero segments
        cache = IndicatorCache()
        for i in range(500, 510):
            cache.put(key(i), float(i))
            store.save_cache(cache, fingerprint)
        # Ten one-row segments are far smaller than the 500-row base:
        # they must all still be pending, not folded.
        assert len(segment_files(store, fingerprint)) == 10
        restored = IndicatorCache()
        assert store.load_cache_into(restored, fingerprint,
                                     strict=True) == 510

    def test_compaction_disabled_for_benchmarks(self, tmp_path,
                                                fingerprint):
        store = RuntimeStore(tmp_path / "store", auto_compact_segments=None)
        cache = IndicatorCache()
        for i in range(8):
            cache.put(key(i), float(i))
            store.save_cache(cache, fingerprint)
        assert len(segment_files(store, fingerprint)) == 8


class TestConcurrentAppend:
    def test_two_processes_appending_one_shard_drop_no_rows(
            self, tmp_path, fingerprint):
        """Both writers append to the directory's one log, so the append
        flock is the only thing keeping their segment sequence numbers
        distinct."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        store = RuntimeStore(tmp_path / "store", auto_compact_segments=None)
        rows_per_writer = 20

        def writer(writer_id: int) -> None:
            cache = IndicatorCache()
            for row in range(rows_per_writer):
                cache.put(key(writer_id * 1000 + row),
                          float(writer_id * 1000 + row))
                store.save_cache(cache, fingerprint)
                time.sleep(0.001)

        context = multiprocessing.get_context("fork")
        processes = [context.Process(target=writer, args=(writer_id,))
                     for writer_id in (1, 2)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        restored = IndicatorCache()
        loaded = store.load_cache_into(restored, fingerprint, strict=True)
        assert loaded == 2 * rows_per_writer
        for writer_id in (1, 2):
            for row in range(rows_per_writer):
                value = float(writer_id * 1000 + row)
                assert restored.get(key(writer_id * 1000 + row)) == value

    def test_compaction_racing_appenders_drops_no_rows(self, tmp_path,
                                                       fingerprint):
        """A compactor folding while a writer appends and reads: every
        row persisted must survive (the append lock on the fold) and
        every load must hold every row the writer already saved (the
        base lock on replay — without it, a load between the compactor's
        base swap and segment unlink misses the rows that were only in
        the unlinked segments).  The compactor folds without pause until
        the writer is done, so its folds find rows that exist only in
        segments, and the writer pauses after each base read, so a fold
        that can slip between base and segments does."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        store = RuntimeStore(tmp_path / "store", auto_compact_segments=None)
        rows = 40

        def writer() -> None:
            # This forked process is the only reader that pauses.
            RuntimeStore._read_jsonl_rows = pause_after_base(
                RuntimeStore._read_jsonl_rows)
            cache = IndicatorCache()
            for row in range(rows):
                cache.put(key(row), float(row))
                store.save_cache(cache, fingerprint)
                probe = IndicatorCache()
                seen = store.load_cache_into(probe, fingerprint,
                                             strict=True)
                assert seen == row + 1, (seen, row)
                for earlier in range(row + 1):
                    assert probe.get(key(earlier)) == float(earlier)

        context = multiprocessing.get_context("fork")
        process = context.Process(target=writer)
        process.start()
        folds, deadline = 0, time.monotonic() + 60
        while process.is_alive() and time.monotonic() < deadline:
            store.compact_cache(fingerprint)
            folds += 1
        process.join(timeout=30)
        assert process.exitcode == 0
        assert folds > 1
        store.compact_cache(fingerprint)
        restored = IndicatorCache()
        assert store.load_cache_into(restored, fingerprint,
                                     strict=True) == rows


class TestLutDeviceNameKeying:
    """Regression: device names that slug identically must not collide."""

    def test_slug_colliding_names_keep_distinct_luts(self, store,
                                                     tiny_macro_config):
        entries_a = {("nor_conv_3x3", 4, 4, 8, 8, 3, 1): 1.25}
        entries_b = {("nor_conv_3x3", 4, 4, 8, 8, 3, 1): 7.5}
        lut_a = LatencyLUT("jetson nano", dict(entries_a), 0.5)
        lut_b = LatencyLUT("jetson-nano", dict(entries_b), 0.25)
        path_a = store.lut_put(lut_a, "float32", tiny_macro_config)
        path_b = store.lut_put(lut_b, "float32", tiny_macro_config)
        # Same slug, different digests: two files, no clobbering (the
        # format-1 layout mapped both names onto one path, so whichever
        # profiled second destroyed the first's profile and both ends
        # re-profiled forever).
        assert path_a != path_b
        got_a = store.lut_get("jetson nano", "float32", tiny_macro_config)
        got_b = store.lut_get("jetson-nano", "float32", tiny_macro_config)
        assert got_a is not None and got_a.entries == entries_a
        assert got_b is not None and got_b.entries == entries_b

    def test_both_colliding_names_inventoried(self, store,
                                              tiny_macro_config):
        store.lut_put(LatencyLUT("jetson nano", {("skip_connect", 1): 0.1},
                                 0.0), "float32", tiny_macro_config)
        store.lut_put(LatencyLUT("jetson-nano", {("skip_connect", 1): 0.2},
                                 0.0), "float32", tiny_macro_config)
        devices = sorted(meta["device"] for meta in store.lut_keys())
        assert devices == ["jetson nano", "jetson-nano"]


def dead_pid():
    """A pid guaranteed to belong to no live process: a child we already
    reaped (tests using literal pids like 4242 could collide with a real
    process and make the liveness check spare a genuinely stale file)."""
    context = multiprocessing.get_context()
    child = context.Process(target=lambda: None)
    child.start()
    child.join()
    return child.pid


class TestGarbageCollection:
    def test_gc_sweeps_stale_tmp_and_lock_sidecars(self, store):
        pid = dead_pid()
        stale_tmp = store.root / f"lut__x__abc.json.{pid}.tmp"
        stale_lock = store.root / "lut__x__abc.json.lock"
        fresh_tmp = store.root / f"lut__y__def.json.{pid}.tmp"
        for path in (stale_tmp, stale_lock, fresh_tmp):
            path.write_text("", encoding="utf-8")
        old = time.time() - 7200
        os.utime(stale_tmp, (old, old))
        os.utime(stale_lock, (old, old))
        removed = store.gc(max_age_seconds=3600)
        assert removed == {"tmp": 1, "lock": 1}
        assert not stale_tmp.exists()
        assert not stale_lock.exists()
        assert fresh_tmp.exists()  # a live writer's staging file stays

    def test_gc_spares_a_live_writers_sidecars(self, store):
        """Regression: age alone must not condemn a `.tmp` — a paused or
        slow writer (this very process) may still be mid-rename long
        after any sane age cutoff."""
        live_tmp = store.root / f"lut__x__abc.json.{os.getpid()}.tmp"
        live_tmp.write_text("", encoding="utf-8")
        old = time.time() - 7200
        os.utime(live_tmp, (old, old))
        assert store.gc(max_age_seconds=3600)["tmp"] == 0
        assert live_tmp.exists()
        # A pid-less orphan (foreign naming) still sweeps by age alone.
        orphan = store.root / "lut__x__abc.json.tmp"
        orphan.write_text("", encoding="utf-8")
        os.utime(orphan, (old, old))
        assert store.gc(max_age_seconds=3600)["tmp"] == 1
        assert not orphan.exists()
        assert live_tmp.exists()

    def test_gc_never_unlinks_a_held_lock(self, store):
        fcntl = pytest.importorskip("fcntl")
        held = store.root / "lut__x__abc.json.lock"
        held.write_text("", encoding="utf-8")
        old = time.time() - 7200
        os.utime(held, (old, old))
        with open(held, "r+", encoding="utf-8") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                # Stale by age, but held: pulling it out from under the
                # holder would let a second writer acquire a fresh inode
                # and break mutual exclusion.
                assert store.gc(max_age_seconds=3600)["lock"] == 0
                assert held.exists()
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)
        assert store.gc(max_age_seconds=3600)["lock"] == 1

    def test_gc_reaches_cache_directories(self, store, fingerprint):
        cache = IndicatorCache()
        cache.put(key(1), 1.0)
        store.save_cache(cache, fingerprint)
        orphan = (store.cache_dir(fingerprint)
                  / f"base.json.{dead_pid()}.tmp")
        orphan.write_text("", encoding="utf-8")
        old = time.time() - 7200
        os.utime(orphan, (old, old))
        assert store.gc(max_age_seconds=3600)["tmp"] == 1
        assert not orphan.exists()
        restored = IndicatorCache()
        assert store.load_cache_into(restored, fingerprint) == 1

    def test_compaction_sweeps_stale_staging_files(self, store,
                                                   fingerprint):
        cache = IndicatorCache()
        cache.put(key(1), 1.0)
        store.save_cache(cache, fingerprint)
        orphan = (store.cache_dir(fingerprint)
                  / f"base.json.{dead_pid()}.tmp")
        orphan.write_text("", encoding="utf-8")
        old = time.time() - 7200
        os.utime(orphan, (old, old))
        store.compact_cache(fingerprint)
        assert not orphan.exists()


class TestInventory:
    def test_inventory_reports_both_formats(self, store, fingerprint):
        cache = IndicatorCache()
        cache.put(key(1), 1.0)
        store.save_cache(cache, fingerprint)
        stale = cache_fingerprint(ProxyConfig(seed=5), MacroConfig.full())
        write_format1_file(store, stale, {key(9): 9.0})
        inventory = store.cache_inventory()
        formats = sorted(entry["format"] for entry in inventory)
        assert formats == [1, STORE_FORMAT]
        modern = next(e for e in inventory if e["format"] == STORE_FORMAT)
        assert modern["segments"] == 1
        legacy = next(e for e in inventory if e["format"] == 1)
        assert legacy["base_rows"] == 1

    def test_unreadable_meta_refuses_saves_instead_of_resharding(
            self, store, fingerprint):
        # The meta is the only record of which fingerprint wrote the
        # rows: rewriting a damaged one would vouch for rows the
        # fingerprint check never saw, so refuse loudly.
        cache = IndicatorCache()
        cache.put(key(1), 1.0)
        store.save_cache(cache, fingerprint)
        meta_path = store.cache_dir(fingerprint) / "meta.json"
        meta_path.write_text("{torn", encoding="utf-8")
        cache.put(key(2), 2.0)
        with pytest.raises(StoreError, match="unreadable store meta"):
            store.save_cache(cache, fingerprint)
        # Reads stay available (the meta fingerprint check is skipped,
        # base/segment fingerprints still guard).
        restored = IndicatorCache()
        assert store.load_cache_into(restored, fingerprint) == 1

    def test_inventory_tolerates_damaged_payloads(self, store,
                                                  fingerprint):
        # A legacy-named file with valid-but-wrong-shape JSON, and a
        # cache dir with a junk meta: the diagnostic listing a user
        # reaches for on a damaged store must not traceback.
        (store.root / "indicator_cache__deadbeef.json").write_text(
            '[1, 2]', encoding="utf-8")
        (store.root / "indicator_cache__cafecafe.json").write_text(
            '{"fingerprint": 3, "entries": 7}', encoding="utf-8")
        broken_dir = store.root / "cache2__baadf00d"
        broken_dir.mkdir()
        (broken_dir / "meta.json").write_text('"junk"', encoding="utf-8")
        inventory = store.cache_inventory()
        assert len(inventory) == 3
        assert all(entry["base_rows"] == 0 for entry in inventory)
