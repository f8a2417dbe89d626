"""Persistent store for indicator caches and device latency LUTs.

Board profiling and proxy evaluation are the two costs every run pays
again from scratch: the in-memory
:class:`~repro.engine.cache.IndicatorCache` dies with the process and each
device re-profiles its LUT.  :class:`RuntimeStore` is a directory-backed
store that makes both survive:

* **Indicator cache — a sharded append-only segment log with
  per-shard compacted bases and key indexes.**  Each fingerprint (see
  :func:`cache_fingerprint`) owns one directory::

      cache2__<digest>/
          meta.json                       # fingerprint + shard count
          shard-03.base.jsonl             # compacted rows of shard 3
          shard-03.idx.json               # key index sidecar of shard 3
          shard-03.seg-00000002.4711.jsonl  # one append per save
          base.lock                       # reader/compactor lock

  ``save_cache`` appends only the cache's **dirty rows** (those written
  since the last load/save — :meth:`~repro.engine.cache.IndicatorCache.
  dirty_items`), hashed by stable key into ``shards`` buckets; each touched
  shard gets one new atomically-renamed JSONL segment per save, numbered
  under the shard's own ``flock``.  Persistence cost is therefore O(rows
  this run computed), independent of how large the store already is — the
  property process fleets sharing one store directory need.  Loading
  replays each shard's ``.base.jsonl``, then every segment in
  ``(shard, sequence, pid)`` order with **last-write-wins** per key; a
  **compaction** pass
  (:meth:`RuntimeStore.compact_cache`, the ``micronas store compact`` CLI,
  or automatically once accumulated segments rival the bases in bytes,
  past an :attr:`RuntimeStore.auto_compact_segments` file-count floor —
  log-structured amortization) folds everything into the per-shard
  ``.base.jsonl`` files under the base + every shard lock; loads replay
  under the base lock too, so readers and concurrent appenders racing a
  compaction lose nothing.

  **Read paths.**  :meth:`RuntimeStore.load_cache_into` takes
  ``keys=`` + ``read_mode=``:

  * ``"full"`` (default, and always used when ``keys`` is ``None``) —
    replay the whole directory: O(store), the right call when a run
    genuinely wants everything resident;
  * ``"index"`` — point lookups through each shard's ``.idx.json``
    sidecar: O(population · log shard), independent of store size.  The
    index maps key digests to ``[file, byte offset, length]`` of the
    key's newest row, LSM-style so neither reads nor writes ever touch
    the whole sidecar: line 1 is a JSON header (``row`` width,
    ``sorted`` record count, ``files`` table, ``covers``), followed by
    ``sorted`` digest-ordered **fixed-width records** that lookups
    binary-search with seeks, followed by one appended JSON tail record
    per flush (``{"e": {digest: slot}, "c": [segment, bytes]}``) —
    compaction rebuilds the whole sidecar atomically with everything
    folded into the sorted region; each flush *appends one tail line
    under the shard flock*, keeping save cost O(delta).  Staleness is
    detected by comparing the merged ``covers`` — the ``[name, bytes]``
    of every shard file the index reflects (header covers plus one per
    tail record) — against the directory: any mismatch (a writer
    without index support, a torn segment or index tail, a hand-edited
    file) falls back to replaying that shard, so indexed reads are
    always bit-identical to replay.  A fresh index is authoritative: a
    digest in neither the tail nor the sorted region is a miss, served
    without touching segment data at all.

  Cache keys are plain nested tuples of strings and integers (the key
  contract in :mod:`repro.engine`), round-tripped through JSON with a
  recursive list↔tuple conversion; values may be ``inf``/``nan``.  The
  fingerprint guards the global assumptions (store format, indicator
  schema, proxy/macro config, proxy compute precision) — a mismatched
  directory loads nothing, so stale entries can never poison results, and
  float32/float64 runs keep separate directories.  The store is a cache:
  files an older store format wrote (the format-1 monolithic
  ``indicator_cache__*.json``, format-2 directories) are never read —
  they key other fingerprint digests, so a run against them starts
  cold and recomputes bit-identical rows.

* **Latency LUTs** — one file per ``(device, precision, macro config)``
  key, written under a ``flock`` with :meth:`~repro.hardware.profiler.
  LatencyLUT.save_json` so files interoperate with every other LUT
  consumer, plus a sidecar ``.meta.json`` holding the key fingerprint that
  loading validates.  The digest folds in the *raw* device name (not just
  its filename slug), so names that slug identically (``"jetson nano"`` vs
  ``"jetson-nano"``) key distinct files.  Multi-device Pareto searches and
  CI profile each board once, ever.

Maintenance: :meth:`RuntimeStore.gc` sweeps stale ``.tmp`` staging files
and ``.lock`` sidecars crashed writers left behind, and
:meth:`RuntimeStore.cache_inventory` / :meth:`RuntimeStore.lut_keys` feed
the ``micronas store inventory`` listing.

The store is duck-typed by its consumers: :class:`repro.engine.Engine`
and :class:`~repro.hardware.latency.LatencyEstimator` only call
``lut_get``/``lut_put``, and the harness calls
``load_cache_into``/``save_cache`` — neither imports this module.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import time
from dataclasses import astuple
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

try:  # POSIX advisory locks; absent on some platforms (e.g. Windows)
    import fcntl
except ImportError:  # pragma: no cover - platform dependent
    fcntl = None

from repro.engine.cache import IndicatorCache
from repro.engine.core import INDICATOR_NAMES
from repro.errors import ReproError
from repro.hardware.profiler import LatencyLUT
from repro.proxies.base import ProxyConfig
from repro.runtime.telemetry import Telemetry
from repro.runtime.tracing import CAT_STORE
from repro.searchspace.network import MacroConfig

#: Bump when the meaning of cached values or the on-disk layout changes;
#: old store files then self-invalidate: they read as misses and
#: recompute bit-identically.  Format 2: sharded append-only indicator
#: segments + device-name-keyed LUT digests.  Format 3: the same layout
#: without the monolithic ``base.json`` replay layer.
STORE_FORMAT = 3

#: Shard count for new cache directories (recorded in ``meta.json``).
DEFAULT_SHARDS = 8

#: Segment-count floor for auto-compaction: past this many files the
#: store considers folding, but only actually rewrites the base once the
#: accumulated segment bytes rival it (or the count is 16× the floor) —
#: log-structured amortization that keeps every-gather flushing O(delta)
#: amortized instead of rewriting the whole store every ``shards`` saves.
DEFAULT_AUTO_COMPACT_SEGMENTS = 64

#: Index-tail record bound for auto-compaction: every index-mode lookup
#: linearly merges the tail records appended since the last compaction
#: (the O(appends) part of an otherwise O(log shard) read), so once any
#: shard's tail grows past this many records a save triggers compaction
#: — which rebuilds the sidecars with everything in the sorted region
#: and the tails empty again.  ``None`` disables the tail trigger.
DEFAULT_AUTO_COMPACT_INDEX_TAIL = 128

#: Bits per row in the compaction-built per-shard bloom filter (two
#: probes per digest; ~2.7% theoretical false-positive rate at this
#: sizing, and a false positive just costs the bisect the filter would
#: have skipped).
_BLOOM_BITS_PER_ROW = 8

#: Bloom floor so tiny shards still get a useful filter.
_BLOOM_MIN_BITS = 64

_SEGMENT_RE = re.compile(
    r"^shard-(?P<shard>\d+)\.seg-(?P<seq>\d+)\.(?P<pid>\d+)\.jsonl$"
)

_SHARD_BASE_RE = re.compile(r"^shard-(?P<shard>\d+)\.base\.jsonl$")

#: Atomic-rename staging names embed the writer's pid
#: (see :func:`_atomic_write_text`); ``gc`` parses it back out to spare
#: a *live* writer's staging file regardless of age.
_TMP_PID_RE = re.compile(r"\.(?P<pid>\d+)\.tmp$")

#: Valid ``read_mode`` values for :meth:`RuntimeStore.load_cache_into`.
READ_MODES = ("full", "index")

#: Fixed byte width of one sorted index record:
#: ``digest(16) + " " + file(6) + " " + offset(12) + " " + length(8) +
#: "\n"`` — fixed width is what lets lookups binary-search the sorted
#: region with seeks instead of parsing the whole file.
_IDX_ROW_WIDTH = 46

#: Upper bound on the index header line (a covers list of base +
#: pending segments — compaction keeps it tiny; a header past this is
#: treated as damage, i.e. stale).
_IDX_HEADER_LIMIT = 1 << 20


def _format_idx_row(digest: str, file_idx: int, offset: int,
                    length: int) -> str:
    return f"{digest} {file_idx:06d} {offset:012d} {length:08d}\n"


class _IndexUnusable(Exception):
    """Internal: the index lied or is damaged — fall back to replay."""


class StoreError(ReproError):
    """Raised for unusable store contents in strict mode."""


def cache_fingerprint(proxy_config: ProxyConfig,
                      macro_config: MacroConfig,
                      cost_axes: Sequence[str] = ()) -> Dict:
    """Identity of everything a cached indicator value depends on.

    Cache *keys* already embed per-entry configuration, so entries can
    never alias each other; the fingerprint guards the remaining global
    assumptions — store format, indicator schema and the engine's own
    proxy/macro configs — under which the file was written.

    Precision is folded in on one scheme across both store halves: the
    indicator-cache fingerprint carries the proxy *compute* precision
    (``ProxyConfig.precision``, also inside the encoded proxy tuple), so
    float32 and float64 runs write separate fingerprint-keyed files and
    coexist in one store directory; latency LUTs are keyed by the
    deployment *kernel* precision (``float32``/``int8``) exactly as
    before — the two axes are independent and never mix.

    ``cost_axes`` names any *extra* registered cost models the run
    scores (beyond the built-in indicator schema) so rows never alias
    across objective sets.  Empty (the default) adds no key, so plain
    runs and latency-only objective sets share one fingerprint.
    """
    fingerprint = {
        "format": STORE_FORMAT,
        "indicators": list(INDICATOR_NAMES),
        "precision": proxy_config.precision,
        "proxy": _encode_key(astuple(proxy_config)),
        "macro": _encode_key(astuple(macro_config)),
    }
    if cost_axes:
        fingerprint["costs"] = sorted(cost_axes)
    return fingerprint


def _encode_key(key):
    """Tuples → lists, recursively (JSON has no tuple type)."""
    if isinstance(key, tuple):
        return [_encode_key(part) for part in key]
    return key


def _decode_key(obj):
    """Lists → tuples, recursively (inverse of :func:`_encode_key`)."""
    if isinstance(obj, list):
        return tuple(_decode_key(part) for part in obj)
    return obj


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", text)


def _atomic_write_text(path: Path, text: str) -> None:
    """Write-then-rename so concurrent readers (two runs sharing one
    store directory) never observe a torn file.  The staging name is
    per-process so concurrent writers of the same key cannot interleave
    into one tmp file either — last rename wins, both are whole."""
    tmp_path = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp_path.write_text(text, encoding="utf-8")
    os.replace(tmp_path, path)


@contextlib.contextmanager
def _file_lock(path: Path, shared: bool = False):
    """Advisory lock on a ``.lock`` sidecar of ``path`` (exclusive by
    default; ``shared=True`` takes a read lock).

    Atomic renames alone keep concurrent *readers* safe but let two
    writers race read-merge-write: whoever renames last silently drops
    the other's freshly computed rows.  Serialising writers through
    ``flock`` — per cache shard, per LUT key, per base file — makes
    concurrent saves into one store directory lose nothing; readers take
    the base lock *shared*, so a fleet of warm-starting processes replay
    concurrently while still excluding the compactor's fold-and-unlink.
    Platforms without :mod:`fcntl` degrade to the pre-lock behaviour
    (whole-file atomicity, last writer wins) rather than failing.
    """
    if fcntl is None:  # pragma: no cover - platform dependent
        yield
        return
    lock_path = path.with_name(f"{path.name}.lock")
    with open(lock_path, "w", encoding="utf-8") as handle:
        fcntl.flock(handle, fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def _lut_digest(device_name: str, precision: str, config: MacroConfig) -> str:
    # The raw device name is hashed alongside precision+macro: two names
    # that collapse to one filename slug must still key distinct files.
    material = json.dumps([device_name, precision,
                           _encode_key(astuple(config))])
    return hashlib.sha1(material.encode("utf-8")).hexdigest()[:12]


def _fingerprint_digest(fingerprint: Dict) -> str:
    material = json.dumps(fingerprint, sort_keys=True, default=str)
    return hashlib.sha1(material.encode("utf-8")).hexdigest()[:12]


def _key_material(encoded_key) -> bytes:
    """The canonical bytes both the shard map and the index digest hash —
    one definition, so a key can never index into a shard it does not
    hash to."""
    return json.dumps(encoded_key, sort_keys=True,
                      default=str).encode("utf-8")


def _shard_of(encoded_key, n_shards: int) -> int:
    """Stable shard assignment from the JSON-encoded key (process- and
    run-independent, unlike ``hash()`` under PYTHONHASHSEED)."""
    digest = hashlib.sha1(_key_material(encoded_key)).hexdigest()[:8]
    return int(digest, 16) % n_shards


def _key_digest(encoded_key) -> str:
    """Index digest of one JSON-encoded key (16 hex chars).  Collisions
    are astronomically unlikely, and harmless anyway: indexed reads
    verify the stored key against the requested one and fall back to
    replay on any mismatch."""
    return hashlib.sha1(_key_material(encoded_key)).hexdigest()[:16]


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe; ``EPERM``
    means alive but owned by someone else)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - needs a foreign process
        return True
    except OSError:  # pragma: no cover - platform dependent
        return False
    return True


class RuntimeStore:
    """Directory-backed persistence for indicator caches and latency LUTs.

    ``shards`` sets the bucket count for *new* cache directories (existing
    directories keep the count recorded in their ``meta.json``);
    ``auto_compact_segments`` is the segment-file count past which
    :meth:`save_cache` *considers* folding a directory's segments into
    its base — the fold actually triggers on the byte-amortized rule in
    :meth:`_should_auto_compact` (``None`` disables auto-compaction —
    e.g. for benchmarks isolating append cost — including the
    index-tail trigger below).  ``auto_compact_index_tail`` bounds how
    many tail records any one shard's index may accumulate before a
    save compacts regardless of segment bytes: tail records are the
    O(appends-since-compaction) part of every index-mode lookup, so the
    bound keeps warm-start reads flat under every-gather flushing.
    """

    def __init__(self, root, shards: int = DEFAULT_SHARDS,
                 auto_compact_segments: Optional[int]
                 = DEFAULT_AUTO_COMPACT_SEGMENTS,
                 auto_compact_index_tail: Optional[int]
                 = DEFAULT_AUTO_COMPACT_INDEX_TAIL,
                 telemetry: Optional[Telemetry] = None) -> None:
        if shards < 1:
            raise StoreError("shards must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.shards = shards
        self.auto_compact_segments = auto_compact_segments
        self.auto_compact_index_tail = auto_compact_index_tail
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry.disabled())
        #: Why the last load/get returned nothing (diagnostics/reporting).
        self.last_rejection: Optional[str] = None
        #: How the last :meth:`load_cache_into` call did its reads —
        #: ``{"mode", "requested", "found", "index_hits",
        #: "index_fallback_shards", "index_filtered",
        #: "shards_touched"}`` (``None`` until the first load;
        #: ``requested``/``shards_touched`` are ``None`` for whole-store
        #: loads).  Diagnostics + benchmark surface.
        self.last_load_stats: Optional[Dict] = None

    # ------------------------------------------------------------------
    # Indicator cache — paths and directory plumbing
    # ------------------------------------------------------------------
    def cache_dir(self, fingerprint: Dict) -> Path:
        """Cache directory for this fingerprint.  Directories are
        fingerprint-keyed so runs under different configurations (seed,
        proxy scale, macro, precision) sharing one store coexist instead
        of overwriting each other's warm-start data."""
        return self.root / f"cache2__{_fingerprint_digest(fingerprint)}"

    def _lock_target(self, directory: Path) -> Path:
        # The reader/compactor lock: _file_lock appends ".lock"; the
        # target itself is never created.
        return directory / "base"

    def _shard_base_path(self, directory: Path, shard: int) -> Path:
        return directory / f"shard-{shard:02d}.base.jsonl"

    def _index_path(self, directory: Path, shard: int) -> Path:
        return directory / f"shard-{shard:02d}.idx.json"

    def _meta_path(self, directory: Path) -> Path:
        return directory / "meta.json"

    def _shard_lock_target(self, directory: Path, shard: int) -> Path:
        # _file_lock appends ".lock"; the target itself is never created.
        return directory / f"shard-{shard:02d}"

    def _read_meta(self, directory: Path) -> Optional[Dict]:
        try:
            meta = json.loads(self._meta_path(directory)
                              .read_text(encoding="utf-8"))
        except (ValueError, OSError):
            return None
        return meta if isinstance(meta, dict) else None

    def _ensure_dir(self, fingerprint: Dict) -> Tuple[Path, int]:
        """Create the cache directory + ``meta.json`` if missing; returns
        ``(directory, shard_count)`` (the recorded count wins, so every
        writer agrees on the key→shard map).  A *present but unreadable*
        meta is refused rather than rewritten: silently re-recording a
        shard count would re-hash keys across shards and break the
        per-shard ordering last-write-wins rests on."""
        directory = self.cache_dir(fingerprint)
        directory.mkdir(parents=True, exist_ok=True)
        meta = self._read_meta(directory)
        if meta is None:
            with _file_lock(self._meta_path(directory)):
                meta = self._read_meta(directory)  # raced creation
                if meta is None:
                    if self._meta_path(directory).exists():
                        raise StoreError(
                            f"unreadable store meta: "
                            f"{self._meta_path(directory)} — fix or "
                            "remove the cache directory"
                        )
                    meta = {"format": STORE_FORMAT,
                            "fingerprint": fingerprint,
                            "shards": self.shards}
                    _atomic_write_text(self._meta_path(directory),
                                       json.dumps(meta) + "\n")
        return directory, int(meta.get("shards", self.shards))

    def _segment_files(self, directory: Path,
                       shard: Optional[int] = None) -> List[Path]:
        """Segment files in replay order: ``(shard, sequence, pid)``.
        A key lives in exactly one shard, so cross-shard order is
        irrelevant; within a shard the flock-issued sequence numbers
        order saves, making last-write-wins well defined."""
        found = []
        for path in directory.glob("shard-*.seg-*.jsonl"):
            match = _SEGMENT_RE.match(path.name)
            if match is None:
                continue
            index = int(match.group("shard"))
            if shard is not None and index != shard:
                continue
            found.append((index, int(match.group("seq")),
                          int(match.group("pid")), path))
        return [item[3] for item in sorted(found)]

    def _shard_base_files(self, directory: Path,
                          shard: Optional[int] = None) -> List[Path]:
        """Per-shard compacted base files, in shard order (a key lives in
        exactly one shard, so cross-shard order is irrelevant)."""
        found = []
        for path in directory.glob("shard-*.base.jsonl"):
            match = _SHARD_BASE_RE.match(path.name)
            if match is None:
                continue
            index = int(match.group("shard"))
            if shard is not None and index != shard:
                continue
            found.append((index, path))
        return [item[1] for item in sorted(found)]

    def _next_segment_path(self, directory: Path, shard: int) -> Path:
        """Next sequence number for this shard (call under its lock)."""
        last = 0
        for path in self._segment_files(directory, shard=shard):
            last = max(last, int(_SEGMENT_RE.match(path.name).group("seq")))
        return directory / (f"shard-{shard:02d}.seg-{last + 1:08d}"
                            f".{os.getpid()}.jsonl")

    def _shard_state(self, directory: Path, shard: int) -> List[List]:
        """``[name, bytes]`` of every file holding this shard's rows, in
        replay order (base first, then segments) — the coverage token the
        index's staleness check compares against."""
        state = []
        for path in self._shard_base_files(directory, shard=shard):
            with contextlib.suppress(OSError):
                state.append([path.name, path.stat().st_size])
        for path in self._segment_files(directory, shard=shard):
            with contextlib.suppress(OSError):
                state.append([path.name, path.stat().st_size])
        return state

    def _read_index_state(self, directory: Path,
                          shard: int) -> Optional[Dict]:
        """This shard's index sidecar decoded *without* parsing its
        sorted region: the JSON header line, where the fixed-width
        records start, and the appended tail records merged into one
        dict (later records win).  The sorted region itself is only ever
        touched by :meth:`_bisect_index` seeks, which is what keeps
        lookups O(log shard) instead of O(shard).  ``None`` means
        absent, unreadable, mis-shaped, or torn mid-append — every
        ``None`` reads as "treat as stale"."""
        path = self._index_path(directory, shard)
        try:
            with open(path, "rb") as handle:
                first = handle.readline(_IDX_HEADER_LIMIT)
                if not first.endswith(b"\n"):
                    return None
                try:
                    header = json.loads(first.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    return None
                if (not isinstance(header, dict)
                        or header.get("row") != _IDX_ROW_WIDTH
                        or not isinstance(header.get("sorted"), int)
                        or isinstance(header.get("sorted"), bool)
                        or header["sorted"] < 0
                        or not isinstance(header.get("files"), list)
                        or not isinstance(header.get("covers"), list)):
                    return None
                handle.seek(len(first) + header["sorted"] * _IDX_ROW_WIDTH)
                tail_blob = handle.read()
        except OSError:
            return None
        covers = [list(item) for item in header["covers"]]
        tail: Dict[str, object] = {}
        tail_records = 0
        for line in tail_blob.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                return None  # torn tail from a crashed appender
            if (not isinstance(record, dict)
                    or not isinstance(record.get("e"), dict)
                    or not isinstance(record.get("c"), list)):
                return None
            tail.update(record["e"])
            covers.append(list(record["c"]))
            tail_records += 1
        # Fence and bloom are pure lookup accelerators over the sorted
        # region: validation is lenient — anything mis-shaped reads as
        # "no filter" (None), never as a stale index.
        fence = header.get("fence")
        if not (isinstance(fence, list) and len(fence) == 2
                and all(isinstance(edge, str) for edge in fence)):
            fence = None
        bloom = header.get("bloom")
        if isinstance(bloom, list) and len(bloom) == 2 \
                and isinstance(bloom[0], int) and not isinstance(
                    bloom[0], bool) and bloom[0] > 0 \
                and isinstance(bloom[1], str):
            try:
                bloom = (bloom[0], int(bloom[1], 16))
            except ValueError:
                bloom = None
        else:
            bloom = None
        return {"path": path, "header_len": len(first),
                "sorted": header["sorted"], "files": header["files"],
                "covers": covers, "tail": tail,
                "tail_records": tail_records,
                "fence": fence, "bloom": bloom}

    # ------------------------------------------------------------------
    # Indicator cache — save (O(delta) append)
    # ------------------------------------------------------------------
    def save_cache(self, cache: IndicatorCache, fingerprint: Dict) -> int:
        """Append the cache's dirty rows under ``fingerprint``; returns
        how many rows were appended (the delta — 0 when nothing changed
        since the last load/save).

        Cost is O(rows appended), independent of total store size: each
        touched shard gets one new atomically-renamed segment file,
        numbered under the shard's ``flock``, so concurrent runs sharing
        one store directory each contribute their freshly computed rows
        and none are dropped.  Replay is last-write-wins per key, and the
        determinism contract makes colliding writers bit-identical
        anyway.  A caller without dirty tracking (any mapping exposing
        ``items()``) falls back to appending everything.

        Once the directory accumulates :attr:`auto_compact_segments`
        segment files the save triggers a compaction.  A zero-delta save
        returns without touching the directory at all, so the harness's
        every-gather flush is free on cache-hit-heavy gathers.
        Non-JSON-serialisable values, which the engine never produces,
        are skipped rather than corrupting the store (and stay dirty).

        Note the delta is relative to the last load/save against *any*
        store (dirtiness lives on the cache, not per store root):
        mirroring one cache into several stores needs ``items()``-level
        copying, not repeated ``save_cache`` calls.
        """
        tel = self.telemetry
        if not tel.enabled:
            return self._save_cache_impl(cache, fingerprint)
        with tel.span("store_flush", CAT_STORE) as span:
            appended = self._save_cache_impl(cache, fingerprint)
            span.note(rows=appended)
            tel.count("store.rows_appended", appended)
            tel.count("store.flushes")
            return appended

    def _save_cache_impl(self, cache: IndicatorCache,
                         fingerprint: Dict) -> int:
        rows = list(getattr(cache, "dirty_items", cache.items)())
        if not rows:
            return 0
        directory, n_shards = self._ensure_dir(fingerprint)
        by_shard: Dict[int, List[Tuple[str, str]]] = {}
        appended_keys = []
        for key, value in rows:
            encoded = _encode_key(key)
            try:
                line = json.dumps([encoded, value])
            except (TypeError, ValueError):
                continue
            by_shard.setdefault(_shard_of(encoded, n_shards), []).append(
                (_key_digest(encoded), line))
            appended_keys.append(key)
        max_tail_records = 0
        for shard in sorted(by_shard):
            with _file_lock(self._shard_lock_target(directory, shard)):
                # The shard state *before* this append is what a fresh
                # index must already cover for the append to be able to
                # extend it — captured under the flock, so no other
                # writer can slip a segment in between.
                pre_state = self._shard_state(directory, shard)
                segment_path = self._next_segment_path(directory, shard)
                _atomic_write_text(
                    segment_path,
                    "\n".join(line for _, line in by_shard[shard]) + "\n")
                max_tail_records = max(max_tail_records, self._append_index(
                    directory, shard, segment_path, by_shard[shard],
                    pre_state))
        if hasattr(cache, "mark_clean"):
            cache.mark_clean(appended_keys)
        if self._should_auto_compact(directory,
                                     index_tail_records=max_tail_records):
            self._compact_dir(directory, fingerprint)
        return len(appended_keys)

    def _append_index(self, directory: Path, shard: int,
                      segment_path: Path,
                      rows: List[Tuple[str, str]],
                      pre_state: List[List]) -> int:
        """Extend this shard's index with the rows just appended (call
        under the shard flock, ``pre_state`` captured before the segment
        write), in O(delta): the new rows become one JSON tail record
        *appended* after the sorted region — the sorted region and the
        earlier tail are never rewritten.  A *stale* index — one whose
        merged ``covers`` does not match the pre-append state — is left
        stale for the next compaction to rebuild, never patched:
        patching would claim coverage of shard files this writer never
        read.  A brand-new shard (empty ``pre_state``) starts a fresh
        empty-header index first.  Offsets count bytes; segment lines
        are ASCII (``json.dumps`` default), so ``len(line)`` is exact.
        Returns the shard's tail record count after the append (0 when
        the index was left stale) — the compaction-scheduling signal:
        every lookup merges the tail linearly, so a long tail means the
        index is degrading toward O(appends) reads."""
        index_path = self._index_path(directory, shard)
        state = self._read_index_state(directory, shard)
        tail_records = 0
        if state is None or state["covers"] != pre_state:
            if pre_state:
                return 0  # uncovered pre-existing data: leave stale
            header = {"row": _IDX_ROW_WIDTH, "sorted": 0, "files": [],
                      "covers": []}
            _atomic_write_text(index_path, json.dumps(header) + "\n")
        else:
            tail_records = state["tail_records"]
        entries = {}
        offset = 0
        for digest, line in rows:
            entries[digest] = [segment_path.name, offset, len(line)]
            offset += len(line) + 1  # the "\n" after every line
        try:
            size = segment_path.stat().st_size
        except OSError:  # pragma: no cover - we just wrote it
            return 0
        record = json.dumps({"e": entries,
                             "c": [segment_path.name, size]})
        with open(index_path, "a", encoding="utf-8") as handle:
            handle.write(record + "\n")
        return tail_records + 1

    def _should_auto_compact(self, directory: Path,
                             index_tail_records: int = 0) -> bool:
        """Compact when the segment *bytes* have grown to rival the base
        (a rewrite then costs at most ~2× what appending those rows
        cost — classic log-structured amortization, keeping save cost
        O(delta) amortized even with every-gather flushing), or when the
        file count alone gets excessive (glob/replay overhead), or when
        some shard's index tail has grown past
        :attr:`auto_compact_index_tail` records (every index-mode
        lookup merges the tail linearly, so an unbounded tail would
        quietly turn O(log shard) reads into O(appends) reads — the
        caller reports the longest tail it touched, so the check adds
        no extra shard scans).  A bare file-count trigger would fire
        every ``shards`` saves and rewrite the whole store on the hot
        path."""
        threshold = self.auto_compact_segments
        if threshold is None:
            return False  # auto-compaction disabled entirely
        if (self.auto_compact_index_tail is not None
                and index_tail_records > self.auto_compact_index_tail):
            return True
        segments = self._segment_files(directory)
        if len(segments) <= threshold:
            return False
        if len(segments) > threshold * 16:
            return True
        base_bytes = 0
        for path in self._shard_base_files(directory):
            with contextlib.suppress(OSError):
                base_bytes += path.stat().st_size
        if base_bytes == 0:
            return True  # no base yet: first fold is cheap by definition
        segment_bytes = 0
        for segment in segments:
            with contextlib.suppress(OSError):
                segment_bytes += segment.stat().st_size
        return segment_bytes >= base_bytes

    # ------------------------------------------------------------------
    # Indicator cache — load (replay with last-write-wins)
    # ------------------------------------------------------------------
    def load_cache_into(self, cache: IndicatorCache, fingerprint: Dict,
                        strict: bool = False,
                        keys: Optional[Iterable] = None,
                        read_mode: str = "full") -> int:
        """Merge persisted entries into ``cache``; returns how many landed.

        With ``keys=None`` (the default) the whole store replays:
        per-shard ``.base.jsonl`` files, then every segment in order
        (last write wins per key).  With ``keys=`` an iterable of cache
        keys, only those keys are merged, and ``read_mode`` picks the
        I/O strategy — ``"full"`` (replay everything, filter) or
        ``"index"`` (point lookups through the per-shard index sidecars,
        falling back to replaying any shard whose index is stale or
        missing).  Both are bit-identical in what they merge; they
        differ only in read cost (see the module docstring).
        ``last_load_stats`` records how the load went.

        A missing store, an unreadable ``meta.json`` or a fingerprint
        mismatch is reported in ``last_rejection``;
        with ``strict=True`` a *present but rejected* file raises
        :class:`StoreError` instead, so CI can distinguish "cold" from
        "poisoned".  Entries already in the cache keep their in-memory
        value; loaded rows are marked clean, so the next
        :meth:`save_cache` does not re-append them.
        """
        if read_mode not in READ_MODES:
            raise StoreError(f"unknown read_mode {read_mode!r}: expected "
                             f"one of {READ_MODES}")
        tel = self.telemetry
        if not tel.enabled:
            return self._load_any_impl(cache, fingerprint, strict, keys,
                                       read_mode)
        with tel.span("store_load", CAT_STORE) as span:
            loaded = self._load_any_impl(cache, fingerprint, strict, keys,
                                         read_mode)
            stats = self.last_load_stats or {}
            span.note(rows=loaded, mode=stats.get("mode", read_mode),
                      index_hits=stats.get("index_hits", 0))
            tel.count("store.index_hits", stats.get("index_hits", 0))
            tel.count("store.index_fallbacks",
                      stats.get("index_fallback_shards", 0))
            tel.count("store.index_filtered",
                      stats.get("index_filtered", 0))
            return loaded

    def _load_any_impl(self, cache: IndicatorCache, fingerprint: Dict,
                       strict: bool, keys: Optional[Iterable],
                       read_mode: str) -> int:
        if keys is None:
            return self._load_cache_impl(cache, fingerprint, strict)
        requested = list(dict.fromkeys(keys))  # dedupe, keep order
        if read_mode == "full":
            return self._load_cache_impl(cache, fingerprint, strict,
                                         requested=requested)
        return self._load_indexed_impl(cache, fingerprint, strict,
                                       requested)

    def _load_cache_impl(self, cache: IndicatorCache, fingerprint: Dict,
                         strict: bool,
                         requested: Optional[List] = None) -> int:
        self.last_rejection = None
        stats = {"mode": "full",
                 "requested": (len(requested) if requested is not None
                               else None),
                 "found": 0, "index_hits": 0, "index_fallback_shards": 0,
                 "index_filtered": 0, "shards_touched": None}
        self.last_load_stats = stats
        directory = self.cache_dir(fingerprint)
        if not directory.exists():
            self.last_rejection = "no persisted cache"
            return 0
        problems: List[str] = []
        # Under the base lock, *shared*: concurrent warm-starting readers
        # replay side by side, while the compactor (which holds it
        # exclusively across fold-and-unlink) cannot swap the bases and
        # delete segments between our base read and segment glob — the
        # reader half of the "racing a compaction loses nothing"
        # guarantee.
        with _file_lock(self._lock_target(directory), shared=True):
            entries = self._replay(directory, fingerprint, problems)
        if requested is not None:
            entries = {key: entries[key] for key in requested
                       if key in entries}
        stats["found"] = len(entries)
        return self._finish_load(cache, entries, problems, strict)

    def _load_indexed_impl(self, cache: IndicatorCache, fingerprint: Dict,
                           strict: bool, requested: List) -> int:
        """The ``keys=`` fast path: touch only the index slots of the
        shards the requested keys hash to."""
        self.last_rejection = None
        stats = {"mode": "index", "requested": len(requested),
                 "found": 0, "index_hits": 0, "index_fallback_shards": 0,
                 "index_filtered": 0, "shards_touched": 0}
        self.last_load_stats = stats
        directory = self.cache_dir(fingerprint)
        if not directory.exists():
            self.last_rejection = "no persisted cache"
            return 0
        entries: Dict[Tuple, object] = {}
        problems: List[str] = []
        meta = self._read_meta(directory)
        if meta is None:
            # Damaged meta: the key→shard map is unknowable, so degrade
            # to a full replay filtered to the requested keys — still
            # correct, just O(store) for this load.
            stats["shards_touched"] = None
            with _file_lock(self._lock_target(directory), shared=True):
                replayed = self._replay(directory, fingerprint, problems)
            entries = {key: replayed[key] for key in requested
                       if key in replayed}
        elif "fingerprint" in meta and meta["fingerprint"] != fingerprint:
            problems.append(
                "fingerprint mismatch: persisted cache was written under "
                "a different proxy/macro configuration or store format"
            )
        else:
            n_shards = int(meta.get("shards", self.shards))
            by_shard: Dict[int, List[Tuple]] = {}
            for key in requested:
                encoded = _encode_key(key)
                by_shard.setdefault(_shard_of(encoded, n_shards),
                                    []).append((key, encoded))
            stats["shards_touched"] = len(by_shard)
            with _file_lock(self._lock_target(directory), shared=True):
                for shard in sorted(by_shard):
                    entries.update(self._load_shard_keys(
                        directory, shard, by_shard[shard], stats))
        stats["found"] = len(entries)
        return self._finish_load(cache, entries, problems, strict)

    def _load_shard_keys(self, directory: Path, shard: int,
                         pairs: List[Tuple],
                         stats: Dict) -> Dict[Tuple, object]:
        """Rows for the requested ``(key, encoded)`` pairs of one shard
        (call under the shared base lock).  The index sidecar answers
        first; a stale/missing/lying index falls back to replaying the
        whole shard, so the result never depends on index health."""
        rows = self._index_lookup(directory, shard, pairs, stats)
        if rows is not None:
            return rows
        stats["index_fallback_shards"] += 1
        replayed = self._replay_shard(directory, shard)
        return {key: replayed[key] for key, _ in pairs if key in replayed}

    def _index_lookup(self, directory: Path, shard: int,
                      pairs: List[Tuple],
                      stats: Dict) -> Optional[Dict[Tuple, object]]:
        """Point lookups through one shard's index, or ``None`` when the
        index cannot be trusted (absent, mis-shaped, ``covers`` out of
        date, or a slice that fails to parse back to the requested key).
        A trusted index is authoritative: a digest in neither the tail
        records nor the sorted region is a miss, served without reading
        any row data.  Cost is O(keys · log shard): tail probes are a
        dict lookup, the sorted region is binary-searched with seeks —
        it is never parsed wholesale, so warm-start latency stays flat
        as the store grows.  When the header carries a compaction-built
        fence/bloom filter, misses it can prove (digest outside the
        sorted region's range, or bloom bits unset) skip the bisect
        entirely — counted in ``stats["index_filtered"]``."""
        state = self._read_index_state(directory, shard)
        if (state is None
                or state["covers"] != self._shard_state(directory, shard)):
            return None
        rows: Dict[Tuple, object] = {}
        hits = 0
        handles = {}
        try:
            with open(state["path"], "rb") as index_handle:
                for key, encoded in pairs:
                    digest = _key_digest(encoded)
                    slot = state["tail"].get(digest)
                    if slot is None and state["sorted"]:
                        if self._index_filtered(state, digest):
                            # The filter proves the sorted region does
                            # not hold this digest: authoritative miss
                            # with zero seeks.
                            stats["index_filtered"] += 1
                            continue
                        slot = self._bisect_index(index_handle, state,
                                                  digest)
                    if slot is None:
                        continue  # authoritative miss
                    if not (isinstance(slot, list) and len(slot) == 3):
                        return None
                    name, offset, length = slot
                    handle = handles.get(name)
                    if handle is None:
                        try:
                            handle = open(directory / name, "rb")
                        except (OSError, TypeError):
                            return None
                        handles[name] = handle
                    try:
                        handle.seek(offset)
                        blob = handle.read(length)
                    except (OSError, ValueError, TypeError):
                        return None
                    try:
                        record = json.loads(blob.decode("utf-8"))
                    except (ValueError, UnicodeDecodeError):
                        return None
                    if (not isinstance(record, list) or len(record) != 2
                            or _decode_key(record[0]) != key):
                        return None  # digest collision or corrupt slot
                    rows[key] = record[1]
                    hits += 1
        except (OSError, _IndexUnusable):
            return None
        finally:
            for handle in handles.values():
                handle.close()
        stats["index_hits"] += hits
        return rows

    @staticmethod
    def _index_filtered(state: Dict, digest: str) -> bool:
        """Can the fence/bloom prove ``digest`` is not in the sorted
        region?  False negatives are impossible by construction (the
        filters are built from exactly the sorted digests at compaction)
        — so ``True`` is always safe to serve as a miss; ``False`` just
        means "bisect to find out"."""
        fence = state.get("fence")
        if fence is not None and not fence[0] <= digest <= fence[1]:
            return True
        bloom = state.get("bloom")
        if bloom is not None:
            m_bits, bits = bloom
            if not (bits >> (int(digest[:8], 16) % m_bits)) & 1:
                return True
            if not (bits >> (int(digest[8:16], 16) % m_bits)) & 1:
                return True
        return False

    def _bisect_index(self, handle, state: Dict,
                      digest: str) -> Optional[List]:
        """Binary-search the sorted fixed-width region for ``digest``
        via seeks — O(log rows) reads of one record each, never a full
        parse.  A record that does not decode as expected means the
        sidecar is damaged: raises :class:`_IndexUnusable` so the
        caller falls back to shard replay."""
        lo, hi = 0, state["sorted"]
        base = state["header_len"]
        files = state["files"]
        while lo < hi:
            mid = (lo + hi) // 2
            handle.seek(base + mid * _IDX_ROW_WIDTH)
            row = handle.read(_IDX_ROW_WIDTH)
            if len(row) != _IDX_ROW_WIDTH:
                raise _IndexUnusable(f"short index record at slot {mid}")
            row_digest = row[:16].decode("ascii", "replace")
            if row_digest == digest:
                try:
                    file_idx = int(row[17:23])
                    offset = int(row[24:36])
                    length = int(row[37:45])
                except ValueError:
                    raise _IndexUnusable(
                        f"unparseable index record at slot {mid}")
                if not 0 <= file_idx < len(files):
                    raise _IndexUnusable(
                        f"file ordinal {file_idx} out of range")
                return [files[file_idx], offset, length]
            if row_digest < digest:
                lo = mid + 1
            else:
                hi = mid
        return None

    def _finish_load(self, cache: IndicatorCache,
                     entries: Dict[Tuple, object], problems: List[str],
                     strict: bool) -> int:
        if problems:
            self.last_rejection = "; ".join(problems)
            if strict:
                raise StoreError(self.last_rejection)
        merged_keys = []
        for key, value in entries.items():
            if key not in cache:
                cache.put(key, value)
                merged_keys.append(key)
        if hasattr(cache, "mark_clean"):
            cache.mark_clean(merged_keys)
        return len(merged_keys)

    def _read_jsonl_rows(self, path: Path,
                         entries: Dict[Tuple, object]) -> None:
        """Merge one JSONL file's rows into ``entries`` (later lines
        win), tolerating a torn tail or malformed lines — a writer crash
        must not poison its shard."""
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return  # compacted away between glob and read
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn tail from a crashed writer
            if isinstance(record, list) and len(record) == 2:
                entries[_decode_key(record[0])] = record[1]

    def _replay(self, directory: Path, fingerprint: Dict,
                problems: List[str]) -> Dict[Tuple, object]:
        """Per-shard bases, then segments, later writes winning; torn
        lines are skipped (readable rows still load), and an unreadable
        ``meta.json`` is reported into ``problems``.  Callers racing a
        compactor must hold the base lock (``load_cache_into`` does;
        ``_compact_dir`` already holds it), or the base-swap-then-unlink
        sequence could hide segment-only rows from them."""
        meta = self._read_meta(directory)
        if meta is None and self._meta_path(directory).exists():
            problems.append(f"unreadable store meta: "
                            f"{self._meta_path(directory)}")
        if (isinstance(meta, dict) and "fingerprint" in meta
                and meta["fingerprint"] != fingerprint):
            problems.append(
                "fingerprint mismatch: persisted cache was written under a "
                "different proxy/macro configuration or store format"
            )
            return {}
        entries: Dict[Tuple, object] = {}
        for path in self._shard_base_files(directory):
            self._read_jsonl_rows(path, entries)
        for segment in self._segment_files(directory):
            self._read_jsonl_rows(segment, entries)
        return entries

    def _replay_shard(self, directory: Path,
                      shard: int) -> Dict[Tuple, object]:
        """One shard's base + segments, later writes winning (call under
        the shared base lock)."""
        entries: Dict[Tuple, object] = {}
        for path in self._shard_base_files(directory, shard=shard):
            self._read_jsonl_rows(path, entries)
        for segment in self._segment_files(directory, shard=shard):
            self._read_jsonl_rows(segment, entries)
        return entries

    # ------------------------------------------------------------------
    # Indicator cache — compaction and maintenance
    # ------------------------------------------------------------------
    def compact_cache(self, fingerprint: Dict) -> Dict:
        """Fold this fingerprint's segments into per-shard
        ``.base.jsonl`` files with freshly rebuilt ``.idx.json``
        sidecars; returns ``{"segments_folded", "entries"}``.
        Idempotent: with no segments pending the bases are rewritten
        unchanged.  Also sweeps stale staging files."""
        directory, _ = self._ensure_dir(fingerprint)
        return self._compact_dir(directory, fingerprint)

    def _compact_dir(self, directory: Path, fingerprint: Dict) -> Dict:
        """Segments → per-shard bases under the base lock plus *every*
        shard lock (base first, shards in index order — appenders only
        ever hold a single shard lock, so the ordering cannot deadlock).
        Holding the shard locks across read-fold-unlink is what
        guarantees no append lands between reading a segment and
        deleting it.  The lock span covers the recorded shard count
        *and* every shard index actually present in segment/base
        filenames, so a damaged/missing meta can never leave a live
        appender's shard unlocked while its segments are swept.  Each
        surviving shard gets its index rebuilt atomically alongside its
        base."""
        tel = self.telemetry
        with tel.span("compaction", CAT_STORE) as span:
            meta = self._read_meta(directory)
            n_shards = (int(meta.get("shards", self.shards))
                        if isinstance(meta, dict) else self.shards)
            for path in directory.glob("shard-*.*.jsonl"):
                match = (_SEGMENT_RE.match(path.name)
                         or _SHARD_BASE_RE.match(path.name))
                if match is not None:
                    n_shards = max(n_shards, int(match.group("shard")) + 1)
            with contextlib.ExitStack() as stack:
                stack.enter_context(_file_lock(self._lock_target(directory)))
                for shard in range(n_shards):
                    stack.enter_context(
                        _file_lock(self._shard_lock_target(directory, shard))
                    )
                segments = self._segment_files(directory)
                problems: List[str] = []
                entries = self._replay(directory, fingerprint, problems)
                by_shard: Dict[int, List[Tuple[str, str]]] = {}
                for key, value in sorted(entries.items(),
                                         key=lambda kv: repr(kv[0])):
                    encoded = _encode_key(key)
                    try:
                        line = json.dumps([encoded, value])
                    except (TypeError, ValueError):
                        continue
                    by_shard.setdefault(_shard_of(encoded, n_shards),
                                        []).append(
                        (_key_digest(encoded), line))
                for shard in range(n_shards):
                    self._write_shard_base(directory, shard,
                                           by_shard.get(shard, []))
                for segment in segments:
                    with contextlib.suppress(OSError):
                        segment.unlink()
            self._sweep_sidecars(directory)
            span.note(segments_folded=len(segments), entries=len(entries))
            tel.count("store.compactions")
        return {"segments_folded": len(segments), "entries": len(entries)}

    def _write_shard_base(self, directory: Path, shard: int,
                          rows: List[Tuple[str, str]]) -> None:
        """One shard's compacted base + rebuilt index (call under the
        compaction locks).  An empty shard loses both files — absence is
        the compact representation, and a fresh index over zero files
        would be pointless."""
        base_path = self._shard_base_path(directory, shard)
        index_path = self._index_path(directory, shard)
        if not rows:
            with contextlib.suppress(OSError):
                base_path.unlink()
            with contextlib.suppress(OSError):
                index_path.unlink()
            return
        text = "\n".join(line for _, line in rows) + "\n"
        _atomic_write_text(base_path, text)
        records = []
        offset = 0
        for digest, line in rows:
            records.append((digest, offset, len(line)))
            offset += len(line) + 1
        records.sort()
        body = [_format_idx_row(digest, 0, start, length)
                for digest, start, length in records]
        if any(len(row) != _IDX_ROW_WIDTH for row in body):
            # A pathological offset/length overflowed the fixed width:
            # no index beats a lying one (absence just means replay).
            with contextlib.suppress(OSError):
                index_path.unlink()
            return
        # Fence + bloom over the sorted region: index-mode misses that
        # fall outside the digest range, or whose bloom bits are unset,
        # skip the bisect entirely (miss-heavy cold populations against
        # huge shards pay O(1) per miss instead of O(log shard) seeks).
        # Tail appends are not covered — readers probe the tail dict
        # before consulting the filter, so correctness never depends on
        # it.  Filters only exist compaction-fresh; an append-created
        # index has no sorted region to guard anyway.
        digests = [digest for digest, _, _ in records]
        m_bits = max(_BLOOM_MIN_BITS, _BLOOM_BITS_PER_ROW * len(digests))
        bits = 0
        for digest in digests:
            bits |= 1 << (int(digest[:8], 16) % m_bits)
            bits |= 1 << (int(digest[8:16], 16) % m_bits)
        header = {"row": _IDX_ROW_WIDTH, "sorted": len(body),
                  "files": [base_path.name],
                  "covers": [[base_path.name, len(text)]],
                  "fence": [digests[0], digests[-1]],
                  "bloom": [m_bits, format(bits, "x")]}
        _atomic_write_text(index_path,
                           json.dumps(header) + "\n" + "".join(body))

    def compact_all(self) -> List[Dict]:
        """Compact every indicator cache in the store; returns one stats
        dict per cache.  Every cache directory — keyed by its
        ``meta.json`` fingerprint — has its segments folded."""
        results = []
        for directory in sorted(self.root.glob("cache2__*")):
            meta = self._read_meta(directory)
            if not isinstance(meta, dict) or "fingerprint" not in meta:
                continue
            stats = self._compact_dir(directory, meta["fingerprint"])
            stats["digest"] = directory.name.split("__", 1)[1]
            results.append(stats)
        return results

    def gc(self, max_age_seconds: float = 3600.0) -> Dict:
        """Sweep stale ``.tmp`` staging files and ``.lock`` sidecars.

        Crashed writers leave both behind forever (atomic-rename staging
        files are normally renamed away; lock sidecars are recreated per
        use, so their mtime tracks last use).  Age alone is not proof of
        death, so liveness is consulted too: a ``.tmp`` whose embedded
        writer pid is still alive survives any age (a paused/slow writer
        mid-rename must not have its staging file pulled out from under
        it), and a lock is only unlinked while this process *holds* it
        (see :meth:`_unlink_free_lock` — a live holder's flock makes the
        acquire fail).  Returns removal counts per kind.
        """
        return self._sweep(self.root.rglob("*"), ("tmp", "lock"),
                           time.time() - max_age_seconds)

    def _sweep_sidecars(self, directory: Path,
                        max_age_seconds: float = 3600.0) -> int:
        """Compaction's narrower sweep: stale staging files only, in one
        cache directory (locks there are in active use by definition)."""
        return self._sweep(directory.glob("*"), ("tmp",),
                           time.time() - max_age_seconds)["tmp"]

    def _sweep(self, paths: Iterable[Path], kinds: Tuple[str, ...],
               cutoff: float) -> Dict:
        removed = {kind: 0 for kind in kinds}
        for path in paths:
            kind = next((k for k in kinds
                         if path.name.endswith(f".{k}")), None)
            if kind is None:
                continue
            try:
                if path.stat().st_mtime > cutoff:
                    continue
                if kind == "lock":
                    removed[kind] += self._unlink_free_lock(path, cutoff)
                else:
                    match = _TMP_PID_RE.search(path.name)
                    if (match is not None
                            and _pid_alive(int(match.group("pid")))):
                        continue  # live writer mid-rename: not stale
                    path.unlink()
                    removed[kind] += 1
            except OSError:  # vanished mid-sweep
                continue
        return removed

    def _unlink_free_lock(self, path: Path, cutoff: float) -> int:
        """Unlink a lock sidecar only while *holding* it (non-blocking
        acquire, mtime re-checked under the lock), so an active holder's
        lock is never pulled out from under it.  A waiter already
        blocked on the old inode could in principle still split-brain
        with a later writer, but waiting implies recent use, which the
        mtime cutoff already filters out.  Platforms without
        :mod:`fcntl` cannot make that check and skip lock sweeping."""
        if fcntl is None:  # pragma: no cover - platform dependent
            return 0
        try:
            with open(path, "r+", encoding="utf-8") as handle:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
                try:
                    if path.stat().st_mtime > cutoff:
                        return 0
                    path.unlink()
                    return 1
                finally:
                    fcntl.flock(handle, fcntl.LOCK_UN)
        except OSError:  # held elsewhere, or vanished mid-check
            return 0

    # ------------------------------------------------------------------
    # Quarantine ledger (fault tolerance)
    # ------------------------------------------------------------------
    def quarantine_path(self, fingerprint: Dict) -> Path:
        """Where this fingerprint's quarantine ledger lives.

        It sits inside the cache directory: quarantine is a
        property of the candidate *under this configuration* (a genotype
        poisoning the float32 proxies may be fine under float64), and it
        shares the directory's lifecycle (``gc`` of the cache dir drops
        its quarantine decisions with it).
        """
        return self.cache_dir(fingerprint) / "quarantine.jsonl"

    def quarantine_ledger(self, fingerprint: Dict):
        """The shared :class:`~repro.runtime.faults.QuarantineLedger` for
        this fingerprint (creating the cache directory if needed, so the
        ledger can be written before the first indicator row lands)."""
        from repro.runtime.faults import QuarantineLedger

        self._ensure_dir(fingerprint)
        return QuarantineLedger(self.quarantine_path(fingerprint))

    def quarantine_entries(self) -> List[Dict]:
        """Every quarantine entry across all cache directories, with the
        owning digest attached (the ``micronas store quarantine`` view)."""
        from repro.runtime.faults import QuarantineLedger

        entries = []
        for path in sorted(self.root.glob("cache2__*/quarantine.jsonl")):
            digest = path.parent.name.split("__", 1)[1]
            for entry in QuarantineLedger(path).entries():
                entry["digest"] = digest
                entries.append(entry)
        return entries

    def cache_inventory(self) -> List[Dict]:
        """One summary dict per persisted indicator cache (cache
        directories of every store format, and format-1 files, which
        are listed but never read)."""
        inventory = []
        for directory in sorted(self.root.glob("cache2__*")):
            meta = self._read_meta(directory) or {}  # damaged: still listed
            fingerprint = meta.get("fingerprint")
            if not isinstance(fingerprint, dict):
                fingerprint = {}
            base_rows: Dict[Tuple, object] = {}
            for path in self._shard_base_files(directory):
                self._read_jsonl_rows(path, base_rows)
            segments = self._segment_files(directory)
            size = 0
            for path in directory.glob("*"):
                # Tolerate files a concurrent compaction/gc removes
                # between glob and stat — this is the diagnostic
                # surface; it must never traceback on a live store.
                with contextlib.suppress(OSError):
                    if path.is_file():
                        size += path.stat().st_size
            quarantined = 0
            quarantine = directory / "quarantine.jsonl"
            if quarantine.exists():
                from repro.runtime.faults import QuarantineLedger

                quarantined = len(QuarantineLedger(quarantine))
            inventory.append({
                "digest": directory.name.split("__", 1)[1],
                "format": fingerprint.get("format"),
                "precision": fingerprint.get("precision"),
                "shards": meta.get("shards"),
                "base_rows": len(base_rows),
                "segments": len(segments),
                "quarantined": quarantined,
                "bytes": size,
            })
        for path in sorted(self.root.glob("indicator_cache__*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (ValueError, OSError):
                payload = {}
            if not isinstance(payload, dict):  # damaged: still listed
                payload = {}
            fingerprint = payload.get("fingerprint")
            if not isinstance(fingerprint, dict):
                fingerprint = {}
            entries = payload.get("entries")
            size = 0
            with contextlib.suppress(OSError):  # removed mid-listing
                size = path.stat().st_size
            inventory.append({
                "digest": path.stem.split("__", 1)[1],
                "format": fingerprint.get("format", 1),
                "precision": fingerprint.get("precision"),
                "shards": None,
                "base_rows": len(entries) if isinstance(entries, list)
                             else 0,
                "segments": 0,
                "quarantined": 0,
                "bytes": size,
            })
        return inventory

    # ------------------------------------------------------------------
    # Device-keyed latency LUT store
    # ------------------------------------------------------------------
    def _lut_paths(self, device_name: str, precision: str,
                   config: MacroConfig) -> Tuple[Path, Path]:
        digest = _lut_digest(device_name, precision, config)
        stem = f"lut__{_slug(device_name)}__{digest}"
        return self.root / f"{stem}.json", self.root / f"{stem}.meta.json"

    def _lut_meta(self, device_name: str, precision: str,
                  config: MacroConfig) -> Dict:
        return {
            "format": STORE_FORMAT,
            "device": device_name,
            "precision": precision,
            "macro": _encode_key(astuple(config)),
        }

    def lut_put(self, lut: LatencyLUT, precision: str,
                config: MacroConfig) -> Path:
        """Persist a profiled LUT under its ``(device, precision, macro)``
        key; the LUT payload itself is plain ``LatencyLUT.save_json``
        output, interoperable with every other consumer.  The write holds
        the key's ``flock`` (the same discipline ``save_cache`` uses), so
        two processes profiling the same board serialise instead of
        racing payload against sidecar."""
        lut_path, meta_path = self._lut_paths(lut.device_name, precision,
                                              config)
        with _file_lock(lut_path):
            tmp_path = lut_path.with_name(
                f"{lut_path.name}.{os.getpid()}.tmp"
            )
            lut.save_json(str(tmp_path))
            os.replace(tmp_path, lut_path)
            _atomic_write_text(
                meta_path,
                json.dumps(self._lut_meta(lut.device_name, precision,
                                          config), indent=2) + "\n",
            )
        return lut_path

    def lut_get(self, device_name: str, precision: str,
                config: MacroConfig) -> Optional[LatencyLUT]:
        """The persisted LUT for this exact key, or ``None``.

        Both the sidecar metadata and the payload's own ``device_name``
        must match the request — a file copied between device directories
        or written under a different macro config is rejected, never
        silently served.
        """
        self.last_rejection = None
        lut_path, meta_path = self._lut_paths(device_name, precision, config)
        if not (lut_path.exists() and meta_path.exists()):
            self.last_rejection = f"no persisted LUT for {device_name!r}"
            return None
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            lut = LatencyLUT.load_json(str(lut_path))
        except (ValueError, OSError, KeyError) as exc:
            self.last_rejection = f"unreadable LUT file: {exc}"
            return None
        expected = self._lut_meta(device_name, precision, config)
        if meta != expected or lut.device_name != device_name:
            self.last_rejection = (
                f"LUT fingerprint mismatch for {device_name!r}: persisted "
                "under a different device/precision/macro configuration"
            )
            return None
        return lut

    def lut_keys(self) -> List[Dict]:
        """Metadata of every persisted LUT (device-keyed inventory)."""
        keys = []
        for meta_path in sorted(self.root.glob("lut__*.meta.json")):
            try:
                keys.append(json.loads(meta_path.read_text(encoding="utf-8")))
            except (ValueError, OSError):
                continue
        return keys


__all__ = [
    "RuntimeStore",
    "StoreError",
    "cache_fingerprint",
    "STORE_FORMAT",
    "DEFAULT_SHARDS",
    "DEFAULT_AUTO_COMPACT_SEGMENTS",
    "READ_MODES",
]
