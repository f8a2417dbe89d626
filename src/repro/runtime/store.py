"""Persistent store for indicator caches and device latency LUTs.

Board profiling and proxy evaluation are the two costs every run pays
again from scratch: the in-memory
:class:`~repro.engine.cache.IndicatorCache` dies with the process and each
device re-profiles its LUT.  :class:`RuntimeStore` is a directory-backed
store that makes both survive:

* **Indicator cache — one append-only segment log over a compacted
  base.**  Each fingerprint (see :func:`cache_fingerprint`) owns one
  directory::

      cache2__<digest>/
          meta.json                  # the fingerprint
          base.jsonl                 # compacted rows
          seg-00000002.4711.jsonl    # one append per save
          base.lock                  # reader/compactor lock
          append.lock                # numbers the segments

  ``save_cache`` appends only the cache's **dirty rows** (those written
  since the last load/save — :meth:`~repro.engine.cache.IndicatorCache.
  dirty_items`) as one new atomically-renamed JSONL segment per save,
  numbered under the directory's append ``flock``.  Persistence cost is
  therefore O(rows this run computed), independent of how large the
  store already is — the property processes sharing one store
  directory need.  A **compaction** pass
  (:meth:`RuntimeStore.compact_cache`, the ``micronas store compact`` CLI,
  or automatically once accumulated segments rival the base in bytes,
  past an :attr:`RuntimeStore.auto_compact_segments` file-count floor —
  log-structured amortization) folds everything into ``base.jsonl``
  under the base and append locks; loads replay under the base lock
  too, so readers and concurrent appenders racing a compaction lose
  nothing.

  **One read path.**  :meth:`RuntimeStore.load_cache_into` replays
  ``base.jsonl``, then every segment in ``(sequence, pid)`` order,
  **last write wins** per key.  The store only caches rows the
  NAS-Bench-201 search can produce — about 76k at most per fingerprint
  (every canonical cell's trainless rows plus the cost rows of a
  two-board matrix), which replays in well under a second — so there is
  no index and no partial read.

  Cache keys are plain nested tuples of strings and integers (the key
  contract in :mod:`repro.engine`), round-tripped through JSON with a
  recursive list↔tuple conversion; values may be ``inf``/``nan``.  The
  fingerprint guards the global assumptions (store format, indicator
  schema, proxy/macro config, proxy compute precision) — a mismatched
  directory loads nothing, so stale entries can never poison results, and
  float32/float64 runs keep separate directories.  The store is a cache:
  files an older store format wrote (the format-1 monolithic
  ``indicator_cache__*.json``, format-2 and format-3 directories) are
  never read — they key other fingerprint digests, so a run against them
  starts cold and recomputes bit-identical rows.

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
from repro.searchspace.specs import MacroConfig

#: Bump when the meaning of cached values or the on-disk layout changes;
#: old store files then self-invalidate: they read as misses and
#: recompute bit-identically.  Format 2: append-only indicator segments
#: in key-hashed buckets + device-name-keyed LUT digests.  Format 3: the
#: same layout without the monolithic ``base.json`` replay layer.
#: Format 4: one segment log and one ``base.jsonl`` per directory.
STORE_FORMAT = 4

#: Segment-count floor for auto-compaction: past this many files the
#: store considers folding, but only actually rewrites the base once the
#: accumulated segment bytes rival it (or the count is 16× the floor) —
#: log-structured amortization that keeps every-gather flushing O(delta)
#: amortized instead of rewriting the whole store every few saves.
DEFAULT_AUTO_COMPACT_SEGMENTS = 64

_SEGMENT_RE = re.compile(r"^seg-(?P<seq>\d+)\.(?P<pid>\d+)\.jsonl$")

#: Atomic-rename staging names embed the writer's pid
#: (see :func:`_atomic_write_text`); ``gc`` parses it back out to spare
#: a *live* writer's staging file regardless of age.
_TMP_PID_RE = re.compile(r"\.(?P<pid>\d+)\.tmp$")

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
    """Lists → tuples, recursively (inverse of :func:`_encode_key`).

    Recurses into nested lists only: scalars, most of a key, are copied
    as they are (replaying a store decodes every row's key).
    """
    if isinstance(obj, list):
        return tuple([_decode_key(part) if isinstance(part, list) else part
                      for part in obj])
    return obj


def _encode_rows(rows) -> Tuple[str, List]:
    """JSONL text for ``(key, value)`` rows, plus the keys it holds;
    rows whose value JSON cannot encode are skipped."""
    lines, keys = [], []
    for key, value in rows:
        try:
            lines.append(json.dumps([_encode_key(key), value]) + "\n")
        except (TypeError, ValueError):
            continue
        keys.append(key)
    return "".join(lines), keys


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
    ``flock`` — one append lock per cache directory, one lock per LUT
    key — makes concurrent saves into one store directory lose nothing;
    readers take the directory's base lock *shared*, so several
    warm-starting processes replay concurrently while still excluding
    the compactor's fold-and-unlink.
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

    ``auto_compact_segments`` is the segment-file count past which
    :meth:`save_cache` *considers* folding a directory's segments into
    its base — the fold actually triggers on the byte-amortized rule in
    :meth:`_should_auto_compact` (``None`` disables auto-compaction —
    e.g. for benchmarks isolating append cost).
    """

    def __init__(self, root,
                 auto_compact_segments: Optional[int]
                 = DEFAULT_AUTO_COMPACT_SEGMENTS,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.auto_compact_segments = auto_compact_segments
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry.disabled())
        #: Why the last load/get returned nothing (diagnostics/reporting).
        self.last_rejection: Optional[str] = None

    # ------------------------------------------------------------------
    # Indicator cache — paths and directory plumbing
    # ------------------------------------------------------------------
    def cache_dir(self, fingerprint: Dict) -> Path:
        """Cache directory for this fingerprint.  Directories are
        fingerprint-keyed so runs under different configurations (seed,
        proxy scale, macro, precision) sharing one store coexist instead
        of overwriting each other's warm-start data."""
        return self.root / f"cache2__{_fingerprint_digest(fingerprint)}"

    def _base_path(self, directory: Path) -> Path:
        return directory / "base.jsonl"

    def _meta_path(self, directory: Path) -> Path:
        return directory / "meta.json"

    def _read_meta(self, directory: Path) -> Optional[Dict]:
        try:
            meta = json.loads(self._meta_path(directory)
                              .read_text(encoding="utf-8"))
        except (ValueError, OSError):
            return None
        return meta if isinstance(meta, dict) else None

    def _ensure_dir(self, fingerprint: Dict) -> Path:
        """Create the cache directory + ``meta.json`` if missing.  A
        *present but unreadable* meta is refused rather than rewritten:
        it is the only record of which fingerprint wrote the rows there,
        and silently re-recording it would vouch for rows the fingerprint
        check never saw."""
        directory = self.cache_dir(fingerprint)
        directory.mkdir(parents=True, exist_ok=True)
        if self._read_meta(directory) is None:
            with _file_lock(self._meta_path(directory)):
                if self._read_meta(directory) is None:  # raced creation
                    if self._meta_path(directory).exists():
                        raise StoreError(
                            f"unreadable store meta: "
                            f"{self._meta_path(directory)} — fix or "
                            "remove the cache directory"
                        )
                    _atomic_write_text(
                        self._meta_path(directory),
                        json.dumps({"fingerprint": fingerprint}) + "\n")
        return directory

    def _segment_files(self, directory: Path) -> List[Path]:
        """Segment files in replay order: ``(sequence, pid)``.  The
        append lock issues the sequence numbers, so the order is the
        order of the saves and last-write-wins is well defined."""
        found = []
        for path in directory.glob("seg-*.jsonl"):
            match = _SEGMENT_RE.match(path.name)
            if match is not None:
                found.append((int(match.group("seq")),
                              int(match.group("pid")), path))
        return [item[2] for item in sorted(found)]

    def _next_segment_path(self, directory: Path) -> Path:
        """Next sequence number (call under the append lock)."""
        last = 0
        for path in self._segment_files(directory):
            last = max(last, int(_SEGMENT_RE.match(path.name).group("seq")))
        return directory / f"seg-{last + 1:08d}.{os.getpid()}.jsonl"

    # ------------------------------------------------------------------
    # Indicator cache — save (O(delta) append)
    # ------------------------------------------------------------------
    def save_cache(self, cache: IndicatorCache, fingerprint: Dict) -> int:
        """Append the cache's dirty rows under ``fingerprint``; returns
        how many rows were appended (the delta — 0 when nothing changed
        since the last load/save).

        Cost is O(rows appended), independent of total store size: the
        save writes one new atomically-renamed segment file, numbered
        under the directory's append ``flock``, so concurrent runs
        sharing one store directory each contribute their freshly
        computed rows and none are dropped.  Replay is last-write-wins
        per key, and the determinism contract makes colliding writers
        bit-identical anyway.

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
        rows = cache.dirty_items()
        if not rows:
            return 0
        directory = self._ensure_dir(fingerprint)
        text, appended_keys = _encode_rows(rows)
        if text:
            with _file_lock(directory / "append"):
                _atomic_write_text(self._next_segment_path(directory), text)
        cache.mark_clean(appended_keys)
        if self._should_auto_compact(directory):
            self._compact_dir(directory, fingerprint)
        return len(appended_keys)

    def _should_auto_compact(self, directory: Path) -> bool:
        """Compact when the segment *bytes* have grown to rival the base
        (a rewrite then costs at most ~2× what appending those rows
        cost — classic log-structured amortization, keeping save cost
        O(delta) amortized even with every-gather flushing), or when the
        file count alone gets excessive (glob/replay overhead).  A bare
        file-count trigger would rewrite the whole store every few saves
        on the hot path."""
        threshold = self.auto_compact_segments
        if threshold is None:
            return False  # auto-compaction disabled entirely
        segments = self._segment_files(directory)
        if len(segments) <= threshold:
            return False
        if len(segments) > threshold * 16:
            return True
        base_bytes = 0
        with contextlib.suppress(OSError):
            base_bytes = self._base_path(directory).stat().st_size
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
                        strict: bool = False) -> int:
        """Merge persisted entries into ``cache``; returns how many landed.

        Replays the whole store: ``base.jsonl``, then every segment in
        order (last write wins per key).  A missing store, an unreadable
        ``meta.json`` or a fingerprint mismatch is reported in
        ``last_rejection``; with ``strict=True`` a *present but rejected*
        file raises :class:`StoreError` instead, so CI can distinguish
        "cold" from "poisoned".  Entries already in the cache keep their
        in-memory value; loaded rows are marked clean, so the next
        :meth:`save_cache` does not re-append them.
        """
        tel = self.telemetry
        if not tel.enabled:
            return self._load_cache_impl(cache, fingerprint, strict)
        with tel.span("store_load", CAT_STORE) as span:
            loaded = self._load_cache_impl(cache, fingerprint, strict)
            span.note(rows=loaded)
            return loaded

    def _load_cache_impl(self, cache: IndicatorCache, fingerprint: Dict,
                         strict: bool) -> int:
        self.last_rejection = None
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
        with _file_lock(directory / "base", shared=True):
            entries = self._replay(directory, fingerprint, problems)
        if problems:
            self.last_rejection = "; ".join(problems)
            if strict:
                raise StoreError(self.last_rejection)
        merged_keys = []
        for key, value in entries.items():
            if key not in cache:
                cache.put(key, value)
                merged_keys.append(key)
        cache.mark_clean(merged_keys)
        return len(merged_keys)

    def _read_jsonl_rows(self, path: Path,
                         entries: Dict[Tuple, object]) -> None:
        """Merge one JSONL file's rows into ``entries`` (later lines
        win), tolerating a torn tail or malformed lines — a writer crash
        must not poison the log."""
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
        """The base, then segments, later writes winning; torn lines are
        skipped (readable rows still load), and an unreadable
        ``meta.json`` is reported into ``problems``.  Callers racing a
        compactor must hold the base lock (the loaders do;
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
        files = [self._base_path(directory)] + self._segment_files(directory)
        entries: Dict[Tuple, object] = {}
        for path in files:
            self._read_jsonl_rows(path, entries)
        return entries

    # ------------------------------------------------------------------
    # Indicator cache — compaction and maintenance
    # ------------------------------------------------------------------
    def compact_cache(self, fingerprint: Dict) -> Dict:
        """Fold this fingerprint's segments into ``base.jsonl``; returns
        ``{"segments_folded", "entries"}``.  Idempotent: with no
        segments pending the base is rewritten unchanged.  Also sweeps
        stale staging files."""
        return self._compact_dir(self._ensure_dir(fingerprint), fingerprint)

    def _compact_dir(self, directory: Path, fingerprint: Dict) -> Dict:
        """Segments → base under the base lock and then the append lock
        (appenders only ever hold the append lock, so the ordering cannot
        deadlock).  Holding the append lock across read-fold-unlink is
        what guarantees no append lands between reading a segment and
        deleting it; holding the base lock keeps readers out between the
        base swap and the segment unlink, so they see the old base with
        its segments or the new base alone."""
        tel = self.telemetry
        with tel.span("compaction", CAT_STORE) as span:
            with _file_lock(directory / "base"), \
                    _file_lock(directory / "append"):
                segments = self._segment_files(directory)
                entries = self._replay(directory, fingerprint, [])
                text, _ = _encode_rows(sorted(entries.items(),
                                              key=lambda kv: repr(kv[0])))
                _atomic_write_text(self._base_path(directory), text)
                for path in segments:
                    with contextlib.suppress(OSError):
                        path.unlink()
            self._sweep_sidecars(directory)
            span.note(segments_folded=len(segments), entries=len(entries))
            tel.count("store.compactions")
        return {"segments_folded": len(segments), "entries": len(entries)}

    def compact_all(self) -> List[Dict]:
        """Compact every indicator cache of this store format; returns
        one stats dict per cache.  Directories an older format wrote are
        never read, so they are left as they are."""
        results = []
        for directory in sorted(self.root.glob("cache2__*")):
            meta = self._read_meta(directory)
            fingerprint = meta.get("fingerprint") if meta else None
            if (not isinstance(fingerprint, dict)
                    or fingerprint.get("format") != STORE_FORMAT):
                continue
            stats = self._compact_dir(directory, fingerprint)
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
            self._read_jsonl_rows(self._base_path(directory), base_rows)
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
    "DEFAULT_AUTO_COMPACT_SEGMENTS",
]
