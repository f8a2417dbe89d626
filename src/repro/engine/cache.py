"""The canonicalization-aware indicator cache.

One :class:`IndicatorCache` memoizes every expensive indicator the
evaluation engine computes — NTK condition numbers, linear-region counts,
FLOPs, parameter counts and LUT latencies — across repeats, search cycles
and algorithms.  Keys are plain hashable tuples built by the caller; the
engine's key contract is documented in :mod:`repro.engine`.

The cache is deliberately simple: no locking (the library is
single-threaded) and values are opaque.  ``float('inf')`` and ``nan`` are
legal cached values, so presence is tracked explicitly rather than via
``get(...) is None``.

Memory is not bounded: the cache only ever holds rows the NAS-Bench-201
search can produce — 9,445 canonical cells × three trainless indicators,
plus a few cost rows per cell and board — about 76k rows at most, so
every row a run has seen stays resident.

Precision is part of the *key*, not the cache: proxy keys embed
``astuple(ProxyConfig)`` — which includes the ``precision`` policy name —
so float32 and float64 evaluations of the same canonical form occupy
distinct entries and can warm-start side by side in one cache (and one
persisted store file set; see :mod:`repro.runtime.store`).

The cache also tracks **dirty rows** — keys written since the last
:meth:`IndicatorCache.mark_clean` — so persistence layers can append just
the delta a run computed instead of rewriting everything they loaded:
:meth:`~repro.runtime.store.RuntimeStore.load_cache_into` marks loaded
rows clean, ``save_cache`` appends :meth:`IndicatorCache.dirty_items` and
marks them clean in turn.  Tracking is a set of keys (no value copies), so
``put`` stays O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple)

_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one :class:`IndicatorCache`."""

    hits: int
    misses: int
    entries: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class IndicatorCache:
    """Memoizes indicator values under caller-supplied hashable keys."""

    def __init__(self) -> None:
        self._data: Dict[Hashable, Any] = {}
        self._dirty: set = set()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Peek without touching the hit/miss counters."""
        return self._data.get(key, default)

    def items(self) -> list:
        """Snapshot of ``(key, value)`` pairs (for persistence layers)."""
        return list(self._data.items())

    def put(self, key: Hashable, value: Any) -> Any:
        self._data[key] = value
        self._dirty.add(key)
        return value

    def dirty_items(self) -> List[Tuple[Hashable, Any]]:
        """``(key, value)`` pairs written since the last :meth:`mark_clean`.

        The O(delta) half of store persistence: appending these — instead
        of rewriting :meth:`items` — is what keeps save cost proportional
        to the rows a run computed, not to everything it warm-started.
        """
        return [(key, self._data[key]) for key in self._dirty
                if key in self._data]

    def mark_clean(self, keys: Optional[Iterable[Hashable]] = None) -> None:
        """Forget dirtiness for ``keys`` (all, when ``None``) — called by
        persistence layers after loading or appending those rows."""
        if keys is None:
            self._dirty.clear()
        else:
            self._dirty.difference_update(keys)

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    def lookup(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on first use."""
        value = self._data.get(key, _MISSING)
        if value is not _MISSING:
            self.hits += 1
            return value
        self.misses += 1
        return self.put(key, compute())

    def lookup_cached(self, keys: Sequence[Hashable]
                      ) -> Tuple[List[Any], List[int]]:
        """:meth:`lookup` of many keys, for the ones already cached.

        Returns the value under each key (``None`` where absent) and the
        positions of the absent keys.  Each present key counts the hit
        its lookup would count; absent keys count nothing, because the
        caller computes them through :meth:`lookup` (or a merge), which
        counts the miss.
        """
        values = [self._data.get(key, _MISSING) for key in keys]
        missing = [pos for pos, value in enumerate(values)
                   if value is _MISSING]
        for pos in missing:
            values[pos] = None
        self.hits += len(values) - len(missing)
        return values, missing

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it existed."""
        self._dirty.discard(key)
        return self._data.pop(key, _MISSING) is not _MISSING

    def clear(self) -> None:
        self._data.clear()
        self._dirty.clear()
        self.hits = 0
        self.misses = 0

    @property
    def stats(self) -> CacheStats:
        return CacheStats(hits=self.hits, misses=self.misses,
                          entries=len(self._data))

    def counters(self) -> Tuple[int, int]:
        """Current ``(hits, misses)`` snapshot (for delta accounting)."""
        return (self.hits, self.misses)
