"""Worker-side chunk functions and the cache keys their rows merge under.

The async executor (:mod:`repro.runtime.async_pool`) ships chunks of
*unique canonical* candidates to the functions here and merges the
returned indicator rows into the shared
:class:`~repro.engine.cache.IndicatorCache`:

* **Determinism.**  Every proxy seeds its RNG from the canonical key
  (``stable_seed(tag, config.seed, repeat, canonical_index)``), so a
  worker computes bit-for-bit the value the serial path would, whatever
  the worker count, chunking or completion order.
* **One key contract.**  :func:`genotype_indicator_keys` and
  :func:`supernet_indicator_keys` build the engine's exact cache keys;
  every transport (fork pool, serial fallback, fleet workers) merges
  through them.
* **Partial warmth.**  Each chunk item carries a per-indicator need mask,
  so a partially warm cache (e.g. FLOPs missing under a new macro config)
  never re-pays the expensive proxies.

Cache accounting note: rows a worker computed are recorded as cache
*misses* when merged (they were genuinely computed, not found), after
which the engine's serial assembly pass sees hits.  A pool-warmed table
therefore reports one extra hit per computed row compared to serial
evaluation; the indicator values themselves are identical.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict, List, Sequence, Tuple

from repro.searchspace.cell import EdgeSpec
from repro.searchspace.genotype import Genotype


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _chunked(items: Sequence, size: int) -> List[Sequence]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def genotype_indicator_keys(index: int, proxy_key: Tuple,
                            macro_key: Tuple) -> Dict[str, Tuple]:
    """The engine's cache keys for one canonical genotype, by indicator.

    Single source of truth for every executor that merges worker rows
    back into an :class:`~repro.engine.cache.IndicatorCache` — the key
    tuples here must stay bit-compatible with the ones
    :class:`~repro.engine.core.Engine` builds internally.
    """
    return {
        "ntk": ("ntk", index, 1, proxy_key),
        "linear_regions": ("linear_regions", index, proxy_key),
        "flops": ("flops", index, macro_key),
    }


def supernet_indicator_keys(state: Tuple, proxy_key: Tuple) -> Dict[str, Tuple]:
    """The engine's cache keys for one supernet state, by indicator."""
    return {
        "supernet_ntk": ("supernet_ntk", state, proxy_key),
        "supernet_lr": ("supernet_lr", state, proxy_key),
    }


# ----------------------------------------------------------------------
# Worker entry points (module level: picklable by reference).
# ----------------------------------------------------------------------
def _evaluate_genotype_chunk(payload: Tuple) -> Tuple[List[Tuple], float]:
    """Indicator rows for a chunk of canonical genotypes.

    Each chunk item is ``(ops, (need_ntk, need_lr, need_flops))``: only
    the indicators the parent found missing are computed, so a partially
    warm cache (e.g. FLOPs missing under a new macro config) never re-pays
    the expensive proxies.  Returns
    ``([(canonical_index, {indicator: value}), ...], seconds)``.
    Latency is deliberately absent: LUT composition is cheap and the
    profiled estimator lives in the parent; workers only pay for the
    proxy-network indicators.
    """
    items, proxy_config, macro_config = payload
    from repro.proxies.flops import count_flops
    from repro.proxies.linear_regions import count_line_regions
    from repro.proxies.ntk import ntk_condition_number

    start = time.perf_counter()
    rows: List[Tuple] = []
    for ops, (need_ntk, need_lr, need_flops) in items:
        genotype = Genotype(tuple(ops))
        row = {}
        if need_ntk:
            row["ntk"] = ntk_condition_number(genotype, proxy_config)
        if need_lr:
            row["linear_regions"] = count_line_regions(genotype, proxy_config)
        if need_flops:
            row["flops"] = float(count_flops(genotype, macro_config))
        rows.append((genotype.to_index(), row))
    return rows, time.perf_counter() - start


def _evaluate_supernet_chunk(payload: Tuple) -> Tuple[List[Tuple], float]:
    """Supernet NTK / line-region rows for a chunk of alive-op states.

    Each chunk item is ``(state, (need_ntk, need_lr))`` — as with the
    genotype chunks, only the indicators the parent found missing are
    computed.
    """
    items, proxy_config = payload
    from repro.proxies.linear_regions import supernet_line_regions
    from repro.proxies.ntk import supernet_ntk_condition_number

    start = time.perf_counter()
    rows: List[Tuple] = []
    for state, (need_ntk, need_lr) in items:
        specs = [EdgeSpec(i, tuple(ops)) for i, ops in enumerate(state)]
        row = {}
        if need_ntk:
            row["supernet_ntk"] = supernet_ntk_condition_number(specs,
                                                                proxy_config)
        if need_lr:
            row["supernet_lr"] = supernet_line_regions(
                [spec.alive_ops for spec in specs], proxy_config
            )
        rows.append((tuple(tuple(ops) for ops in state), row))
    return rows, time.perf_counter() - start


__all__ = [
    "genotype_indicator_keys",
    "supernet_indicator_keys",
]
