"""Worker-side chunk functions: the only code that computes proxy rows.

The async executor (:mod:`repro.runtime.async_pool`) ships chunks of
*unique canonical* candidates to the functions here and merges the
returned indicator rows into the engine's
:class:`~repro.engine.cache.IndicatorCache`:

* **Determinism.**  Every proxy seeds its RNG from the canonical key
  (``stable_seed(tag, config.seed, repeat, canonical_index)``), so a
  worker computes the same bits whatever the worker count, chunking or
  completion order.
* **One key contract.**  Rows merge under
  :func:`~repro.engine.core.genotype_indicator_keys` and
  :func:`~repro.engine.core.supernet_indicator_keys`, the keys the engine
  reads; every transport (fork pool, serial queue, fleet workers) merges
  through them.
* **Partial warmth.**  Each chunk item carries a per-indicator need mask,
  so a partially warm cache (e.g. FLOPs missing under a new macro config)
  never re-pays the expensive proxies.
* **One ledger contract.**  Each row carries the seconds its proxies
  took, keyed by the engine's ledger entries (``ntk_eval``,
  ``lr_eval``); the executor's merge records them, one count per
  computed proxy value.

Cache accounting note: rows a worker computed are recorded as cache
*misses* when merged (they were genuinely computed, not found), after
which the engine's assembly pass sees hits.  A population table
therefore reports one hit per computed row on top of its misses.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import List, Sequence, Tuple

from repro.engine.core import genotype_indicator_keys, supernet_indicator_keys
from repro.searchspace.cell import EdgeSpec
from repro.searchspace.genotype import Genotype


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _chunked(items: Sequence, size: int) -> List[Sequence]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def _timed(proxy, *args) -> Tuple[float, float]:
    start = time.perf_counter()
    value = proxy(*args)
    return value, time.perf_counter() - start


# ----------------------------------------------------------------------
# Worker entry points (module level: picklable by reference).
# ----------------------------------------------------------------------
def _evaluate_genotype_chunk(payload: Tuple) -> Tuple[List[Tuple], float]:
    """Indicator rows for a chunk of canonical genotypes.

    Each chunk item is ``(ops, (need_ntk, need_lr, need_flops))``: only
    the indicators the parent found missing are computed, so a partially
    warm cache (e.g. FLOPs missing under a new macro config) never re-pays
    the expensive proxies.  Returns ``([(canonical_index, {indicator:
    value}, {ledger entry: seconds}), ...], seconds)``.
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
        row, spent = {}, {}
        if need_ntk:
            row["ntk"], spent["ntk_eval"] = _timed(
                ntk_condition_number, genotype, proxy_config)
        if need_lr:
            row["linear_regions"], spent["lr_eval"] = _timed(
                count_line_regions, genotype, proxy_config)
        if need_flops:
            row["flops"] = float(count_flops(genotype, macro_config))
        rows.append((genotype.to_index(), row, spent))
    return rows, time.perf_counter() - start


def _evaluate_supernet_chunk(payload: Tuple) -> Tuple[List[Tuple], float]:
    """Supernet NTK / line-region rows for a chunk of alive-op states.

    Each chunk item is ``(state, (need_ntk, need_lr))`` — as with the
    genotype chunks, only the indicators the parent found missing are
    computed, and each row carries its per-proxy seconds.
    """
    items, proxy_config = payload
    from repro.proxies.linear_regions import supernet_line_regions
    from repro.proxies.ntk import supernet_ntk_condition_number

    start = time.perf_counter()
    rows: List[Tuple] = []
    for state, (need_ntk, need_lr) in items:
        specs = [EdgeSpec(i, tuple(ops)) for i, ops in enumerate(state)]
        row, spent = {}, {}
        if need_ntk:
            row["supernet_ntk"], spent["ntk_eval"] = _timed(
                supernet_ntk_condition_number, specs, proxy_config)
        if need_lr:
            row["supernet_lr"], spent["lr_eval"] = _timed(
                supernet_line_regions, [spec.alive_ops for spec in specs],
                proxy_config)
        rows.append((tuple(tuple(ops) for ops in state), row, spent))
    return rows, time.perf_counter() - start


__all__ = [
    "genotype_indicator_keys",
    "supernet_indicator_keys",
]
