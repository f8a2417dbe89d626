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
  reads; every transport (serial queue, thread and fork pools) merges
  through them.
* **Partial warmth.**  Each chunk item carries a per-indicator need mask,
  so a partially warm cache (e.g. NTK rows present, line regions missing)
  never re-pays a proxy it already holds.
* **Proxies only.**  Workers compute the two proxy rows and nothing else:
  FLOPs and latency are priced in the driver through their cost models
  (:mod:`repro.engine.costs`), the one place each is computed.
* **One ledger contract.**  Each row carries the seconds its proxies
  took, keyed by the engine's ledger entries (``ntk_eval``,
  ``lr_eval``); the executor's merge records them, one count per
  computed proxy value.  A chunk function returns its row list and
  nothing else: the transport that runs it times the whole chunk (a
  :class:`~repro.runtime.async_pool.WorkerSpan`).
* **Memory.**  Each chunk function first applies a fixed allocator
  policy, once per process: glibc ``mallopt`` raises the mmap and trim
  thresholds above the largest per-evaluation array (a paper-scale
  Jacobian or im2col column block).  Without it glibc hands every such
  array back to the OS when it is freed, and the next plan run faults in
  freshly zeroed pages: about a fifth of a paper-scale random search's
  CPU time went to the kernel.  With it a worker keeps freed memory in
  its heap, for the next plan run to reuse, until it exits.  Peak RSS
  does not change (within 0.5% on the benchmark searches): the next run
  reuses the freed memory instead of adding to it.  Where the C library
  has no ``mallopt`` the policy does nothing.  It changes where arrays
  live, never a numpy call or its operands, so rows are the same bits
  either way.

Cache accounting note: rows a worker computed are recorded as cache
*misses* when merged (they were genuinely computed, not found), after
which the engine's assembly pass sees hits.  A population table
therefore reports one hit per computed proxy row on top of its misses;
a FLOPs row, priced by the driver's lookup, counts one miss and no hit.
"""

from __future__ import annotations

import ctypes
import os
import time
from typing import List, Sequence, Tuple

from repro.engine.core import genotype_indicator_keys, supernet_indicator_keys
from repro.engine.plan import SupernetChunk
from repro.proxies.linear_regions import count_line_regions, supernet_line_regions
from repro.proxies.ntk import ntk_condition_number, supernet_ntk_condition_number
from repro.searchspace.genotype import Genotype
from repro.searchspace.specs import EdgeSpec


def _fork_available() -> bool:
    # Imported here: a serial run never asks, and never loads
    # multiprocessing.
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _chunked(items: Sequence, size: int, n_workers: int = 1
             ) -> List[Sequence]:
    """``items`` cut by guided self-scheduling, in order.

    Each chunk takes ``min(size, ceil(remaining / n_workers))`` items, so
    sizes never increase and the last chunks shrink until every worker
    can take one: 57 items, size 8, two workers give 8,8,8,8,8,8,5,2,1,1,
    which leaves the workers a short tail to balance instead of one
    full chunk.  With one worker every chunk but the last is ``size``.
    """
    chunks, start = [], 0
    while start < len(items):
        remaining = len(items) - start
        take = min(size, -(-remaining // n_workers))
        chunks.append(items[start:start + take])
        start += take
    return chunks


#: glibc ``mallopt`` parameter numbers (``<malloc.h>``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: Arrays below this size come from the heap instead of their own
#: mapping.  Above every per-evaluation array: the largest, a paper-scale
#: full-supernet Jacobian, is 25.8 MB.
MMAP_THRESHOLD = 1 << 30
#: Free memory at the top of the heap goes back to the OS only above this.
TRIM_THRESHOLD = 1 << 30

#: The pid that applied the allocator policy (a forked child re-applies).
_policy_pid = None


def _libc():
    """The process's C library, or ``None`` where ctypes cannot load it."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


def _apply_allocator_policy() -> None:
    """Keep freed proxy arrays in this process's heap (see "Memory")."""
    global _policy_pid
    if _policy_pid == os.getpid():
        return
    _policy_pid = os.getpid()
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _timed(proxy, *args, **kwargs) -> Tuple[float, float]:
    start = time.perf_counter()
    value = proxy(*args, **kwargs)
    return value, time.perf_counter() - start


# ----------------------------------------------------------------------
# Worker entry points (module level: picklable by reference).
# ----------------------------------------------------------------------
def _evaluate_genotype_chunk(payload: Tuple) -> List[Tuple]:
    """Indicator rows for a chunk of canonical genotypes.

    Each chunk item is ``(ops, (need_ntk, need_lr))``: only the proxies
    the parent found missing are computed, so a partially warm cache never
    re-pays one it already holds.  Returns ``[(canonical_index, {indicator:
    value}, {ledger entry: seconds}), ...]``; the chunk's own time is
    measured by the transport that runs it.
    FLOPs and latency are deliberately absent: the parent prices them
    through its cost models (LUT composition and FLOP counts are cheap,
    and the profiled estimator lives there); workers only pay for the
    proxy-network indicators.
    """
    _apply_allocator_policy()
    items, proxy_config = payload
    rows: List[Tuple] = []
    for ops, (need_ntk, need_lr) in items:
        genotype = Genotype(tuple(ops))
        row, spent = {}, {}
        if need_ntk:
            row["ntk"], spent["ntk_eval"] = _timed(
                ntk_condition_number, genotype, proxy_config)
        if need_lr:
            row["linear_regions"], spent["lr_eval"] = _timed(
                count_line_regions, genotype, proxy_config)
        rows.append((genotype.to_index(), row, spent))
    return rows


def _evaluate_supernet_chunk(payload: Tuple) -> List[Tuple]:
    """Supernet NTK / line-region rows for a chunk of alive-op states.

    Each chunk item is ``(state, (need_ntk, need_lr))`` — as with the
    genotype chunks, only the indicators the parent found missing are
    computed.  Returns ``[(state, {indicator: value}, {ledger entry:
    seconds}), ...]``.

    Each proxy runs over the states that need it as one
    :class:`~repro.engine.plan.SupernetChunk`: each state compiled alone,
    forward values the states share computed once.  Every NTK runs before the
    first line count, so the NTK's shared values are gone before the
    line counts keep theirs; no row depends on that order.
    """
    _apply_allocator_policy()
    items, proxy_config = payload
    rows = [(tuple(tuple(ops) for ops in state), {}, {}) for state, _ in items]
    todo = [row for row, (_, (need_ntk, _)) in zip(rows, items) if need_ntk]
    chunk = SupernetChunk([state for state, _, _ in todo])
    for state, row, spent in todo:
        specs = [EdgeSpec(i, ops) for i, ops in enumerate(state)]
        row["supernet_ntk"], spent["ntk_eval"] = _timed(
            supernet_ntk_condition_number, specs, proxy_config, chunk=chunk)
    todo = [row for row, (_, (_, need_lr)) in zip(rows, items) if need_lr]
    chunk = SupernetChunk([state for state, _, _ in todo])
    for state, row, spent in todo:
        row["supernet_lr"], spent["lr_eval"] = _timed(
            supernet_line_regions, state, proxy_config, chunk=chunk)
    return rows


__all__ = [
    "genotype_indicator_keys",
    "supernet_indicator_keys",
]
