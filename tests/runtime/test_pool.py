"""Pool-evaluated populations are bit-identical to serial evaluation.

Covers the worker chunk functions and cache-key builders of
:mod:`repro.runtime.pool` through the executor that ships them.
"""

import ctypes
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine, supernet_state_key
from repro.errors import SearchError
from repro.runtime import pool
from repro.runtime.async_pool import AsyncPopulationExecutor
from repro.runtime.pool import (
    _chunked,
    _evaluate_genotype_chunk,
    _evaluate_supernet_chunk,
)
from repro.search.objective import HybridObjective
from repro.searchspace.canonical import canonicalize
from repro.searchspace.cell import EdgeSpec
from repro.searchspace.ops import CANDIDATE_OPS
from repro.searchspace.space import NasBench201Space


@pytest.fixture()
def population():
    space = NasBench201Space()
    sample = space.sample(8, rng=21)
    return sample + sample[:3]  # duplicates exercise canonical dedupe


def _engine(tiny_proxy_config, executor=None):
    return Engine(proxy_config=tiny_proxy_config, executor=executor)


class ShuffledFakeExecutor(AsyncPopulationExecutor):
    """Computes the same worker chunks but merges in shuffled completion
    order — models a pool whose workers finish in arbitrary order."""

    def __init__(self, chunk_size=2, seed=0):
        super().__init__(n_workers=1, chunk_size=chunk_size, mode="serial")
        self.seed = seed

    def gather(self, k=1):
        random.Random(self.seed).shuffle(self.pool._pending)
        return super().gather(k)


class TestBitIdentical:
    def test_fork_pool_matches_serial(self, tiny_proxy_config, population):
        serial = _engine(tiny_proxy_config).evaluate_population(population)
        with AsyncPopulationExecutor(n_workers=2, chunk_size=3) as executor:
            pooled = _engine(tiny_proxy_config,
                             executor).evaluate_population(population)
        assert executor.stats.mode == "fork"
        assert executor.stats.tasks == serial.unique_canonical
        for name in serial.columns:
            np.testing.assert_array_equal(serial.columns[name],
                                          pooled.columns[name])
        assert [g.to_index() for g in serial.genotypes] == \
            [g.to_index() for g in pooled.genotypes]

    def test_shuffled_completion_order_identical_table(self,
                                                       tiny_proxy_config,
                                                       population):
        serial = _engine(tiny_proxy_config).evaluate_population(population)
        for seed in (1, 2, 3):
            shuffled = _engine(
                tiny_proxy_config, ShuffledFakeExecutor(seed=seed)
            ).evaluate_population(population)
            assert shuffled.unique_canonical == serial.unique_canonical
            for name in serial.columns:
                np.testing.assert_array_equal(serial.columns[name],
                                              shuffled.columns[name])

    def test_supernet_rows_match_serial(self, tiny_proxy_config):
        base = [EdgeSpec(i, tuple(CANDIDATE_OPS)) for i in range(6)]
        states = [[base[0].without(op)] + base[1:]
                  for op in CANDIDATE_OPS[:3]]
        serial_obj = HybridObjective(engine=_engine(tiny_proxy_config))
        serial_rows = serial_obj.supernet_population(states)
        for executor in (AsyncPopulationExecutor(n_workers=2, chunk_size=1),
                         ShuffledFakeExecutor(chunk_size=1, seed=9)):
            with executor:
                pooled_obj = HybridObjective(
                    engine=_engine(tiny_proxy_config, executor))
                assert pooled_obj.supernet_population(states) == serial_rows

    def test_search_loop_executor_hook(self, tiny_proxy_config):
        from repro.search.random_search import ZeroShotRandomSearch

        serial = ZeroShotRandomSearch(
            HybridObjective(engine=_engine(tiny_proxy_config)),
            num_samples=6, seed=4,
        ).search()
        with AsyncPopulationExecutor(n_workers=2, chunk_size=2) as executor:
            pooled = ZeroShotRandomSearch(
                HybridObjective(engine=_engine(tiny_proxy_config, executor)),
                num_samples=6, seed=4,
            ).search()
        assert pooled.genotype == serial.genotype
        assert executor.stats.merged_rows > 0


def _hex_rows(engine):
    return {key: float(value).hex()
            for key, value in engine.cache.items()}


@pytest.mark.parametrize("chunk_size", [1, 3, 8])
@pytest.mark.parametrize("n_workers", [1, 2])
class TestRowsUnderTheGuidedSplit:
    """Rows equal a serial fixed-split run as float hex, whatever the
    worker count and largest chunk."""

    def test_random_population(self, tiny_proxy_config, n_workers,
                               chunk_size):
        population = NasBench201Space().sample(20, rng=13)
        serial = _engine(tiny_proxy_config)
        serial.evaluate_population(population)
        with AsyncPopulationExecutor(n_workers=n_workers,
                                     chunk_size=chunk_size) as executor:
            engine = _engine(tiny_proxy_config, executor)
            engine.evaluate_population(population)
        assert _hex_rows(engine) == _hex_rows(serial)

    def test_pruning_round(self, tiny_proxy_config, n_workers, chunk_size):
        base = [EdgeSpec(i, tuple(CANDIDATE_OPS)) for i in range(6)]
        states = [base[:edge] + [base[edge].without(op)] + base[edge + 1:]
                  for edge in range(6) for op in CANDIDATE_OPS]
        serial = _engine(tiny_proxy_config)
        serial_rows = HybridObjective(engine=serial).supernet_population(
            states)
        with AsyncPopulationExecutor(n_workers=n_workers,
                                     chunk_size=chunk_size) as executor:
            engine = _engine(tiny_proxy_config, executor)
            rows = HybridObjective(engine=engine).supernet_population(states)
        assert rows == serial_rows
        assert _hex_rows(engine) == _hex_rows(serial)


class TestIncrementalMergeHook:
    """Engine.merge_indicator_rows: the seam every executor merges through."""

    def test_first_write_wins_and_counts_misses(self, tiny_proxy_config):
        engine = _engine(tiny_proxy_config)
        key = ("flops", 123, ("macro",))
        assert engine.merge_indicator_rows([(key, 7.0)]) == 1
        assert engine.cache.get(key) == 7.0
        assert engine.cache.misses == 1
        # A duplicate (re-ordered / double-delivered chunk) changes nothing.
        assert engine.merge_indicator_rows([(key, 99.0)]) == 0
        assert engine.cache.get(key) == 7.0
        assert engine.cache.misses == 1

    def test_pool_merge_delegates_to_engine_hook(self, tiny_proxy_config,
                                                 heavy_genotype):
        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=2)
        merged = executor.warm_population(engine, [heavy_genotype])
        assert merged == 3  # ntk + linear_regions + flops
        assert executor.stats.merged_rows == 3
        assert engine.cache.misses == 3


class TestDispatchMechanics:
    def test_serial_fallback_single_worker(self, tiny_proxy_config,
                                           population):
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=4)
        _engine(tiny_proxy_config, executor).evaluate_population(population)
        assert executor.stats.mode == "serial"

    def test_serial_fallback_single_chunk(self, tiny_proxy_config,
                                          population, monkeypatch):
        # Without fork, several workers fall back to the serial queue.
        monkeypatch.setattr("repro.runtime.async_pool._fork_available",
                            lambda: False)
        executor = AsyncPopulationExecutor(n_workers=4, chunk_size=64)
        serial = _engine(tiny_proxy_config).evaluate_population(population)
        table = _engine(tiny_proxy_config,
                        executor).evaluate_population(population)
        assert executor.stats.mode == "serial"
        assert executor.stats.chunks == 1
        for name in serial.columns:
            np.testing.assert_array_equal(serial.columns[name],
                                          table.columns[name])

    def test_partially_warm_cache_skips_cached_indicators(
        self, tiny_proxy_config, heavy_genotype
    ):
        from repro.searchspace.network import MacroConfig

        warm = _engine(tiny_proxy_config)
        warm.evaluate(heavy_genotype)
        # Same cache, new macro config: only FLOPs are missing, and the
        # worker must not re-pay the proxies.
        engine = Engine(proxy_config=tiny_proxy_config, cache=warm.cache,
                        macro_config=MacroConfig(init_channels=4,
                                                 cells_per_stage=1,
                                                 image_size=8))
        rows = _evaluate_genotype_chunk(
            (((heavy_genotype.ops, (False, False, True)),),
             tiny_proxy_config, engine.macro_config)
        )
        assert set(rows[0][1]) == {"flops"}
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=2)
        merged = executor.warm_population(engine, [heavy_genotype])
        assert merged == 1  # flops row only
        table = engine.evaluate_population([heavy_genotype])
        assert table.cache_misses == 0

    def test_warm_cache_dispatches_nothing(self, tiny_proxy_config,
                                           population):
        engine = _engine(tiny_proxy_config)
        engine.evaluate_population(population)
        with AsyncPopulationExecutor(n_workers=2, chunk_size=2) as executor:
            Engine(proxy_config=tiny_proxy_config, cache=engine.cache,
                   executor=executor).evaluate_population(population)
        assert executor.stats.dispatches == 0
        assert executor.stats.tasks == 0

    def test_chunking_covers_everything_once(self):
        items = list(range(10))
        chunks = _chunked(items, 3)
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert [x for chunk in chunks for x in chunk] == items

    def test_chunking_is_guided_by_worker_count(self):
        # The paper-scale random search: 57 unique cells, chunks of at
        # most 8, two workers.
        sizes = [len(c) for c in _chunked(tuple(range(57)), 8, 2)]
        assert sizes == [8, 8, 8, 8, 8, 8, 5, 2, 1, 1]

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 300), size=st.integers(1, 40),
           workers=st.integers(1, 8))
    def test_guided_split_sizes(self, n, size, workers):
        items = tuple(range(n))
        chunks = _chunked(items, size, workers)
        sizes = [len(c) for c in chunks]
        assert sum(sizes) == n
        assert tuple(x for chunk in chunks for x in chunk) == items
        assert all(0 < s <= size for s in sizes)
        assert sizes == sorted(sizes, reverse=True)
        # One worker: the fixed-size split the executor always used.
        assert _chunked(items, size, 1) == [
            items[i:i + size] for i in range(0, n, size)]

    def test_serial_pool_keeps_the_fixed_split(self, tiny_proxy_config):
        genotypes = NasBench201Space().sample(40, rng=5)
        unique = len({canonicalize(g).to_index() for g in genotypes})
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=3)
        executor.submit_population(_engine(tiny_proxy_config), genotypes)
        assert executor.stats.chunks == -(-unique // 3)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(SearchError):
            AsyncPopulationExecutor(n_workers=0)
        with pytest.raises(SearchError):
            AsyncPopulationExecutor(chunk_size=0)

    def test_worker_chunk_functions_round_trip(self, tiny_proxy_config,
                                               tiny_macro_config,
                                               heavy_genotype):
        rows = _evaluate_genotype_chunk(
            (((heavy_genotype.ops, (True, True, True)),),
             tiny_proxy_config, tiny_macro_config)
        )
        engine = Engine(proxy_config=tiny_proxy_config,
                        macro_config=tiny_macro_config)
        assert rows[0][0] == heavy_genotype.to_index()
        assert rows[0][1]["ntk"] == engine.ntk(heavy_genotype)
        assert rows[0][2]["ntk_eval"] >= 0.0

        specs = [EdgeSpec(i, tuple(CANDIDATE_OPS)) for i in range(6)]
        state = supernet_state_key(specs)
        srows = _evaluate_supernet_chunk(
            (((state, (True, True)),), tiny_proxy_config)
        )
        assert srows[0][0] == state
        assert srows[0][1]["supernet_ntk"] == engine.supernet_ntk(specs)
        partial = _evaluate_supernet_chunk(
            (((state, (False, True)),), tiny_proxy_config)
        )
        assert set(partial[0][1]) == {"supernet_lr"}


# ----------------------------------------------------------------------
# Allocator policy
# ----------------------------------------------------------------------
def _chunk_rows(proxy_config, macro_config, genotype):
    """One genotype chunk and one supernet chunk, rows without seconds."""
    rows = _evaluate_genotype_chunk(
        (((genotype.ops, (True, True, True)),), proxy_config, macro_config))
    state = supernet_state_key([EdgeSpec(i, tuple(CANDIDATE_OPS))
                                for i in range(6)])
    srows = _evaluate_supernet_chunk(
        (((state, (True, True)),), proxy_config))
    return [(ident, row) for ident, row, _ in rows + srows]


class _MalloptRecorder:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


class TestAllocatorPolicy:
    def test_applied_once_per_process(self, monkeypatch, tiny_proxy_config,
                                      tiny_macro_config, heavy_genotype):
        recorder = _MalloptRecorder()
        monkeypatch.setattr(pool, "_libc", lambda: recorder)
        monkeypatch.setattr(pool, "_policy_pid", None)
        _chunk_rows(tiny_proxy_config, tiny_macro_config, heavy_genotype)
        _chunk_rows(tiny_proxy_config, tiny_macro_config, heavy_genotype)
        assert recorder.calls == [
            (pool._M_MMAP_THRESHOLD, pool.MMAP_THRESHOLD),
            (pool._M_TRIM_THRESHOLD, pool.TRIM_THRESHOLD),
        ]

    @pytest.mark.parametrize("libc", [object(), None],
                             ids=["no-mallopt", "no-libc"])
    def test_missing_mallopt_is_a_no_op(self, monkeypatch, libc,
                                        tiny_proxy_config, tiny_macro_config,
                                        heavy_genotype):
        expected = _chunk_rows(tiny_proxy_config, tiny_macro_config,
                               heavy_genotype)
        monkeypatch.setattr(pool, "_libc", lambda: libc)
        monkeypatch.setattr(pool, "_policy_pid", None)
        assert _chunk_rows(tiny_proxy_config, tiny_macro_config,
                           heavy_genotype) == expected


#: Runs a chunk of three paper-scale genotypes twice, counting the minor
#: page faults of the second run, then two reduced-scale supernet states.
#: With argument ``off`` the allocator policy is replaced by a no-op.
#: Prints the fault count and every row value as float hex.
_ALLOCATOR_SCRIPT = """
import json, resource, sys
from repro.eval.benchconfig import reduced_proxy_config
from repro.proxies.base import ProxyConfig
from repro.runtime import pool
from repro.searchspace.genotype import Genotype
from repro.searchspace.network import MacroConfig
from repro.searchspace.ops import CANDIDATE_OPS

if sys.argv[1] == "off":
    pool._apply_allocator_policy = lambda: None
archs = (
    "|nor_conv_3x3~0|+|nor_conv_3x3~0|nor_conv_3x3~1|"
    "+|skip_connect~0|nor_conv_3x3~1|nor_conv_3x3~2|",
    "|nor_conv_1x1~0|+|skip_connect~0|nor_conv_1x1~1|"
    "+|skip_connect~0|skip_connect~1|nor_conv_3x3~2|",
    "|nor_conv_3x3~0|+|avg_pool_3x3~0|nor_conv_1x1~1|"
    "+|nor_conv_3x3~0|none~1|nor_conv_3x3~2|",
)
items = tuple((Genotype.from_arch_str(a).ops, (True, True, True))
              for a in archs)
payload = (items, ProxyConfig(), MacroConfig())
pool._evaluate_genotype_chunk(payload)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rows = pool._evaluate_genotype_chunk(payload)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
full = tuple(tuple(CANDIDATE_OPS) for _ in range(6))
states = (full, (tuple(CANDIDATE_OPS[1:]),) + full[1:])
srows = pool._evaluate_supernet_chunk(
    (tuple((state, (True, True)) for state in states),
     reduced_proxy_config()))
print(json.dumps({
    "warm_faults": faults,
    "rows": [[ident, sorted((k, float(v).hex()) for k, v in row.items())]
             for ident, row, _ in rows + srows],
}))
"""

#: Minor faults allowed for the warm run of the three genotypes.  Measured
#: on a 2-CPU host with glibc 2.36 and one BLAS thread: 72 with the policy,
#: in every run; 22.2k without it (the code before the policy), about 7.4k
#: per genotype.
WARM_FAULT_BOUND = 1500


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.fixture(scope="module")
def allocator_runs():
    """``{"on": result, "off": result}`` of two fresh interpreters."""
    pytest.importorskip("resource")
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    runs = {}
    for policy in ("on", "off"):
        proc = subprocess.run([sys.executable, "-c", _ALLOCATOR_SCRIPT, policy],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs[policy] = json.loads(proc.stdout)
    return runs


@pytest.mark.skipif(not _has_mallopt(), reason="C library has no mallopt")
def test_warm_chunk_faults_in_almost_no_pages(allocator_runs):
    on, off = allocator_runs["on"], allocator_runs["off"]
    assert on["warm_faults"] < WARM_FAULT_BOUND, (on["warm_faults"],
                                                  off["warm_faults"])


def test_rows_do_not_depend_on_the_allocator(allocator_runs):
    on, off = allocator_runs["on"], allocator_runs["off"]
    assert len(on["rows"]) == 5
    assert on["rows"] == off["rows"]
