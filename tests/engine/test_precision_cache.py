"""Precision keying: float32/float64 rows coexist without aliasing."""

import numpy as np
import pytest

from repro.engine.cache import IndicatorCache
from repro.engine.core import Engine
from repro.eval.benchconfig import reduced_proxy_config
from repro.runtime.store import RuntimeStore, cache_fingerprint
from repro.searchspace.genotype import Genotype

pytestmark = pytest.mark.precision


@pytest.fixture
def genotype():
    return Genotype.from_index(1462)


def test_engines_of_both_precisions_share_one_cache(genotype):
    """Same cache, different policies: distinct entries, no aliasing."""
    cache = IndicatorCache()
    config64 = reduced_proxy_config(seed=0)
    engine64 = Engine(proxy_config=config64, cache=cache)
    engine32 = Engine(proxy_config=config64.with_precision("float32"),
                      cache=cache)

    k64 = engine64.ntk(genotype)
    entries_after_64 = len(cache)
    k32 = engine32.ntk(genotype)
    # The executor computes the float32 engine's own ntk and LR rows (not
    # hits); the macro-keyed FLOPs row is shared by both engines.
    assert len(cache) == entries_after_64 + 2
    assert k32 != k64  # computed, not served from the float64 row

    # Re-reads on both engines are pure cache hits now.
    misses = cache.misses
    assert engine64.ntk(genotype) == k64
    assert engine32.ntk(genotype) == k32
    assert cache.misses == misses


def test_population_path_respects_precision_keys(genotype):
    cache = IndicatorCache()
    config64 = reduced_proxy_config(seed=0)
    engine64 = Engine(proxy_config=config64, cache=cache)
    engine32 = Engine(proxy_config=config64.with_precision("float32"),
                      cache=cache)
    table64 = engine64.evaluate_population([genotype])
    table32 = engine32.evaluate_population([genotype])
    k64 = table64.columns["ntk"][0]
    k32 = table32.columns["ntk"][0]
    assert k32 == pytest.approx(k64, rel=1e-3)
    assert k32 != k64
    # Batched population path agrees bit-for-bit with the scalar path.
    assert engine32.ntk(genotype) == k32


def test_store_fingerprints_split_by_precision(tmp_path, genotype):
    """One store directory, two precisions: separate files, no bleed."""
    store = RuntimeStore(tmp_path)
    config64 = reduced_proxy_config(seed=0)
    config32 = config64.with_precision("float32")
    macro = config64.macro_config()
    fp64 = cache_fingerprint(config64, macro)
    fp32 = cache_fingerprint(config32, macro)
    assert fp64 != fp32
    assert fp64["precision"] == "float64"
    assert fp32["precision"] == "float32"
    assert store.cache_dir(fp64) != store.cache_dir(fp32)

    engine64 = Engine(proxy_config=config64)
    engine64.ntk(genotype)
    store.save_cache(engine64.cache, fp64)

    # A float32 run warm-starts nothing from the float64 file...
    cold = IndicatorCache()
    assert store.load_cache_into(cold, fp32) == 0
    # ...while the float64 twin gets every row back.
    warm = IndicatorCache()
    assert store.load_cache_into(warm, fp64) == len(engine64.cache)

    # Both precisions persist side by side in one directory.
    engine32 = Engine(proxy_config=config32)
    engine32.ntk(genotype)
    store.save_cache(engine32.cache, fp32)
    assert store.cache_dir(fp64).exists()
    assert store.cache_dir(fp32).exists()
