"""Canonicalization-aware cache: keying, bit-identity, invalidation."""

import dataclasses

import numpy as np
import pytest

from repro.engine import Engine, IndicatorCache
from repro.hardware.device import NUCLEO_F411RE
from repro.hardware.latency import LatencyEstimator
from repro.searchspace.canonical import canonicalize, functionally_equal
from repro.searchspace.genotype import Genotype
from repro.searchspace.network import MacroConfig


@pytest.fixture()
def engine(tiny_proxy_config, shared_latency_estimator):
    return Engine(proxy_config=tiny_proxy_config,
                  latency_estimator=shared_latency_estimator)


class TestIndicatorCache:
    def test_lookup_computes_once(self):
        cache = IndicatorCache()
        calls = []
        value = cache.lookup("k", lambda: calls.append(1) or 42.0)
        again = cache.lookup("k", lambda: calls.append(1) or 43.0)
        assert value == again == 42.0
        assert len(calls) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_inf_values_cacheable(self):
        cache = IndicatorCache()
        cache.lookup("inf", lambda: float("inf"))
        assert cache.lookup("inf", lambda: 0.0) == float("inf")
        assert cache.stats.hits == 1

    def test_invalidate_and_clear(self):
        cache = IndicatorCache()
        cache.put("a", 1.0)
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        cache.put("b", 2.0)
        cache.clear()
        assert len(cache) == 0 and cache.stats.misses == 0


class TestCanonicalAliasing:
    def test_canonically_equal_hit_same_entry(self, engine):
        # none-only inputs to node 2, with 2->3 carrying a conv: the ops on
        # edges into node 2 differ but both die (node 2 unreachable).
        a = Genotype(("nor_conv_3x3", "none", "none",
                      "none", "nor_conv_1x1", "nor_conv_3x3"))
        b = Genotype(("nor_conv_3x3", "none", "none",
                      "none", "nor_conv_1x1", "avg_pool_3x3"))
        # Sanity: edge 5 (2->3) must be dead in both for this to alias.
        assert functionally_equal(a, b)
        assert a != b
        first = engine.evaluate(a)
        hits_before = engine.cache.hits
        second = engine.evaluate(b)
        assert engine.cache.hits > hits_before  # no recomputation
        for name in ("ntk", "linear_regions", "flops"):
            # Bit-identical, not merely close: same entry, same object.
            assert first[name] == second[name]

    def test_cold_cache_bit_identical_for_equal_forms(
        self, tiny_proxy_config, shared_latency_estimator
    ):
        """Even across engines (cold caches), canonically-equal genotypes
        produce bit-identical values: the proxy RNG seeds from the
        canonical index."""
        a = Genotype(("nor_conv_3x3", "none", "none",
                      "none", "nor_conv_1x1", "nor_conv_3x3"))
        b = Genotype(("nor_conv_3x3", "none", "none",
                      "none", "nor_conv_1x1", "avg_pool_3x3"))
        assert functionally_equal(a, b)
        e1 = Engine(proxy_config=tiny_proxy_config,
                    latency_estimator=shared_latency_estimator)
        e2 = Engine(proxy_config=tiny_proxy_config,
                    latency_estimator=shared_latency_estimator)
        assert e1.ntk(a) == e2.ntk(b)
        assert e1.linear_regions(a) == e2.linear_regions(b)

    def test_values_computed_on_canonical_form(self, engine):
        g = Genotype(("nor_conv_3x3", "none", "none",
                      "none", "nor_conv_1x1", "nor_conv_3x3"))
        canon = canonicalize(g)
        assert engine.ntk(g) == engine.ntk(canon)
        assert engine.flops(g) == engine.flops(canon)


class TestCacheInvalidation:
    def test_differing_proxy_config_misses(self, tiny_proxy_config,
                                           heavy_genotype):
        cache = IndicatorCache()
        e1 = Engine(proxy_config=tiny_proxy_config, cache=cache)
        e2 = Engine(proxy_config=tiny_proxy_config.with_seed(99), cache=cache)
        a = e1.ntk(heavy_genotype)
        misses_before = cache.misses
        b = e2.ntk(heavy_genotype)
        assert cache.misses > misses_before  # different key, recomputed
        assert a != b

    def test_differing_mode_misses(self, tiny_proxy_config, heavy_genotype):
        cache = IndicatorCache()
        e_batched = Engine(proxy_config=tiny_proxy_config, cache=cache)
        e_reference = Engine(proxy_config=tiny_proxy_config.reference(),
                             cache=cache)
        e_batched.ntk(heavy_genotype)
        misses_before = cache.misses
        e_reference.ntk(heavy_genotype)
        assert cache.misses > misses_before

    def test_differing_latency_precision_misses(self, heavy_genotype):
        cache = IndicatorCache()
        config = MacroConfig(init_channels=4, cells_per_stage=1, image_size=8)
        f32 = LatencyEstimator(config=config, precision="float32", cache=cache)
        i8 = LatencyEstimator(config=config, precision="int8", cache=cache)
        a = f32.estimate_ms(heavy_genotype)
        misses_before = cache.misses
        b = i8.estimate_ms(heavy_genotype)
        assert cache.misses > misses_before
        assert a != b

    def test_differing_device_misses(self, heavy_genotype):
        cache = IndicatorCache()
        config = MacroConfig(init_channels=4, cells_per_stage=1, image_size=8)
        m7 = LatencyEstimator(config=config, cache=cache)
        m4 = LatencyEstimator(NUCLEO_F411RE, config=config, cache=cache)
        m7.estimate_ms(heavy_genotype)
        misses_before = cache.misses
        m4.estimate_ms(heavy_genotype)
        assert cache.misses > misses_before


class TestLatencyFolding:
    def test_estimator_shares_engine_cache(self, tiny_proxy_config,
                                           heavy_genotype):
        """An estimator built by the engine writes the engine's cache, and
        the engine's latency lookup reuses the estimator's entries."""
        engine = Engine(proxy_config=tiny_proxy_config,
                        macro_config=MacroConfig(init_channels=4,
                                                 cells_per_stage=1,
                                                 image_size=8))
        value = engine.latency_ms(heavy_genotype)
        estimator = engine.latency_estimator
        assert estimator.cache is engine.cache
        hits_before = engine.cache.hits
        direct = estimator.estimate_ms(heavy_genotype)
        assert direct == value
        assert engine.cache.hits > hits_before

    def test_direct_estimate_does_not_canonicalize(self, tiny_proxy_config):
        """Dead conv edges are billed by the raw estimator (matching the
        on-board ground truth) but elided by the engine's canonical view."""
        dead_conv = Genotype(("nor_conv_3x3", "none", "none",
                              "none", "nor_conv_1x1", "nor_conv_3x3"))
        canon = canonicalize(dead_conv)
        assert canon != dead_conv
        config = MacroConfig(init_channels=4, cells_per_stage=1, image_size=8)
        engine = Engine(proxy_config=tiny_proxy_config, macro_config=config)
        estimator = engine.latency_estimator
        assert estimator.estimate_ms(dead_conv) > estimator.estimate_ms(canon)
        assert engine.latency_ms(dead_conv) == engine.latency_ms(canon)


class TestRepeatsReuse:
    def test_ntk_repeats_deterministic_and_finite(self, tiny_proxy_config,
                                                  heavy_genotype):
        cfg = dataclasses.replace(tiny_proxy_config, repeats=3)
        from repro.proxies.ntk import ntk_condition_number
        a = ntk_condition_number(heavy_genotype, cfg)
        b = ntk_condition_number(heavy_genotype, cfg)
        assert a == b
        assert np.isfinite(a) and a > 1.0

    def test_repeats_differ_from_single(self, tiny_proxy_config,
                                        heavy_genotype):
        from repro.proxies.ntk import ntk_condition_number
        cfg3 = dataclasses.replace(tiny_proxy_config, repeats=3)
        assert ntk_condition_number(heavy_genotype, cfg3) != \
            ntk_condition_number(heavy_genotype, tiny_proxy_config)

    def test_supplied_images_repeats_not_degenerate(self, tiny_proxy_config,
                                                    heavy_genotype, rng):
        """With a fixed user batch, repeats must still vary the network
        initialisation — otherwise the average is a silent no-op."""
        from repro.proxies.ntk import ntk_condition_number
        images = rng.normal(size=(6, 3, 8, 8))
        cfg2 = dataclasses.replace(tiny_proxy_config, repeats=2)
        single = ntk_condition_number(heavy_genotype, tiny_proxy_config,
                                      images=images)
        averaged = ntk_condition_number(heavy_genotype, cfg2, images=images)
        assert averaged != single
