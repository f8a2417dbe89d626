"""Engine population API and its integration with the search layer."""

import numpy as np
import pytest

from repro.engine import Engine, IndicatorTable
from repro.engine.core import genotype_indicator_keys
from repro.errors import ProxyError
from repro.search.evolutionary import EvolutionConfig, TrainlessEvolutionarySearch
from repro.search.objective import HybridObjective, ObjectiveWeights
from repro.searchspace.canonical import canonicalize
from repro.searchspace.genotype import Genotype
from repro.searchspace.space import NasBench201Space


@pytest.fixture()
def engine(tiny_proxy_config, shared_latency_estimator):
    return Engine(proxy_config=tiny_proxy_config,
                  latency_estimator=shared_latency_estimator)


class TestEvaluatePopulation:
    def test_rows_in_request_order_with_duplicates(self, engine,
                                                   heavy_genotype,
                                                   light_genotype):
        population = [heavy_genotype, light_genotype, heavy_genotype]
        table = engine.evaluate_population(population)
        assert len(table) == 3
        assert table.unique_canonical == 2
        assert table.row(0) == table.row(2)
        assert table.row(0) != table.row(1)

    def test_matches_per_candidate_evaluation(self, engine, heavy_genotype,
                                              light_genotype,
                                              skip_only_genotype):
        population = [heavy_genotype, light_genotype, skip_only_genotype]
        table = engine.evaluate_population(population)
        for i, genotype in enumerate(population):
            assert table.row(i) == engine.evaluate(genotype)

    def test_second_pass_all_hits(self, engine):
        space = NasBench201Space()
        population = space.sample(6, rng=0)
        engine.evaluate_population(population)
        table = engine.evaluate_population(population)
        assert table.cache_misses == 0
        assert table.cache_hits > 0

    def test_canonical_dedupe_counts(self, engine):
        a = Genotype(("nor_conv_3x3", "none", "none",
                      "none", "nor_conv_1x1", "nor_conv_3x3"))
        b = Genotype(("nor_conv_3x3", "none", "none",
                      "none", "nor_conv_1x1", "avg_pool_3x3"))
        assert canonicalize(a) == canonicalize(b)
        table = engine.evaluate_population([a, b])
        assert table.unique_canonical == 1
        assert table.row(0) == table.row(1)

    def test_latency_column_gated(self, engine, heavy_genotype):
        without = engine.evaluate_population([heavy_genotype])
        assert without.column("latency")[0] == 0.0
        with_latency = engine.evaluate_population([heavy_genotype],
                                                  with_latency=True)
        assert with_latency.column("latency")[0] > 0.0


class TestBulkReads:
    """Cached rows are read in bulk, counted as a lookup per row."""

    @staticmethod
    def _engine(tiny_proxy_config, shared_latency_estimator):
        # The latency estimator memoizes into the engine's own cache, so
        # the latency and energy axes take the shared-cache path.
        from repro.engine.cache import IndicatorCache
        from repro.hardware.latency import LatencyEstimator

        cache = IndicatorCache()
        estimator = LatencyEstimator(
            device=shared_latency_estimator.device,
            profiler=shared_latency_estimator.profiler,
            lut=shared_latency_estimator.lut, cache=cache)
        return Engine(proxy_config=tiny_proxy_config,
                      latency_estimator=estimator, cache=cache)

    @pytest.mark.parametrize("axis", ["latency", "energy", "peak-mem",
                                      "flops"])
    def test_cost_column_counts_a_lookup_per_form(
            self, tiny_proxy_config, shared_latency_estimator, axis):
        forms = [canonicalize(g) for g in NasBench201Space().sample(12, rng=4)]
        forms += forms[:5]  # repeated forms: a miss, then hits

        def partly_warm():
            engine = self._engine(tiny_proxy_config, shared_latency_estimator)
            model = engine.cost_model(axis)
            for canon in forms[::3]:
                engine.cost(canon, model)
            return engine, model

        bulk, model = partly_warm()
        column = bulk.cost_column(forms, model)
        one_by_one, model = partly_warm()
        expected = [one_by_one._cost_canonical(canon, model)
                    for canon in forms]
        assert [value.hex() for value in column.tolist()] == \
            [value.hex() for value in expected]
        assert bulk.cache.counters() == one_by_one.cache.counters()
        assert bulk.ledger.counts == one_by_one.ledger.counts

    def test_population_rows_count_a_read_per_row(
            self, tiny_proxy_config, shared_latency_estimator):
        population = NasBench201Space().sample(10, rng=2)
        canonical = list({canonicalize(g).to_index(): canonicalize(g)
                          for g in population}.values())

        def per_row(engine, canon):
            """The rows of one form, each read by its own lookup."""
            keys = genotype_indicator_keys(canon.to_index(),
                                           engine._proxy_key,
                                           engine._macro_key)

            def warm():
                engine.executor.warm_population(engine, [canon])

            return {
                "ntk": engine._proxy_row(keys["ntk"], "ntk", warm),
                "linear_regions": engine._proxy_row(
                    keys["linear_regions"], "lr", warm),
                "flops": engine._cost_canonical(
                    canon, engine.cost_model("flops")),
                "latency": engine._cost_canonical(
                    canon, engine.cost_model("latency")),
            }

        # Both engines start partly warm: one form's rows, another's FLOPs.
        bulk = self._engine(tiny_proxy_config, shared_latency_estimator)
        first = bulk.evaluate(population[0], with_latency=True)
        bulk.flops(population[3])
        table = bulk.evaluate_population(population, with_latency=True)
        one_by_one = self._engine(tiny_proxy_config,
                                  shared_latency_estimator)
        assert per_row(one_by_one, canonicalize(population[0])) == first
        one_by_one.flops(population[3])
        one_by_one.executor.warm_population(one_by_one, canonical)
        rows = {canon.to_index(): per_row(one_by_one, canon)
                for canon in canonical}
        assert table.rows() == [rows[canonicalize(g).to_index()]
                                for g in population]
        assert bulk.cache.counters() == one_by_one.cache.counters()
        assert bulk.ledger.counts == one_by_one.ledger.counts


class TestIndicatorTable:
    def test_column_and_missing(self, engine, heavy_genotype):
        table = engine.evaluate_population([heavy_genotype])
        assert table.column("ntk").shape == (1,)
        with pytest.raises(ProxyError):
            table.column("nope")

    def test_argbest_validates_length(self, engine, heavy_genotype):
        table = engine.evaluate_population([heavy_genotype])
        with pytest.raises(ProxyError):
            table.argbest(np.zeros(5))

    def test_to_dicts_round_trip(self, engine, heavy_genotype):
        table = engine.evaluate_population([heavy_genotype])
        record = table.to_dicts()[0]
        assert record["arch_str"] == heavy_genotype.to_arch_str()
        assert record["ntk"] == table.column("ntk")[0]

    def test_shape_validation(self, heavy_genotype):
        with pytest.raises(ProxyError):
            IndicatorTable(genotypes=[heavy_genotype],
                           columns={"ntk": np.zeros(3)})


class TestDeviceRouting:
    def test_for_device_returns_self_on_match(self, engine):
        assert engine.for_device(engine.device()) is engine

    def test_for_device_builds_sibling_sharing_cache(self, engine):
        from repro.hardware.device import NUCLEO_F411RE
        sibling = engine.for_device(NUCLEO_F411RE)
        assert sibling is not engine
        assert sibling.cache is engine.cache
        assert sibling.device().name == NUCLEO_F411RE.name

    def test_macro_search_honours_device_over_shared_engine(
        self, tiny_proxy_config, heavy_genotype
    ):
        from repro.hardware.device import NUCLEO_F411RE
        from repro.search.macro import MacroStageSearch, MacroSearchSpace
        shared = Engine(proxy_config=tiny_proxy_config)  # prices F746ZG
        search = MacroStageSearch(
            heavy_genotype, device=NUCLEO_F411RE,
            space=MacroSearchSpace(channel_choices=(4,), cell_choices=(1,)),
            engine=shared,
        )
        assert search.engine.device().name == NUCLEO_F411RE.name
        assert search.engine.cache is shared.cache

    def test_latency_miss_counted_once(self, tiny_proxy_config,
                                       heavy_genotype):
        from repro.searchspace.network import MacroConfig
        engine = Engine(proxy_config=tiny_proxy_config,
                        macro_config=MacroConfig(init_channels=4,
                                                 cells_per_stage=1,
                                                 image_size=8))
        engine.latency_ms(heavy_genotype)
        assert engine.cache.misses == 1
        engine.latency_ms(heavy_genotype)
        assert engine.cache.misses == 1 and engine.cache.hits == 1


class TestObjectiveIntegration:
    def test_engine_and_config_args_conflict(self, tiny_proxy_config):
        from repro.errors import SearchError
        engine = Engine(proxy_config=tiny_proxy_config)
        with pytest.raises(SearchError):
            HybridObjective(proxy_config=tiny_proxy_config, engine=engine)

    def test_score_genotypes_uses_cache(self, tiny_proxy_config,
                                        shared_latency_estimator):
        objective = HybridObjective(
            proxy_config=tiny_proxy_config,
            weights=ObjectiveWeights(latency=0.5),
            latency_estimator=shared_latency_estimator,
        )
        population = NasBench201Space().sample(5, rng=2)
        first = objective.score_genotypes(population)
        misses_before = objective.engine.cache.misses
        second = objective.score_genotypes(population)
        assert objective.engine.cache.misses == misses_before
        np.testing.assert_array_equal(first, second)

    def test_clones_share_cache(self, tiny_proxy_config, heavy_genotype):
        objective = HybridObjective(proxy_config=tiny_proxy_config)
        clone = objective.with_weights(ObjectiveWeights(flops=1.0))
        objective.genotype_indicators(heavy_genotype)
        misses_before = objective.engine.cache.misses
        clone.genotype_indicators(heavy_genotype)
        assert clone.engine.cache.misses == misses_before


class TestTrainlessEvolution:
    def _objective(self, tiny_proxy_config):
        return HybridObjective(proxy_config=tiny_proxy_config)

    def test_runs_and_reports(self, tiny_proxy_config):
        search = TrainlessEvolutionarySearch(
            self._objective(tiny_proxy_config),
            EvolutionConfig(population_size=6, sample_size=3, cycles=10),
            seed=0,
        )
        result = search.search()
        assert result.algorithm == "evolutionary-trainless"
        assert "ntk" in result.indicators
        assert result.ledger.counts["evolution_candidates"] == 6 + 10

    def test_deterministic(self, tiny_proxy_config):
        cfg = EvolutionConfig(population_size=6, sample_size=3, cycles=12)
        a = TrainlessEvolutionarySearch(self._objective(tiny_proxy_config),
                                        cfg, seed=5).search().genotype
        b = TrainlessEvolutionarySearch(self._objective(tiny_proxy_config),
                                        cfg, seed=5).search().genotype
        assert a == b

    def test_cache_reuse_across_cycles(self, tiny_proxy_config):
        objective = self._objective(tiny_proxy_config)
        search = TrainlessEvolutionarySearch(
            objective,
            EvolutionConfig(population_size=6, sample_size=3, cycles=25),
            seed=1,
        )
        search.search()
        stats = objective.engine.cache.stats
        # Aging evolution revisits members every cycle; the cache must
        # absorb the revisits (hits strictly dominate distinct computes).
        assert stats.hits > stats.misses

    def test_invalid_config_rejected(self, tiny_proxy_config):
        from repro.errors import SearchError
        with pytest.raises(SearchError):
            TrainlessEvolutionarySearch(
                self._objective(tiny_proxy_config),
                EvolutionConfig(population_size=1),
            )
