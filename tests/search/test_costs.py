"""The pluggable cost-model registry and its objective integration."""

import numpy as np
import pytest

from repro.engine.core import Engine
from repro.errors import SearchError
from repro.hardware.device import NUCLEO_F746ZG, NUCLEO_L432KC
from repro.search.costs import (
    DEPLOY_PRECISIONS,
    DeployPrecision,
    FLOAT32_DEPLOY,
    INT8_DEPLOY,
    build_cost_model,
    registered_cost_models,
    resolve_deploy_precision,
)
from repro.search.objective import HybridObjective, ObjectiveWeights
from repro.searchspace.network import MacroConfig

pytestmark = pytest.mark.hw

TINY = MacroConfig(init_channels=4, cells_per_stage=1, num_classes=10,
                   input_channels=3, image_size=8)

BUILTIN_AXES = ("energy", "flops", "int8-latency", "latency", "peak-mem")


@pytest.fixture(scope="module")
def engine(tiny_proxy_config):
    return Engine(proxy_config=tiny_proxy_config, macro_config=TINY,
                  device=NUCLEO_F746ZG)


class TestRegistry:
    def test_builtin_axes_registered(self):
        assert registered_cost_models() == BUILTIN_AXES

    def test_unknown_axis_rejected(self, engine):
        with pytest.raises(SearchError, match="unknown cost model"):
            engine.cost_model("graph-volume")

    def test_engine_memoizes_models(self, engine):
        assert engine.cost_model("energy") is engine.cost_model("energy")

    def test_latency_axis_shares_engine_estimator(self, engine):
        model = engine.cost_model("latency")
        assert model.estimator is engine.latency_estimator
        assert model.cache is engine.cache

    def test_energy_axis_shares_latency_estimator(self, engine):
        assert (engine.cost_model("energy").energy.estimator
                is engine.latency_estimator)

    def test_int8_axis_builds_quantized_estimator(self, engine):
        model = engine.cost_model("int8-latency")
        assert model.estimator.precision == "int8"
        assert model.estimator is not engine.latency_estimator
        # ...but still memoizes into the engine's canonical cache.
        assert model.cache is engine.cache


class TestFingerprints:
    """Cache keys must never alias across devices, precisions or models."""

    def test_latency_key_matches_legacy_layout(self, engine, heavy_genotype):
        from dataclasses import astuple

        from repro.searchspace.canonical import canonicalize

        model = engine.cost_model("latency")
        canon = canonicalize(heavy_genotype)
        key = model.cache_key(canon.to_index())
        assert key == ("latency", canon.to_index(), NUCLEO_F746ZG.name,
                       "float32", astuple(TINY))

    def test_keys_distinct_across_axes(self, engine):
        keys = {engine.cost_model(name).cache_key(0)
                for name in registered_cost_models()}
        assert len(keys) == len(registered_cost_models())

    def test_keys_distinct_across_devices(self, tiny_proxy_config, engine):
        sibling = engine.for_device(NUCLEO_L432KC)
        for name in ("latency", "energy", "int8-latency"):
            assert (engine.cost_model(name).cache_key(0)
                    != sibling.cost_model(name).cache_key(0))

    def test_float32_and_int8_never_alias(self, engine):
        assert (engine.cost_model("latency").cache_key(7)
                != engine.cost_model("int8-latency").cache_key(7))

    def test_every_builtin_key_layout_pinned(self, engine):
        """Keys stay the exact tuples stores already hold."""
        from dataclasses import astuple

        macro = astuple(TINY)
        board = NUCLEO_F746ZG.name
        profile = engine.cost_model("energy").energy.profile
        expected = {
            "latency": ("latency", 5, board, "float32", macro),
            "int8-latency": ("latency", 5, board, "int8", macro),
            "flops": ("flops", 5, macro),
            "energy": ("cost", "energy", 5, board, "float32",
                       profile.active_mw, profile.sleep_mw, profile.wake_uj,
                       macro),
            "peak-mem": ("cost", "peak-mem", 5, "greedy_by_size", 4, macro),
        }
        for name, key in expected.items():
            assert engine.cost_model(name).cache_key(5) == key

    def test_fingerprint_computed_once_per_model(self):
        from repro.search.costs import CostModel

        class Counting(CostModel):
            name = "counting"
            calls = 0

            def fingerprint(self):
                self.calls += 1
                return ("board", 1)

        model = Counting()
        keys = [model.cache_key(i) for i in range(4)]
        assert keys == [("cost", "counting", i, "board", 1) for i in range(4)]
        assert model.calls == 1


class TestEngineCost:
    def test_values_positive_and_cached(self, engine, heavy_genotype):
        for name in registered_cost_models():
            first = engine.cost(heavy_genotype, name)
            assert first > 0.0
            assert engine.cost(heavy_genotype, name) == first

    def test_latency_axis_equals_engine_latency(self, engine,
                                                heavy_genotype):
        assert engine.cost(heavy_genotype, "latency") == \
            engine.latency_ms(heavy_genotype)

    def test_flops_axis_equals_engine_flops(self, engine, heavy_genotype):
        assert engine.cost(heavy_genotype, "flops") == \
            engine.flops(heavy_genotype)

    def test_latency_axis_wraps_a_given_estimator(self, monkeypatch):
        """An objective built around an estimator for a non-full macro
        configuration prices every latency read with that estimator: no
        second, full-configuration LUT estimator is profiled."""
        from repro.hardware.latency import LatencyEstimator
        from repro.searchspace.canonical import canonicalize
        from repro.searchspace.genotype import Genotype

        estimator = LatencyEstimator(config=TINY)
        built = []
        init = LatencyEstimator.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("config"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(LatencyEstimator, "__init__", counting)
        objective = HybridObjective(weights=ObjectiveWeights(latency=0.5),
                                    latency_estimator=estimator)
        engine = objective.engine
        assert engine.macro_config == TINY     # the estimator's
        genotypes = [Genotype.from_index(i) for i in (1312, 258, 6, 15624)]
        assert any(canonicalize(g) != g for g in genotypes)
        for genotype in genotypes:
            latency = engine.latency_ms(genotype)
            assert engine.cost(genotype, "latency") == latency
            assert engine.latency_ms(genotype, TINY) == latency
            assert engine.evaluate(genotype, with_latency=True)[
                "latency"] == latency
            assert latency == estimator.estimate_ms(canonicalize(genotype))
        table = engine.evaluate_population(genotypes, with_latency=True)
        np.testing.assert_array_equal(
            table.column("latency"),
            [engine.cost(g, "latency") for g in genotypes])
        assert engine.cost_model("latency").estimator is estimator
        assert built == []

    def test_engine_takes_its_macro_config_from_a_given_estimator(self):
        """Latency and FLOPs price one network: the given estimator's."""
        from repro.errors import HardwareModelError
        from repro.hardware.latency import LatencyEstimator
        from repro.proxies.flops import count_flops
        from repro.searchspace.canonical import canonicalize
        from repro.searchspace.genotype import Genotype

        config = MacroConfig(init_channels=4, cells_per_stage=1, image_size=8)
        estimator = LatencyEstimator(config=config)
        engine = HybridObjective(latency_estimator=estimator).engine
        genotype = Genotype.from_index(1312)
        assert engine.macro_config == config
        assert engine.flops(genotype) == count_flops(canonicalize(genotype),
                                                     config)
        assert engine.latency_ms(genotype) == estimator.estimate_ms(
            canonicalize(genotype))
        assert Engine(macro_config=config,
                      latency_estimator=estimator).macro_config == config
        with pytest.raises(HardwareModelError):
            Engine(macro_config=MacroConfig.full(),
                   latency_estimator=estimator)

    def test_config_forms_read_the_axis_models(self, engine, heavy_genotype):
        """``latency_ms``/``flops`` under another macro configuration
        price through one model per (axis, configuration)."""
        from repro.proxies.flops import count_flops
        from repro.searchspace.canonical import canonicalize

        other = MacroConfig(init_channels=8, cells_per_stage=1,
                            num_classes=10, input_channels=3, image_size=8)
        canon = canonicalize(heavy_genotype)
        assert engine.flops(heavy_genotype, other) == \
            float(count_flops(canon, other))
        assert engine.flops(heavy_genotype, other) != \
            engine.flops(heavy_genotype)
        latency = engine.latency_ms(heavy_genotype, other)
        assert latency != engine.latency_ms(heavy_genotype)
        assert latency == engine.latency_ms(heavy_genotype, other)
        estimator = engine._estimator_for(other)
        assert latency == estimator.estimate_ms(canon)

    def test_energy_monotone_in_latency(self, engine, heavy_genotype,
                                        light_genotype):
        assert engine.cost(heavy_genotype, "energy") > \
            engine.cost(light_genotype, "energy")
        assert engine.cost(heavy_genotype, "latency") > \
            engine.cost(light_genotype, "latency")

    def test_peak_mem_matches_planner(self, engine, heavy_genotype):
        from repro.hardware.memplan import plan_memory, tensor_lifetimes
        from repro.searchspace.canonical import canonicalize

        canon = canonicalize(heavy_genotype)
        expected = plan_memory(tensor_lifetimes(canon, TINY),
                               "greedy_by_size").arena_bytes
        assert engine.cost(heavy_genotype, "peak-mem") == float(expected)

    def test_build_cost_model_standalone(self, heavy_genotype):
        model = build_cost_model("peak-mem", device=NUCLEO_F746ZG,
                                 macro_config=TINY)
        assert model.estimate(heavy_genotype) > 0


class TestWeightsGeneralization:
    def test_costs_mapping_normalized_sorted(self):
        w = ObjectiveWeights(costs={"peak-mem": 2.0, "energy": 1.0})
        assert w.costs == (("energy", 1.0), ("peak-mem", 2.0))
        assert w == ObjectiveWeights(costs=(("peak-mem", 2.0),
                                            ("energy", 1.0)))

    def test_builtin_shadowing_rejected(self):
        with pytest.raises(SearchError, match="shadows a built-in"):
            ObjectiveWeights(costs={"latency": 1.0})

    def test_duplicate_axes_rejected(self):
        with pytest.raises(SearchError, match="duplicate"):
            ObjectiveWeights(costs=(("energy", 1.0), ("energy", 2.0)))

    def test_scaled_hardware_scales_extra_axes(self):
        w = ObjectiveWeights(flops=0.5, latency=0.5,
                             costs={"energy": 1.0, "peak-mem": 0.0})
        scaled = w.scaled_hardware(2.0)
        assert scaled.flops == 1.0 and scaled.latency == 1.0
        assert scaled.cost_weights == {"energy": 2.0}
        # Trainless weights are never part of the hardware family.
        assert scaled.ntk == w.ntk and scaled.linear_regions == w.linear_regions

    def test_uses_costs_ignores_zero_weights(self):
        assert not ObjectiveWeights(costs={"energy": 0.0}).uses_costs
        assert ObjectiveWeights(costs={"energy": 0.1}).uses_costs


class TestObjectiveIntegration:
    @pytest.fixture(scope="class")
    def objective(self, tiny_proxy_config):
        engine = Engine(proxy_config=tiny_proxy_config, macro_config=TINY,
                        device=NUCLEO_F746ZG)
        return HybridObjective(
            weights=ObjectiveWeights(latency=0.5,
                                     costs={"energy": 1.0, "peak-mem": 1.0}),
            engine=engine)

    def test_indicator_rows_carry_cost_axes(self, objective, heavy_genotype):
        row = objective.genotype_indicators(heavy_genotype)
        assert row["energy"] > 0 and row["peak-mem"] > 0
        assert row["latency"] > 0

    def test_population_table_carries_cost_columns(self, objective,
                                                   heavy_genotype,
                                                   light_genotype):
        table = objective.evaluate_population([heavy_genotype,
                                               light_genotype])
        assert table.column("energy").shape == (2,)
        assert table.column("peak-mem").shape == (2,)
        assert np.all(table.column("energy") > 0)

    def test_scores_reflect_extra_axes(self, objective, heavy_genotype,
                                       light_genotype):
        scores = objective.score_genotypes([heavy_genotype, light_genotype])
        assert scores.shape == (2,)
        assert np.all(np.isfinite(scores))

    def test_default_weights_bit_identical_scores(self, tiny_proxy_config,
                                                  heavy_genotype,
                                                  light_genotype,
                                                  disconnected_genotype):
        """costs=() must reproduce the four-field rank combination
        exactly (the refactor's bit-identity guarantee)."""
        from repro.proxies.ranking import combine_ranks
        from repro.search.objective import _DIRECTIONS, _INF_SENTINEL

        engine = Engine(proxy_config=tiny_proxy_config, macro_config=TINY,
                        device=NUCLEO_F746ZG)
        objective = HybridObjective(
            weights=ObjectiveWeights(latency=0.5, flops=0.25), engine=engine)
        population = [heavy_genotype, light_genotype, disconnected_genotype]
        scores = objective.score_genotypes(population)
        rows = objective.evaluate_population(population).rows()
        columns = {}
        for name in ("ntk", "linear_regions", "flops", "latency"):
            raw = np.array([row[name] for row in rows], dtype=float)
            raw[~np.isfinite(raw)] = _INF_SENTINEL
            columns[name] = raw
        legacy = combine_ranks(
            columns, _DIRECTIONS,
            {"ntk": 1.0, "linear_regions": 1.0, "flops": 0.25,
             "latency": 0.5})
        assert scores.tolist() == legacy.tolist()

    def test_supernet_path_rejects_cost_axes(self, objective):
        from repro.searchspace.cell import EdgeSpec
        from repro.searchspace.genotype import NUM_EDGES
        from repro.searchspace.ops import CANDIDATE_OPS

        specs = [EdgeSpec(i, tuple(CANDIDATE_OPS)) for i in range(NUM_EDGES)]
        with pytest.raises(SearchError, match="genotype-level"):
            objective.supernet_indicators(specs)


class TestDeployPrecision:
    def test_entries(self):
        assert DEPLOY_PRECISIONS == {"float32": FLOAT32_DEPLOY,
                                     "int8": INT8_DEPLOY}
        assert resolve_deploy_precision("int8").kernel_precision == "int8"

    def test_unknown_name_rejected(self):
        with pytest.raises(SearchError, match="unknown deploy precision"):
            resolve_deploy_precision("bfloat16")

    def test_invalid_kernel_precision_rejected(self):
        with pytest.raises(SearchError, match="unknown kernel precision"):
            DeployPrecision(name="x", kernel_precision="float16")
