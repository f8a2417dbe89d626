"""Hybrid objective: indicators, expected costs, rank combination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.proxies.flops import count_flops
from repro.search.objective import HybridObjective, ObjectiveWeights
from repro.searchspace.cell import EdgeSpec
from repro.searchspace.genotype import Genotype
from repro.searchspace.network import MacroConfig
from repro.searchspace.ops import CANDIDATE_OPS


@pytest.fixture(scope="module")
def objective(tiny_proxy_config, shared_latency_estimator):
    return HybridObjective(
        proxy_config=tiny_proxy_config,
        weights=ObjectiveWeights(latency=0.5, flops=0.5),
        macro_config=MacroConfig.full(),
        latency_estimator=shared_latency_estimator,
    )


class TestWeights:
    def test_defaults_no_hardware(self):
        w = ObjectiveWeights()
        assert not w.uses_flops and not w.uses_latency

    def test_scaled_hardware(self):
        w = ObjectiveWeights(flops=0.5, latency=0.25).scaled_hardware(2.0)
        assert w.flops == 1.0 and w.latency == 0.5
        assert w.ntk == 1.0  # proxies untouched

    def test_with_weights_shares_estimator_and_ledger(self, objective):
        clone = objective.with_weights(ObjectiveWeights())
        assert clone.built_latency_estimator is objective.built_latency_estimator
        assert clone.built_latency_estimator is not None
        assert clone.ledger is objective.ledger


class TestGenotypeIndicators:
    def test_all_indicators_present(self, objective, heavy_genotype):
        ind = objective.genotype_indicators(heavy_genotype)
        assert set(ind) == {"ntk", "linear_regions", "flops", "latency"}
        assert ind["flops"] == count_flops(heavy_genotype, objective.macro_config)
        assert ind["latency"] > 0

    def test_ledger_records_evaluations(self, tiny_proxy_config,
                                        shared_latency_estimator, heavy_genotype):
        obj = HybridObjective(proxy_config=tiny_proxy_config,
                              latency_estimator=shared_latency_estimator)
        obj.genotype_indicators(heavy_genotype)
        assert obj.ledger.counts.get("ntk_eval") == 1
        assert obj.ledger.counts.get("lr_eval") == 1

    def test_latency_skipped_when_unweighted(self, tiny_proxy_config,
                                             heavy_genotype):
        obj = HybridObjective(proxy_config=tiny_proxy_config)
        ind = obj.genotype_indicators(heavy_genotype)
        assert ind["latency"] == 0.0


class TestExpectedCosts:
    def test_expected_flops_matches_concrete_for_singletons(self, objective,
                                                            heavy_genotype):
        specs = [EdgeSpec(i, (op,)) for i, op in enumerate(heavy_genotype.ops)]
        expected = objective.expected_flops(specs)
        assert expected == pytest.approx(
            count_flops(heavy_genotype, objective.macro_config)
        )

    def test_expected_flops_decreases_when_pruning_conv(self, objective):
        full = [EdgeSpec(i, CANDIDATE_OPS) for i in range(6)]
        pruned = [spec.without("nor_conv_3x3") for spec in full]
        assert objective.expected_flops(pruned) < objective.expected_flops(full)

    def test_expected_latency_close_to_concrete_for_singletons(self, objective,
                                                               heavy_genotype):
        specs = [EdgeSpec(i, (op,)) for i, op in enumerate(heavy_genotype.ops)]
        expected = objective.expected_latency_ms(specs)
        concrete = objective.latency_estimator.estimate_ms(heavy_genotype)
        assert abs(expected - concrete) / concrete < 0.02

    def test_expected_latency_decreases_when_pruning_conv(self, objective):
        full = [EdgeSpec(i, CANDIDATE_OPS) for i in range(6)]
        pruned = [spec.without("nor_conv_3x3") for spec in full]
        assert objective.expected_latency_ms(pruned) < \
            objective.expected_latency_ms(full)


class TestRankCombination:
    def test_infinite_ntk_ranks_worst(self, objective):
        rows = [
            {"ntk": np.inf, "linear_regions": 10.0, "flops": 1.0, "latency": 1.0},
            {"ntk": 5.0, "linear_regions": 10.0, "flops": 1.0, "latency": 1.0},
        ]
        ranks = objective.combined_ranks(rows)
        assert ranks[1] < ranks[0]

    def test_hardware_weight_changes_winner(self, tiny_proxy_config,
                                            shared_latency_estimator):
        rows = [
            {"ntk": 5.0, "linear_regions": 20.0, "flops": 100.0, "latency": 100.0},
            {"ntk": 6.0, "linear_regions": 18.0, "flops": 1.0, "latency": 1.0},
        ]
        proxy_only = HybridObjective(tiny_proxy_config,
                                     ObjectiveWeights(),
                                     latency_estimator=shared_latency_estimator)
        assert proxy_only.combined_ranks(rows)[0] < \
            proxy_only.combined_ranks(rows)[1]
        hw_heavy = proxy_only.with_weights(
            ObjectiveWeights(flops=3.0, latency=3.0))
        assert hw_heavy.combined_ranks(rows)[1] < hw_heavy.combined_ranks(rows)[0]

    def test_score_genotypes_prefers_connected(self, objective, heavy_genotype,
                                               disconnected_genotype):
        scores = objective.score_genotypes([heavy_genotype, disconnected_genotype])
        assert scores[0] < scores[1]


# ----------------------------------------------------------------------
# Supernet pricing: memoized terms against the per-call formulation
# ----------------------------------------------------------------------
def _oracle_expected_flops(objective, edge_specs):
    """``expected_flops`` as it was written before its terms were memoized."""
    from repro.searchspace.ops import op_flops

    config = objective.macro_config
    total = float(count_flops(Genotype(("none",) * 6), config))
    for c, s in zip(config.stage_channels, config.stage_sizes):
        per_cell = 0.0
        for spec in edge_specs:
            if not spec.alive_ops:
                continue
            per_cell += np.mean([op_flops(op, c, s, s) for op in spec.alive_ops])
        total += config.cells_per_stage * per_cell
    return total


def _oracle_expected_latency_ms(objective, edge_specs):
    """``expected_latency_ms`` as it was written before its terms were
    memoized."""
    from repro.hardware.layers import op_layer
    from repro.searchspace.ops import EDGES, NUM_NODES

    estimator = objective.latency_estimator
    config = objective.macro_config
    total = estimator.estimate_ms(Genotype(("none",) * 6))
    lut = estimator.lut
    for c, s in zip(config.stage_channels, config.stage_sizes):
        per_cell = 0.0
        active_prob = [0.0] * len(EDGES)
        for spec in edge_specs:
            if not spec.alive_ops:
                continue
            entries = []
            for op in spec.alive_ops:
                layer = op_layer(op, c, s)
                entries.append(0.0 if layer is None else lut.lookup(layer))
            per_cell += float(np.mean(entries))
            active_prob[spec.edge_index] = np.mean(
                [op != "none" for op in spec.alive_ops])
        add_ms = lut.entries.get(("add", c, c, s, s, 1, 1), 0.0)
        for node in range(1, NUM_NODES):
            expected_in = sum(active_prob[idx]
                              for idx, (_, dst) in enumerate(EDGES)
                              if dst == node)
            per_cell += max(0.0, expected_in - 1.0) * add_ms
        total += config.cells_per_stage * per_cell
    return total


_PRICING_CONFIGS = (MacroConfig.full(),
                    MacroConfig(init_channels=4, cells_per_stage=1,
                                image_size=8))


@pytest.fixture(scope="module")
def pricing_objectives():
    from repro.hardware.device import NUCLEO_F746ZG, NUCLEO_L432KC
    from repro.hardware.latency import LatencyEstimator

    return [HybridObjective(weights=ObjectiveWeights(latency=0.5, flops=0.5),
                            latency_estimator=LatencyEstimator(
                                device=device, config=config))
            for device in (NUCLEO_F746ZG, NUCLEO_L432KC)
            for config in _PRICING_CONFIGS]


class TestMemoizedSupernetPricing:
    @settings(max_examples=40, deadline=None)
    @given(state=st.lists(
        st.lists(st.sampled_from(CANDIDATE_OPS), unique=True, max_size=5),
        min_size=6, max_size=6))
    def test_memoized_terms_price_as_the_per_call_formulation(
            self, pricing_objectives, state):
        specs = [EdgeSpec(i, tuple(ops)) for i, ops in enumerate(state)]
        for objective in pricing_objectives:
            assert objective.expected_flops(specs).hex() == \
                _oracle_expected_flops(objective, specs).hex()
            assert objective.expected_latency_ms(specs).hex() == \
                _oracle_expected_latency_ms(objective, specs).hex()

    def test_boards_and_configurations_never_share_a_term(
            self, pricing_objectives):
        """Four objectives, four prices for one state: no memo aliases
        another board or macro configuration."""
        specs = [EdgeSpec(i, ("nor_conv_3x3", "none")) for i in range(6)]
        latencies = {o.expected_latency_ms(specs) for o in pricing_objectives}
        flops = {o.expected_flops(specs) for o in pricing_objectives}
        assert len(latencies) == 4 and len(flops) == 2
