"""MicroNAS pruning search (slow-ish: uses the tiny proxy config)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.benchconfig import reduced_proxy_config
from repro.search.constraints import ConstraintChecker, HardwareConstraints
from repro.search.objective import HybridObjective, ObjectiveWeights
from repro.search.pruning import MicroNASSearch, _connectable
from repro.search.tenas import TENASSearch
from repro.searchspace.features import extract_features
from repro.searchspace.genotype import Genotype
from repro.searchspace.network import MacroConfig
from repro.searchspace.ops import CANDIDATE_OPS
from repro.searchspace.specs import EdgeSpec
from repro.errors import SearchError


@pytest.fixture()
def objective(tiny_proxy_config, shared_latency_estimator):
    return HybridObjective(
        proxy_config=tiny_proxy_config,
        weights=ObjectiveWeights(latency=0.5),
        macro_config=MacroConfig.full(),
        latency_estimator=shared_latency_estimator,
    )


@pytest.fixture(scope="module")
def micronas_result(tiny_proxy_config, shared_latency_estimator):
    objective = HybridObjective(
        proxy_config=tiny_proxy_config,
        weights=ObjectiveWeights(latency=0.5),
        macro_config=MacroConfig.full(),
        latency_estimator=shared_latency_estimator,
    )
    return MicroNASSearch(objective, seed=0).search()


class TestSearchMechanics:
    def test_returns_concrete_genotype(self, micronas_result):
        assert isinstance(micronas_result.genotype, Genotype)
        assert len(micronas_result.genotype.ops) == 6

    def test_history_records_rounds(self, micronas_result):
        rounds = [h for h in micronas_result.history if "round" in h]
        assert len(rounds) == len(CANDIDATE_OPS) - 1  # 4 pruning rounds
        assert rounds[0]["num_candidates"] == 6 * len(CANDIDATE_OPS)
        assert rounds[-1]["num_candidates"] == 6 * 2

    def test_each_round_removes_one_op_per_edge(self, micronas_result):
        rounds = [h for h in micronas_result.history if "round" in h]
        for h in rounds:
            assert set(h["removed"].keys()) == set(range(6))

    def test_cost_ledger_populated(self, micronas_result):
        assert micronas_result.ledger.counts["pruning_candidates"] == 30 + 24 + 18 + 12
        assert micronas_result.ledger.seconds["ntk_eval"] > 0
        assert micronas_result.wall_seconds > 0

    def test_indicators_reported(self, micronas_result):
        assert "ntk" in micronas_result.indicators
        assert micronas_result.indicators["flops"] > 0

    def test_weights_recorded(self, micronas_result):
        assert micronas_result.weights_used["latency"] == 0.5

    def test_deterministic_given_seed(self, objective):
        a = MicroNASSearch(objective, seed=0).search().genotype
        b = MicroNASSearch(objective.with_weights(objective.weights),
                           seed=0).search().genotype
        assert a == b

    def test_too_few_ops_rejected(self, objective):
        with pytest.raises(SearchError):
            MicroNASSearch(objective, candidate_ops=("none",))

    def test_restricted_op_set(self, tiny_proxy_config):
        obj = HybridObjective(proxy_config=tiny_proxy_config)
        result = MicroNASSearch(
            obj, candidate_ops=("none", "skip_connect", "nor_conv_1x1"), seed=0
        ).search()
        assert set(result.genotype.ops) <= {"none", "skip_connect", "nor_conv_1x1"}


class TestHardwareAwareness:
    def test_latency_weight_reduces_latency(self, tiny_proxy_config,
                                            shared_latency_estimator):
        proxy_only = TENASSearch(proxy_config=tiny_proxy_config, seed=0).search()
        hw = HybridObjective(
            proxy_config=tiny_proxy_config,
            weights=ObjectiveWeights(latency=2.0),
            latency_estimator=shared_latency_estimator,
        )
        hw_result = MicroNASSearch(hw, seed=0).search()
        lat_proxy = shared_latency_estimator.estimate_ms(proxy_only.genotype)
        lat_hw = shared_latency_estimator.estimate_ms(hw_result.genotype)
        assert lat_hw < lat_proxy

    def test_constraint_adaptation_reaches_feasibility(self, tiny_proxy_config,
                                                       shared_latency_estimator):
        # A latency bound the proxy-only result would violate.
        constraints = HardwareConstraints(max_latency_ms=400.0)
        objective = HybridObjective(
            proxy_config=tiny_proxy_config,
            weights=ObjectiveWeights(),  # hardware weights start at zero
            latency_estimator=shared_latency_estimator,
        )
        searcher = MicroNASSearch(objective, seed=0)
        checker = ConstraintChecker(constraints,
                                    latency_estimator=shared_latency_estimator)
        result = searcher.search_with_constraints(constraints, checker=checker,
                                                  max_outer_rounds=3)
        outer = [h for h in result.history if "outer_round" in h]
        assert outer, "outer adaptation history missing"
        assert checker.total_violation(result.genotype) < 0.5  # near-feasible

    def test_constrained_search_computes_on_the_engine_executor(
            self, tiny_proxy_config, shared_latency_estimator):
        """The outer loop's inner searches run on the objective engine's
        executor: every supernet row comes from its worker."""
        from repro.engine import Engine
        from repro.runtime.async_pool import AsyncPopulationExecutor
        from repro.runtime.pool import _evaluate_supernet_chunk

        computed = []

        def counting_worker(payload):
            rows = _evaluate_supernet_chunk(payload)
            computed.extend(state for state, _, _ in rows)
            return rows

        executor = AsyncPopulationExecutor(n_workers=1,
                                           supernet_worker=counting_worker)
        engine = Engine(proxy_config=tiny_proxy_config,
                        latency_estimator=shared_latency_estimator,
                        executor=executor)
        objective = HybridObjective(weights=ObjectiveWeights(), engine=engine)
        constraints = HardwareConstraints(max_latency_ms=400.0)
        checker = ConstraintChecker(constraints,
                                    latency_estimator=shared_latency_estimator)
        MicroNASSearch(objective, seed=0).search_with_constraints(
            constraints, checker=checker, max_outer_rounds=2)
        cached = [key[1] for key, _ in engine.cache.items()
                  if key[0] == "supernet_ntk"]
        assert computed
        assert sorted(computed) == sorted(cached)


class TestTENAS:
    def test_tenas_ignores_hardware(self, tiny_proxy_config):
        search = TENASSearch(proxy_config=tiny_proxy_config, seed=0)
        assert search.objective.weights.flops == 0.0
        assert search.objective.weights.latency == 0.0
        assert search.algorithm_name == "tenas"

    def test_tenas_from_existing_objective(self, objective):
        search = TENASSearch(objective=objective)
        assert search.objective.weights.latency == 0.0


class TestConnectivityGuard:
    """The search never returns a cell with no path of non-``none`` ops
    from the input node to the output node."""

    @settings(max_examples=40, deadline=None)
    @given(index=st.integers(0, 15624))
    def test_connectable_matches_the_cell_graph_on_decided_states(self,
                                                                  index):
        genotype = Genotype.from_index(index)
        specs = [EdgeSpec(i, (op,)) for i, op in enumerate(genotype.ops)]
        assert _connectable(specs) == extract_features(genotype).is_connected

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 63),
           flops=st.sampled_from([0.0, 0.5, 2.0, 8.0]),
           latency=st.sampled_from([0.0, 0.5, 0.75, 8.0]))
    def test_final_cell_is_connected(self, tiny_proxy_config,
                                     shared_latency_estimator, seed, flops,
                                     latency):
        objective = HybridObjective(
            proxy_config=replace(tiny_proxy_config, seed=seed),
            weights=ObjectiveWeights(flops=flops, latency=latency),
            latency_estimator=shared_latency_estimator)
        result = MicroNASSearch(objective, seed=seed).search()
        assert extract_features(result.genotype).is_connected
        for record in result.history:
            for edge, op in record.get("passed_over", {}).items():
                assert op != record["removed"][edge]

    def test_heavy_hardware_weights_meet_the_guard(self, tiny_proxy_config):
        """FLOPs favour ``none``; with a heavy FLOPs weight the unguarded
        search prunes every live op, and the guard passes that over."""
        objective = HybridObjective(proxy_config=tiny_proxy_config,
                                    weights=ObjectiveWeights(flops=50.0))
        result = MicroNASSearch(objective, seed=0).search()
        assert extract_features(result.genotype).is_connected
        assert any("passed_over" in record for record in result.history)

    @pytest.mark.parametrize("seed, arch, guarded", [(0, 1312, False),
                                                     (2, 3131, True)])
    def test_reduced_config_regressions(self, seed, arch, guarded):
        """Seed 2 at weights (0.5, 0.5) returned arch 6
        (``skip_connect, skip_connect, none, none, none, none``) before the
        guard; seed 0 meets no guard and still returns arch 1312."""
        objective = HybridObjective(
            proxy_config=reduced_proxy_config(seed=seed),
            weights=ObjectiveWeights(flops=0.5, latency=0.5))
        result = MicroNASSearch(objective, seed=seed).search()
        assert extract_features(result.genotype).is_connected
        assert result.genotype.to_index() == arch
        assert any("passed_over" in record
                   for record in result.history) == guarded
