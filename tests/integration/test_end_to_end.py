"""Cross-module integration: the paper's full pipeline at reduced scale."""

import numpy as np
import pytest

from repro.benchdata import SurrogateBenchmarkAPI, SurrogateModel
from repro.data import get_dataset
from repro.eval import kendall_tau
from repro.hardware import LatencyEstimator, MemoryEstimator
from repro.proxies import ProxyConfig
from repro.proxies.linear_regions import count_line_regions
from repro.proxies.ntk import ntk_condition_number, ntk_spectrum
from repro.search import (
    ConstrainedEvolutionarySearch,
    EvolutionConfig,
    HybridObjective,
    MicroNASSearch,
    ObjectiveWeights,
    TENASSearch,
)
from repro.searchspace import NasBench201Space
from repro.searchspace.network import MacroConfig

pytestmark = pytest.mark.slow  # skipped by the -m 'not slow' fast lane


class TestProxyAccuracyCorrelation:
    """The premise of zero-shot NAS: indicators rank like trained accuracy."""

    @pytest.fixture(scope="class")
    def sample_with_metrics(self, tiny_proxy_config):
        # The NTK signal needs a slightly wider proxy network and batch than
        # the ultra-tiny unit-test config (exactly the batch-size effect the
        # paper studies in Fig. 2b), so widen just for this premise test.
        config = ProxyConfig(init_channels=8, cells_per_stage=1, input_size=8,
                             ntk_batch_size=16, lr_num_samples=32,
                             lr_input_size=4, lr_channels=2, seed=7)
        space = NasBench201Space()
        surrogate = SurrogateModel()
        archs = space.sample(24, rng=77)
        kappas, regions, accs = [], [], []
        for g in archs:
            kappa = ntk_condition_number(g, config)
            kappas.append(1e12 if np.isinf(kappa) else kappa)
            regions.append(count_line_regions(g, config))
            accs.append(surrogate.mean_accuracy(g, "cifar10"))
        return kappas, regions, accs

    def test_ntk_negatively_rank_correlates(self, sample_with_metrics):
        kappas, _, accs = sample_with_metrics
        assert kendall_tau([-k for k in kappas], accs) > 0.2

    def test_linear_regions_positively_rank_correlates(self, sample_with_metrics):
        _, regions, accs = sample_with_metrics
        assert kendall_tau(regions, accs) > 0.2


class TestDatasetDrivenProxies:
    def test_ntk_on_real_dataset_batches(self, tiny_proxy_config, heavy_genotype):
        images, _ = get_dataset("cifar10").batch(8, rng=0)
        res = ntk_spectrum(heavy_genotype, tiny_proxy_config, images=images)
        assert np.isfinite(res.condition_number)

    def test_imagenet16_batch_matches_proxy_input(self, tiny_proxy_config,
                                                  heavy_genotype):
        images, _ = get_dataset("imagenet16-120").batch(8, rng=0)
        res = ntk_spectrum(heavy_genotype, tiny_proxy_config, images=images)
        assert res.batch_size == 8


class TestFullSearchPipeline:
    def test_micronas_beats_tenas_on_latency_at_similar_accuracy(
        self, shared_latency_estimator
    ):
        """The paper's headline comparison at reduced proxy scale.

        Uses the benchmark-scale proxy config: the ultra-tiny unit-test
        config is too noisy for end-to-end search comparisons.
        """
        search_config = ProxyConfig(init_channels=4, cells_per_stage=1,
                                    input_size=8, ntk_batch_size=16,
                                    lr_num_samples=64, lr_input_size=4,
                                    lr_channels=3, seed=7)
        surrogate = SurrogateModel()
        tenas = TENASSearch(proxy_config=search_config).search()
        objective = HybridObjective(
            proxy_config=search_config,
            weights=ObjectiveWeights(latency=0.6),
            latency_estimator=shared_latency_estimator,
        )
        micronas = MicroNASSearch(objective).search()

        lat_tenas = shared_latency_estimator.estimate_ms(tenas.genotype)
        lat_micronas = shared_latency_estimator.estimate_ms(micronas.genotype)
        acc_tenas = surrogate.mean_accuracy(tenas.genotype)
        acc_micronas = surrogate.mean_accuracy(micronas.genotype)

        assert lat_micronas < lat_tenas
        assert acc_micronas > acc_tenas - 6.0  # tiny proxies: loose band

    def test_zero_shot_orders_of_magnitude_cheaper_than_evolution(
        self, tiny_proxy_config
    ):
        """Claim C1 at reduced scale: >=100x cost gap even in miniature."""
        tenas = TENASSearch(proxy_config=tiny_proxy_config).search()
        evo = ConstrainedEvolutionarySearch(
            EvolutionConfig(population_size=20, sample_size=5, cycles=100),
            seed=0,
        ).search()
        assert evo.search_gpu_hours / max(tenas.search_gpu_hours, 1e-9) > 100.0

    def test_memory_and_latency_consistent_views(self, heavy_genotype,
                                                 light_genotype,
                                                 shared_latency_estimator):
        mem = MemoryEstimator(MacroConfig.full())
        assert mem.report(heavy_genotype).flash_bytes > \
            mem.report(light_genotype).flash_bytes
        assert shared_latency_estimator.estimate_ms(heavy_genotype) > \
            shared_latency_estimator.estimate_ms(light_genotype)


class TestBenchmarkApiIntegration:
    def test_api_agrees_with_direct_surrogate(self, heavy_genotype):
        api = SurrogateBenchmarkAPI(datasets=["cifar10"], seeds=(0, 1, 2))
        direct = SurrogateModel().mean_accuracy(heavy_genotype, "cifar10",
                                                seeds=range(3))
        assert api.accuracy(heavy_genotype) == pytest.approx(direct)
