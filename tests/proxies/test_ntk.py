"""NTK proxy: spectrum math, determinism, mode consistency, semantics."""

import numpy as np
import pytest

from repro.errors import ProxyError
from repro.proxies.base import ProxyConfig
from repro.proxies.ntk import (
    NtkResult,
    compute_ntk_gram,
    condition_numbers,
    ntk_condition_number,
    ntk_spectrum,
    supernet_ntk_condition_number,
)
from repro.searchspace.cell import EdgeSpec
from repro.searchspace.genotype import Genotype
from repro.searchspace.network import build_network
from repro.searchspace.ops import CANDIDATE_OPS


class TestNtkResult:
    def test_k1_is_classic_condition_number(self):
        res = NtkResult(np.array([100.0, 10.0, 2.0]), batch_size=3)
        assert res.condition_number == 50.0
        assert res.k(1) == 50.0

    def test_k_indexing_from_smallest(self):
        res = NtkResult(np.array([100.0, 10.0, 2.0]), batch_size=3)
        assert res.k(2) == 10.0
        assert res.k(3) == 1.0  # lambda_max / lambda_max

    def test_k_out_of_range(self):
        res = NtkResult(np.array([1.0, 1.0]), batch_size=2)
        with pytest.raises(ProxyError):
            res.k(0)
        with pytest.raises(ProxyError):
            res.k(3)

    def test_singular_kernel_is_infinite(self):
        res = NtkResult(np.array([5.0, 0.0]), batch_size=2)
        assert res.condition_number == float("inf")

    def test_zero_kernel_is_infinite(self):
        res = NtkResult(np.array([0.0, 0.0]), batch_size=2)
        assert res.condition_number == float("inf")

    def test_condition_numbers_helper(self):
        gram = np.diag([9.0, 3.0, 1.0])
        ks = condition_numbers(gram, 3)
        assert np.allclose(ks, [9.0, 3.0, 1.0])

    def test_condition_numbers_promote_float32_gram(self, rng):
        """Under the float32 policy the helper eigensolves in the
        accumulate dtype (float64), like every other NTK path."""
        from repro.autograd.precision import precision

        jac = rng.normal(size=(8, 40)).astype(np.float32)
        gram = jac @ jac.T
        assert gram.dtype == np.float32
        promoted = np.linalg.eigvalsh(gram.astype(np.float64))[::-1]
        expected = [NtkResult(promoted, batch_size=8).k(i)
                    for i in range(1, 9)]
        with precision("float32"):
            ks = condition_numbers(gram, 8)
        assert ks.tolist() == expected


class TestGramComputation:
    def test_gram_symmetric_psd(self, tiny_proxy_config, heavy_genotype, rng):
        net = build_network(heavy_genotype, tiny_proxy_config.macro_config(), rng=0)
        images = rng.normal(size=(6, 3, 8, 8))
        gram = compute_ntk_gram(net, images)
        assert gram.shape == (6, 6)
        assert np.allclose(gram, gram.T)
        assert np.linalg.eigvalsh(gram).min() > -1e-6

    def test_gram_linear_model_exact(self, rng):
        # For f(x) = w.x (no hidden layers), NTK[i,j] = x_i . x_j exactly.
        from repro import nn
        net = nn.Sequential(nn.Flatten(), nn.Linear(12, 1, bias=False, rng=0))
        images = rng.normal(size=(5, 3, 2, 2))
        gram = compute_ntk_gram(net, images)
        flat = images.reshape(5, -1)
        assert np.allclose(gram, flat @ flat.T, atol=1e-8)

    def test_coupled_and_frozen_agree_without_bn(self, rng):
        from repro import nn
        net1 = nn.Sequential(nn.Flatten(), nn.Linear(12, 3, rng=1))
        net2 = nn.Sequential(nn.Flatten(), nn.Linear(12, 3, rng=1))
        images = rng.normal(size=(4, 3, 2, 2))
        g_frozen = compute_ntk_gram(net1, images, mode="batched")
        g_coupled = compute_ntk_gram(net2, images, mode="coupled")
        assert np.allclose(g_frozen, g_coupled, atol=1e-8)

    def test_parameterless_network_rejected(self, rng):
        from repro import nn
        net = nn.Sequential(nn.ReLU())
        with pytest.raises(ProxyError):
            compute_ntk_gram(net, rng.normal(size=(2, 3, 4, 4)))


class TestGenotypeLevel:
    def test_deterministic(self, tiny_proxy_config, heavy_genotype):
        a = ntk_condition_number(heavy_genotype, tiny_proxy_config)
        b = ntk_condition_number(heavy_genotype, tiny_proxy_config)
        assert a == b

    def test_different_seeds_differ(self, tiny_proxy_config, heavy_genotype):
        a = ntk_condition_number(heavy_genotype, tiny_proxy_config)
        b = ntk_condition_number(heavy_genotype, tiny_proxy_config.with_seed(99))
        assert a != b

    def test_disconnected_arch_infinite(self, tiny_proxy_config,
                                        disconnected_genotype):
        # Cell output is constant zero -> logits barely depend on most params.
        kappa = ntk_condition_number(disconnected_genotype, tiny_proxy_config)
        assert kappa > 1e3 or np.isinf(kappa)

    def test_spectrum_batch_size(self, tiny_proxy_config, heavy_genotype):
        res = ntk_spectrum(heavy_genotype, tiny_proxy_config)
        assert res.batch_size == tiny_proxy_config.ntk_batch_size
        assert res.eigenvalues.shape == (tiny_proxy_config.ntk_batch_size,)
        assert np.all(np.diff(res.eigenvalues) <= 1e-9)  # descending

    def test_supplied_images_resized(self, tiny_proxy_config, heavy_genotype, rng):
        images = rng.normal(size=(8, 3, 32, 32))
        res = ntk_spectrum(heavy_genotype, tiny_proxy_config, images=images)
        assert res.batch_size == 8

    def test_repeats_average(self, tiny_proxy_config, heavy_genotype):
        import dataclasses
        cfg3 = dataclasses.replace(tiny_proxy_config, repeats=2)
        val = ntk_condition_number(heavy_genotype, cfg3)
        assert np.isfinite(val) and val > 1.0


class TestSupernetLevel:
    def test_full_supernet_finite(self, tiny_proxy_config):
        specs = [EdgeSpec(i, CANDIDATE_OPS) for i in range(6)]
        kappa = supernet_ntk_condition_number(specs, tiny_proxy_config)
        assert np.isfinite(kappa) and kappa > 1.0

    def test_deterministic(self, tiny_proxy_config):
        specs = [EdgeSpec(i, CANDIDATE_OPS) for i in range(6)]
        a = supernet_ntk_condition_number(specs, tiny_proxy_config)
        b = supernet_ntk_condition_number(specs, tiny_proxy_config)
        assert a == b

    def test_depends_on_alive_set(self, tiny_proxy_config):
        full = [EdgeSpec(i, CANDIDATE_OPS) for i in range(6)]
        pruned = [spec.without("nor_conv_3x3") for spec in full]
        a = supernet_ntk_condition_number(full, tiny_proxy_config)
        b = supernet_ntk_condition_number(pruned, tiny_proxy_config)
        assert a != b
