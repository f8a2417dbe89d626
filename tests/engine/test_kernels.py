"""Vectorized kernels agree with the per-sample / per-line reference paths."""

import numpy as np
import pytest

from repro.engine.kernels import (
    batched_condition_numbers,
    batched_count_line_regions,
    batched_eigvalsh,
    batched_ntk_jacobian,
)
from repro.errors import ProxyError
from repro.proxies.linear_regions import (
    LinearRegionNetwork,
    _regions_along_line,
    count_line_regions,
    supernet_line_regions,
)
from repro.proxies.ntk import (
    compute_ntk_gram,
    ntk_condition_number,
    supernet_ntk_condition_number,
)
from repro.searchspace.cell import EdgeSpec
from repro.searchspace.genotype import Genotype
from repro.searchspace.network import build_network
from repro.searchspace.ops import CANDIDATE_OPS


def _reference_jacobian(network, images):
    """Per-sample frozen-BN Jacobian exactly as the reference loop builds it."""
    from repro.proxies.ntk import _collect_param_grads, _freeze_batch_stats
    from repro.autograd import Tensor

    _freeze_batch_stats(network, images)
    params = network.parameters()
    jacobian = np.empty((images.shape[0], sum(p.size for p in params)))
    for i in range(images.shape[0]):
        for p in params:
            p.zero_grad()
        output = network(Tensor(images[i: i + 1]))
        output.backward(np.ones_like(output.data))
        jacobian[i] = _collect_param_grads(params)
        output.clear_tape_grads()
    return jacobian


class TestNtkJacobianEquivalence:
    def test_jacobian_matches_reference(self, tiny_proxy_config,
                                        heavy_genotype, rng):
        images = rng.normal(size=(6, 3, 8, 8))
        net_ref = build_network(heavy_genotype,
                                tiny_proxy_config.macro_config(), rng=0)
        net_bat = build_network(heavy_genotype,
                                tiny_proxy_config.macro_config(), rng=0)
        j_ref = _reference_jacobian(net_ref, images)
        net_bat.train(False)
        j_bat = batched_ntk_jacobian(net_bat, images)
        assert j_bat.shape == j_ref.shape
        np.testing.assert_allclose(j_bat, j_ref, rtol=1e-9, atol=1e-12)

    def test_gram_modes_agree(self, tiny_proxy_config, light_genotype, rng):
        images = rng.normal(size=(5, 3, 8, 8))
        grams = {}
        for mode in ("reference", "batched"):
            net = build_network(light_genotype,
                                tiny_proxy_config.macro_config(), rng=3)
            grams[mode] = compute_ntk_gram(net, images, mode=mode)
        scale = np.abs(grams["reference"]).max()
        assert np.abs(grams["batched"] - grams["reference"]).max() / scale < 1e-9

    def test_condition_number_within_tolerance(self, tiny_proxy_config,
                                               heavy_genotype):
        ref = ntk_condition_number(heavy_genotype,
                                   tiny_proxy_config.reference())
        bat = ntk_condition_number(heavy_genotype, tiny_proxy_config)
        assert abs(bat - ref) / ref < 1e-6

    def test_supernet_condition_number_within_tolerance(self,
                                                        tiny_proxy_config):
        specs = [EdgeSpec(i, CANDIDATE_OPS) for i in range(6)]
        ref = supernet_ntk_condition_number(specs,
                                            tiny_proxy_config.reference())
        bat = supernet_ntk_condition_number(specs, tiny_proxy_config)
        assert abs(bat - ref) / ref < 1e-6

    def test_disconnected_still_pathological(self, tiny_proxy_config,
                                             disconnected_genotype):
        kappa = ntk_condition_number(disconnected_genotype, tiny_proxy_config)
        assert kappa > 1e3 or np.isinf(kappa)

    def test_unknown_mode_rejected(self, tiny_proxy_config, heavy_genotype,
                                   rng):
        net = build_network(heavy_genotype, tiny_proxy_config.macro_config(),
                            rng=0)
        with pytest.raises(ProxyError):
            compute_ntk_gram(net, rng.normal(size=(2, 3, 8, 8)), mode="nope")

    def test_batched_restores_network_state(self, tiny_proxy_config,
                                            heavy_genotype, rng):
        from repro.nn.layers.norm import BatchNorm2d
        net = build_network(heavy_genotype, tiny_proxy_config.macro_config(),
                            rng=0)
        compute_ntk_gram(net, rng.normal(size=(4, 3, 8, 8)), mode="batched")
        for p in net.parameters():
            assert p.requires_grad
        for module in net.modules():
            if isinstance(module, BatchNorm2d):
                assert not module.freeze_stats_on_forward
        for module in net.modules():
            assert not module.__dict__.get("_forward_hooks")


class TestLineCountingEquivalence:
    def test_batched_counts_bit_identical_per_line(self, rng):
        network = LinearRegionNetwork.from_genotype(
            Genotype(("nor_conv_3x3",) * 6), channels=3, num_cells=1, rng=5
        )
        shape = (3, 4, 4)
        starts = rng.normal(size=(6, *shape)) * 2.0
        stops = rng.normal(size=(6, *shape)) * 2.0
        batched = batched_count_line_regions(network, starts, stops, 24)
        reference = [
            _regions_along_line(network, starts[i], stops[i], 24)
            for i in range(6)
        ]
        assert list(batched) == reference

    def test_count_line_regions_modes_equal(self, tiny_proxy_config,
                                            heavy_genotype):
        assert count_line_regions(heavy_genotype, tiny_proxy_config) == \
            count_line_regions(heavy_genotype, tiny_proxy_config.reference())

    def test_supernet_line_regions_modes_equal(self, tiny_proxy_config):
        edge_op_sets = [tuple(CANDIDATE_OPS)] * 6
        assert supernet_line_regions(edge_op_sets, tiny_proxy_config) == \
            supernet_line_regions(edge_op_sets, tiny_proxy_config.reference())

    def test_mismatched_endpoints_rejected(self, rng):
        network = LinearRegionNetwork.from_genotype(
            Genotype(("skip_connect",) * 6), channels=2, num_cells=1, rng=0
        )
        with pytest.raises(ProxyError):
            batched_count_line_regions(
                network, rng.normal(size=(2, 3, 4, 4)),
                rng.normal(size=(3, 3, 4, 4)), 8
            )


class TestBatchedEigensolve:
    def _grams(self, rng, n=7, b=8):
        mats = rng.normal(size=(n, b, b))
        return np.einsum("nij,nkj->nik", mats, mats)

    def test_stacked_eigvalsh_bit_identical_per_matrix(self, rng):
        grams = self._grams(rng)
        batched = batched_eigvalsh(grams)
        per_matrix = np.stack([np.linalg.eigvalsh(g) for g in grams])
        np.testing.assert_array_equal(batched, per_matrix)

    def test_condition_numbers_match_per_candidate_path(self, rng):
        from repro.proxies.ntk import NtkResult

        grams = self._grams(rng)
        for k_index in (1, 2, 5):
            batched = batched_condition_numbers(grams, k_index=k_index)
            reference = [
                NtkResult(np.linalg.eigvalsh(g)[::-1].copy(), g.shape[0])
                .k(k_index)
                for g in grams
            ]
            assert list(batched) == reference

    def test_singular_grams_map_to_inf(self, rng):
        mats = rng.normal(size=(3, 6, 2))  # rank 2 < 6: singular Grams
        grams = np.einsum("nij,nkj->nik", mats, mats)
        values = batched_condition_numbers(grams, k_index=1)
        assert np.all(np.isinf(values))

    def test_shape_and_index_validation(self, rng):
        with pytest.raises(ProxyError):
            batched_eigvalsh(rng.normal(size=(4, 4)))
        with pytest.raises(ProxyError):
            batched_eigvalsh(rng.normal(size=(2, 4, 3)))
        with pytest.raises(ProxyError):
            batched_condition_numbers(self._grams(rng, n=2, b=4), k_index=5)
