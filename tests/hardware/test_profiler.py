"""Simulated on-device profiler and LUT construction."""

import numpy as np
import pytest

from repro.errors import HardwareModelError
from repro.hardware import profiler as profiler_module
from repro.hardware.costmodel import CycleCostModel
from repro.hardware.device import NUCLEO_F746ZG, known_devices
from repro.hardware.layers import LayerOp, network_layers
from repro.hardware.profiler import LatencyLUT, OnDeviceProfiler, _median
from repro.searchspace.genotype import Genotype
from repro.searchspace.network import MacroConfig
from repro.searchspace.space import NasBench201Space


@pytest.fixture(scope="module")
def profiler():
    return OnDeviceProfiler(NUCLEO_F746ZG, repetitions=11, jitter_sigma=0.005, seed=0)


@pytest.fixture(scope="module")
def small_config():
    return MacroConfig(init_channels=4, cells_per_stage=1, image_size=8)


class TestMeasurement:
    def test_measurement_near_true_value(self, profiler):
        layer = LayerOp("conv", 16, 16, 16, 16, kernel=3)
        true_ms = CycleCostModel(NUCLEO_F746ZG).layer_ms(layer)
        measured = profiler.measure_layer_ms(layer)
        assert abs(measured - true_ms) / true_ms < 0.02

    def test_measurement_deterministic(self, profiler):
        layer = LayerOp("pool", 8, 8, 8, 8, kernel=3)
        assert profiler.measure_layer_ms(layer) == profiler.measure_layer_ms(layer)

    def test_different_seed_different_noise(self):
        layer = LayerOp("pool", 8, 8, 8, 8, kernel=3)
        a = OnDeviceProfiler(seed=0).measure_layer_ms(layer)
        b = OnDeviceProfiler(seed=1).measure_layer_ms(layer)
        assert a != b

    def test_overhead_measured(self, profiler):
        overhead = profiler.measure_network_overhead_ms()
        true_ms = NUCLEO_F746ZG.cycles_to_ms(NUCLEO_F746ZG.network_overhead_cycles)
        assert abs(overhead - true_ms) / true_ms < 0.02

    def test_invalid_repetitions(self):
        with pytest.raises(HardwareModelError):
            OnDeviceProfiler(repetitions=0)


class TestLutConstruction:
    def test_lut_covers_every_genotype(self, profiler, small_config):
        lut = profiler.build_lut(small_config)
        for idx in (0, 777, 15624):
            for layer in network_layers(Genotype.from_index(idx), small_config):
                assert layer in lut

    def test_lut_miss_raises_helpfully(self, profiler, small_config):
        lut = profiler.build_lut(small_config)
        foreign = LayerOp("conv", 128, 128, 64, 64, kernel=3)
        with pytest.raises(HardwareModelError, match="no entry"):
            lut.lookup(foreign)

    def test_extra_layers_profiled(self, profiler, small_config):
        extra = LayerOp("conv", 99, 99, 2, 2, kernel=1)
        lut = profiler.build_lut(small_config, extra_layers=[extra])
        assert extra in lut

    def test_overhead_recorded(self, profiler, small_config):
        assert profiler.build_lut(small_config).network_overhead_ms > 0

    def test_lut_len(self, profiler, small_config):
        assert len(profiler.build_lut(small_config)) > 10


class TestNetworkRuns:
    def test_profile_network_deterministic(self, profiler, small_config,
                                           heavy_genotype):
        a = profiler.profile_network_ms(heavy_genotype, small_config)
        b = profiler.profile_network_ms(heavy_genotype, small_config)
        assert a == b

    def test_heavier_network_slower(self, profiler, small_config,
                                    heavy_genotype, skip_only_genotype):
        heavy = profiler.profile_network_ms(heavy_genotype, small_config)
        light = profiler.profile_network_ms(skip_only_genotype, small_config)
        assert heavy > light


class TestMedian:
    """The profiler's median is ``np.median``'s, bit for bit, without
    the ``numpy.ma`` import ``np.median`` pays on its first call."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 10, 11, 64, 65])
    def test_equals_np_median_as_float_hex(self, size):
        rng = np.random.default_rng(size)
        for values in (1.0 + 0.005 * rng.normal(size=size),
                       rng.integers(0, 3, size=size).astype(float),
                       rng.normal(size=size) * 1e300):
            assert _median(values).hex() == float(np.median(values)).hex()

    @pytest.mark.parametrize("size", [1, 2, 5, 6])
    def test_nan_present(self, size):
        values = np.arange(size, dtype=float)
        values[size // 2] = np.nan
        assert np.isnan(_median(values))
        assert np.isnan(np.median(values))


def _tables(device, precision, repetitions, genotypes):
    profiler = OnDeviceProfiler(device, repetitions=repetitions,
                                precision=precision)
    lut = profiler.build_lut()
    return ({key: ms.hex() for key, ms in lut.entries.items()},
            lut.network_overhead_ms.hex(),
            [profiler.profile_network_ms(g).hex() for g in genotypes])


@pytest.mark.parametrize("repetitions", [1, 2, 10, 11])
@pytest.mark.parametrize("precision", ["float32", "int8"])
@pytest.mark.parametrize("board", sorted(known_devices()))
def test_profiled_tables_equal_np_median_tables(board, precision,
                                                repetitions, monkeypatch):
    """Every LUT entry, the network overhead and whole-network runs are
    the values ``np.median`` gave, as float hex."""
    device = known_devices()[board]
    genotypes = NasBench201Space().sample(4, rng=7)
    tables = _tables(device, precision, repetitions, genotypes)
    monkeypatch.setattr(profiler_module, "_median",
                        lambda runs: float(np.median(runs)))
    assert tables == _tables(device, precision, repetitions, genotypes)
