"""The simulated on-device profiler and latency lookup table.

The paper: "profiling each operation individually within the search space
and generating a reference lookup table ... constant hardware latency
overhead is profiled and incorporated".  We reproduce that measurement
pipeline against the cycle model: each op is "run" ``repetitions`` times
with multiplicative measurement jitter, and the median lands in the LUT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import HardwareModelError
from repro.hardware.costmodel import CycleCostModel
from repro.hardware.device import MCUDevice, NUCLEO_F746ZG
from repro.hardware.layers import LayerOp, network_layers
from repro.searchspace.genotype import Genotype
from repro.searchspace.ops import CANDIDATE_OPS, CONV_KERNEL
from repro.searchspace.specs import MacroConfig
from repro.utils.rng import new_rng, stable_seed


def _median(values: np.ndarray) -> float:
    """``float(np.median(values))`` of a 1-D float array, bit for bit.

    The middle sorted value, or the two middle ones summed and halved as
    ``np.median`` averages them; NaN when any value is NaN (``np.sort``
    puts NaNs last).  ``np.median`` itself imports ``numpy.ma`` the
    first time a process calls it, 11-16 ms of every cold LUT build.
    """
    ordered = np.sort(values)
    if np.isnan(ordered[-1]):
        return float("nan")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return float((ordered[middle - 1] + ordered[middle]) / 2)


@dataclass
class LatencyLUT:
    """Per-layer latency table in milliseconds, plus the constant overhead."""

    device_name: str
    entries: Dict[Tuple, float] = field(default_factory=dict)
    network_overhead_ms: float = 0.0

    def lookup(self, layer: LayerOp) -> float:
        try:
            return self.entries[layer.key]
        except KeyError:
            raise HardwareModelError(
                f"latency LUT for {self.device_name!r} has no entry for "
                f"{layer.key}; re-profile with a macro config covering it"
            ) from None

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, layer: LayerOp) -> bool:
        return layer.key in self.entries

    # ------------------------------------------------------------------
    # Persistence — board profiling is expensive; LUTs are reusable.
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serialisable form (tuple keys become lists)."""
        return {
            "device_name": self.device_name,
            "network_overhead_ms": self.network_overhead_ms,
            "entries": [
                {"key": list(key), "ms": ms}
                for key, ms in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "LatencyLUT":
        entries = {}
        for item in payload["entries"]:
            kind, *rest = item["key"]
            entries[(str(kind), *map(int, rest))] = float(item["ms"])
        return cls(
            device_name=str(payload["device_name"]),
            entries=entries,
            network_overhead_ms=float(payload["network_overhead_ms"]),
        )

    def save_json(self, path: str) -> None:
        """Persist the profile so a board need only be measured once."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def load_json(cls, path: str) -> "LatencyLUT":
        import json

        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class OnDeviceProfiler:
    """Builds a :class:`LatencyLUT` by measuring ops one at a time.

    ``jitter_sigma`` models run-to-run measurement noise on a real board
    (interrupts, flash wait states); the profiler takes the median of
    ``repetitions`` runs, as the paper's methodology implies.
    """

    def __init__(
        self,
        device: MCUDevice = NUCLEO_F746ZG,
        cost_model: Optional[CycleCostModel] = None,
        repetitions: int = 11,
        jitter_sigma: float = 0.005,
        seed: int = 0,
        precision: str = "float32",
    ) -> None:
        if repetitions < 1:
            raise HardwareModelError("repetitions must be >= 1")
        self.device = device
        self.cost_model = cost_model or CycleCostModel(device, precision=precision)
        self.repetitions = repetitions
        self.jitter_sigma = jitter_sigma
        self.seed = seed

    @property
    def precision(self) -> str:
        """Kernel precision the underlying cost model measures."""
        return self.cost_model.precision

    # ------------------------------------------------------------------
    # Single-op measurement
    # ------------------------------------------------------------------
    def _seed_parts(self) -> tuple:
        # float32 keeps the historical seed stream; other precisions get
        # their own independent measurement noise.
        if self.precision == "float32":
            return ()
        return (self.precision,)

    def measure_layer_ms(self, layer: LayerOp) -> float:
        """Median of jittered 'on-board' runs of one kernel."""
        true_ms = self.cost_model.layer_ms(layer)
        rng = new_rng(stable_seed("profile", self.device.name, self.seed,
                                  layer.key, *self._seed_parts()))
        runs = true_ms * (1.0 + self.jitter_sigma * rng.normal(size=self.repetitions))
        return _median(runs)

    def measure_network_overhead_ms(self) -> float:
        """Profiled constant overhead (runtime init, tensor arena setup)."""
        true_ms = self.device.cycles_to_ms(self.device.network_overhead_cycles)
        rng = new_rng(stable_seed("overhead", self.device.name, self.seed,
                                  *self._seed_parts()))
        runs = true_ms * (1.0 + self.jitter_sigma * rng.normal(size=self.repetitions))
        return _median(runs)

    # ------------------------------------------------------------------
    # LUT construction
    # ------------------------------------------------------------------
    def _coverage_layers(self, config: MacroConfig) -> List[LayerOp]:
        """Every layer descriptor any genotype can produce at this config."""
        layers: List[LayerOp] = []
        channels = config.stage_channels
        sizes = config.stage_sizes
        layers.append(
            LayerOp("conv", config.input_channels, channels[0],
                    config.image_size, config.image_size, kernel=3)
        )
        for c, s in zip(channels, sizes):
            for op in CANDIDATE_OPS:
                if op in CONV_KERNEL:
                    layers.append(LayerOp("conv", c, c, s, s, kernel=CONV_KERNEL[op]))
                elif op == "avg_pool_3x3":
                    layers.append(LayerOp("pool", c, c, s, s, kernel=3))
                elif op == "skip_connect":
                    layers.append(LayerOp("copy", c, c, s, s))
            layers.append(LayerOp("add", c, c, s, s))
        for stage in (1, 2):
            c_in, c_out, out_size = channels[stage - 1], channels[stage], sizes[stage]
            layers.append(LayerOp("conv", c_in, c_out, out_size, out_size, kernel=3, stride=2))
            layers.append(LayerOp("conv", c_out, c_out, out_size, out_size, kernel=3, stride=1))
            layers.append(LayerOp("pool", c_in, c_in, out_size, out_size, kernel=2, stride=2))
            layers.append(LayerOp("conv", c_in, c_out, out_size, out_size, kernel=1, stride=1))
            layers.append(LayerOp("add", c_out, c_out, out_size, out_size))
        layers.append(LayerOp("gap", channels[2], channels[2], sizes[2], sizes[2]))
        layers.append(LayerOp("linear", channels[2], config.num_classes, 1, 1))
        return layers

    def build_lut(self, config: Optional[MacroConfig] = None,
                  extra_layers: Iterable[LayerOp] = ()) -> LatencyLUT:
        """Profile the full op/shape grid of a macro config into a LUT."""
        config = config or MacroConfig.full()
        lut = LatencyLUT(device_name=self.device.name)
        for layer in list(self._coverage_layers(config)) + list(extra_layers):
            if layer.key not in lut.entries:
                lut.entries[layer.key] = self.measure_layer_ms(layer)
        lut.network_overhead_ms = self.measure_network_overhead_ms()
        return lut

    def profile_network_ms(self, genotype: Genotype,
                           config: Optional[MacroConfig] = None) -> float:
        """A full on-board run of one network (the validation ground truth).

        Unlike LUT composition this includes inter-layer transition stalls,
        so it is what :class:`LatencyEstimator` accuracy is measured against.
        """
        config = config or MacroConfig.full()
        layers = network_layers(genotype, config)
        cycles = self.cost_model.network_cycles(layers, include_transition_stalls=True)
        true_ms = self.device.cycles_to_ms(cycles)
        rng = new_rng(stable_seed("netrun", self.device.name, self.seed,
                                  genotype.to_index(), *self._seed_parts()))
        runs = true_ms * (1.0 + self.jitter_sigma * rng.normal(size=self.repetitions))
        return _median(runs)
