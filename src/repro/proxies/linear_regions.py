"""Linear-region count proxy (Section II-A-2).

The paper assesses expressivity on "a simple CNN with each layer containing
a single convolutional operator followed by the ReLU activation function":
the cell DAG is re-materialised with BN-free conv+ReLU edges (skip and pool
unchanged), so the network is exactly piecewise linear.

Two estimators are provided:

* :func:`count_line_regions` (default) — the number of distinct activation
  patterns crossed while walking straight line segments through input
  space.  Each ReLU unit whose decision boundary intersects the segment
  splits it; expressive cells cut the segment into many pieces.  This is
  the 1-D restriction studied by Xiong et al. (2020) and it does not
  saturate with sample count.
* :func:`count_sample_regions` — distinct patterns over i.i.d. random
  inputs (the TE-NAS estimator); kept for comparison and ablations.

Higher is better.

``ProxyConfig.lr_mode`` selects how line counts run.  ``"batched"``
(default) sends every line's points through one forward of a compiled,
forward-only :class:`~repro.engine.plan.LinePlan` over a weight bank: no
module tree is built.  Supernet states share one bank (weights, then the
probe lines) per process and ``(config, repeat)``.  The patterns equal
:func:`repro.engine.kernels.batched_line_patterns` over the
:class:`~repro.searchspace.network.LinearRegionNetwork` the same seed
builds.  ``"reference"`` builds that network and runs one forward per
line.

The plans load with this module; the module-tree code (the
``"reference"`` path, :func:`count_sample_regions` and
:func:`_forward_patterns`) imports the autograd tape, :mod:`repro.nn` and
the network inside its functions, so importing the proxy (as every run
and every pool worker does) loads none of them.
``LinearRegionNetwork`` is still readable from this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.autograd.precision import precision
from repro.engine.plan import (
    LinePlan,
    _draw_lines,
    draw_lr_bank,
    supernet_lr_bank,
)
from repro.errors import ProxyError
from repro.proxies.base import ProxyConfig
from repro.searchspace.genotype import Genotype
from repro.utils.rng import SeedLike, new_rng, stable_seed

if TYPE_CHECKING:
    from repro.nn.module import Module


def _forward_patterns(network: Module, images: np.ndarray) -> np.ndarray:
    """Concatenated binary ReLU patterns, one row per input."""
    from repro.autograd import Tensor, no_grad
    from repro.nn.layers.activation import ReLU

    relus = [m for m in network.modules() if isinstance(m, ReLU)]
    if not relus:
        raise ProxyError("network has no ReLU units; linear regions undefined")
    for relu in relus:
        relu.record_pattern = True
        relu.last_pattern = None
    network.train(True)
    with no_grad():
        network(Tensor(images))
    batch = images.shape[0]
    parts = [
        relu.last_pattern.reshape(batch, -1)
        for relu in relus
        if relu.last_pattern is not None
    ]
    return np.concatenate(parts, axis=1)


def count_distinct_patterns(patterns: np.ndarray) -> int:
    """Number of unique rows in a binary pattern matrix."""
    packed = np.packbits(patterns.astype(np.uint8), axis=1)
    return int(np.unique(packed, axis=0).shape[0])


def _regions_along_line(network: Module, start: np.ndarray, stop: np.ndarray,
                        num_points: int) -> int:
    """Distinct activation patterns along the segment start→stop."""
    ts = np.linspace(0.0, 1.0, num_points).reshape(-1, 1, 1, 1)
    line = start[None] * (1.0 - ts) + stop[None] * ts
    patterns = _forward_patterns(network, line)
    # Count boundary crossings: consecutive points with different patterns.
    changed = (patterns[1:] != patterns[:-1]).any(axis=1)
    return int(changed.sum()) + 1


def _count_lines(edge_op_sets, config: ProxyConfig, generator, num_lines: int,
                 mode: str, bank=None) -> List[int]:
    """Region counts for ``num_lines`` random segments in the given mode.

    ``"batched"`` runs every line's sample points through one compiled
    :class:`~repro.engine.plan.LinePlan` forward over a weight bank drawn
    from ``generator`` (or the given ``bank``), bit-identical to the
    stacked ``batched_line_patterns`` forward; ``"reference"`` builds the
    network and runs the original one-forward-per-line loop.
    """
    if mode == "batched":
        if bank is None:
            bank = draw_lr_bank(edge_op_sets, config, generator, num_lines)
        plan = LinePlan(edge_op_sets, config.lr_channels, config.lr_num_cells,
                        config.lr_input_size)
        return [int(c) for c in plan.count(bank)]
    if mode != "reference":
        raise ProxyError(f"unknown linear-region mode {mode!r}")
    from repro.searchspace.network import LinearRegionNetwork

    network = LinearRegionNetwork(edge_op_sets, channels=config.lr_channels,
                                  num_cells=config.lr_num_cells, rng=generator)
    size = config.lr_input_size
    starts, stops = _draw_lines(generator, (3, size, size), num_lines)
    return [_regions_along_line(network, start, stop, config.lr_num_samples)
            for start, stop in zip(starts, stops)]


def count_line_regions(
    genotype: Genotype,
    config: Optional[ProxyConfig] = None,
    rng: SeedLike = None,
    num_lines: int = 4,
    mode: Optional[str] = None,
) -> float:
    """Mean number of linear regions crossed by random input segments."""
    config = config or ProxyConfig()
    mode = mode or config.lr_mode
    counts = []
    with precision(config.precision_policy()):
        for repeat in range(config.repeats):
            generator = new_rng(
                stable_seed("lr", config.seed, repeat, genotype.to_index())
                if rng is None
                else rng
            )
            counts.extend(_count_lines([(op,) for op in genotype.ops], config,
                                       generator, num_lines, mode))
    return float(np.mean(counts))


def count_sample_regions(
    genotype: Genotype,
    config: Optional[ProxyConfig] = None,
    rng: SeedLike = None,
) -> float:
    """Distinct patterns over i.i.d. inputs (TE-NAS estimator; saturates)."""
    from repro.searchspace.network import LinearRegionNetwork

    config = config or ProxyConfig()
    counts = []
    with precision(config.precision_policy()):
        for repeat in range(config.repeats):
            generator = new_rng(
                stable_seed("lr-sample", config.seed, repeat, genotype.to_index())
                if rng is None
                else rng
            )
            network = LinearRegionNetwork.from_genotype(
                genotype,
                channels=config.lr_channels,
                num_cells=config.lr_num_cells,
                rng=generator,
            )
            images = generator.uniform(
                -1.0, 1.0,
                size=(config.lr_num_samples, 3,
                      config.lr_input_size, config.lr_input_size),
            )
            counts.append(
                count_distinct_patterns(_forward_patterns(network, images))
            )
    return float(np.mean(counts))


def count_linear_regions(
    genotype: Genotype,
    config: Optional[ProxyConfig] = None,
    rng: SeedLike = None,
) -> float:
    """The paper's expressivity indicator (line-restriction estimator)."""
    return count_line_regions(genotype, config, rng=rng)


def supernet_line_regions(
    edge_op_sets,
    config: Optional[ProxyConfig] = None,
    rng: SeedLike = None,
    num_lines: int = 4,
    mode: Optional[str] = None,
) -> float:
    """Line-region count of a pruning-supernet state (alive-op sets)."""
    config = config or ProxyConfig()
    mode = mode or config.lr_mode
    counts = []
    with precision(config.precision_policy()):
        for repeat in range(config.repeats):
            # Config-only seed: candidate prunings share weights and test
            # lines (see supernet_ntk_condition_number); in batched mode the
            # process draws them once per (config, repeat).
            generator = bank = None
            if mode == "batched" and rng is None:
                bank = supernet_lr_bank(config, repeat, num_lines)
            else:
                generator = new_rng(
                    stable_seed("lr-super", config.seed, repeat)
                    if rng is None
                    else rng
                )
            counts.extend(_count_lines(edge_op_sets, config, generator,
                                       num_lines, mode, bank=bank))
    return float(np.mean(counts))


def __getattr__(name: str):
    # The network now lives with the other module trees; this module
    # loads without :mod:`repro.nn`.
    if name == "LinearRegionNetwork":
        from repro.searchspace.network import LinearRegionNetwork

        return LinearRegionNetwork
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
