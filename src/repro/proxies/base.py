"""Shared configuration for proxy evaluation."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.autograd.precision import PrecisionPolicy, resolve_policy
from repro.searchspace.specs import MacroConfig


@dataclass(frozen=True)
class ProxyConfig:
    """How zero-cost indicators are measured.

    The paper (following TE-NAS) evaluates indicators on a *reduced* network:
    fewer cells per stage and narrower channels than the deployment network,
    with a small input resolution.  ``ntk_batch_size=32`` is the paper's
    recommended operating point (Fig. 2b).

    ``ntk_mode``/``lr_mode`` select the proxy kernels: ``"batched"`` (the
    compiled straight-line plans in :mod:`repro.engine.plan`) or
    ``"reference"`` (the original per-sample / per-line loops, kept for
    validating the batched paths).  Both fields are part of the engine's
    cache key, so switching modes never aliases cached values.

    ``precision`` names the :class:`~repro.autograd.precision.\
    PrecisionPolicy` every proxy evaluation under this config runs in
    (``"float64"``, the bit-identical historical default, or
    ``"float32"`` for ~2× kernel throughput at rank-preserving accuracy —
    see ``BENCH_precision.json``).  Like the mode fields it travels in
    ``astuple(config)``, so it is part of every cache key and store
    fingerprint: float32 and float64 rows coexist without aliasing.
    """

    init_channels: int = 8
    cells_per_stage: int = 1
    input_size: int = 16
    num_classes: int = 10
    ntk_batch_size: int = 32
    lr_num_samples: int = 96
    lr_input_size: int = 6
    lr_channels: int = 4
    lr_num_cells: int = 1
    repeats: int = 1
    seed: int = 0
    ntk_mode: str = "batched"
    lr_mode: str = "batched"
    precision: str = "float64"

    def precision_policy(self) -> PrecisionPolicy:
        """The resolved policy proxy evaluations scope themselves under."""
        return resolve_policy(self.precision)

    def with_precision(self, precision: str) -> "ProxyConfig":
        """Copy running under a different precision policy."""
        return replace(self, precision=precision)

    def macro_config(self, num_classes: int = None) -> MacroConfig:
        """The reduced macro skeleton proxies are measured on."""
        return MacroConfig(
            init_channels=self.init_channels,
            cells_per_stage=self.cells_per_stage,
            num_classes=num_classes if num_classes is not None else self.num_classes,
            input_channels=3,
            image_size=self.input_size,
        )

    def with_batch_size(self, batch_size: int) -> "ProxyConfig":
        return replace(self, ntk_batch_size=batch_size)

    def with_seed(self, seed: int) -> "ProxyConfig":
        return replace(self, seed=seed)

    def with_modes(self, ntk_mode: str = None, lr_mode: str = None) -> "ProxyConfig":
        """Copy with different proxy kernel modes (None keeps the current)."""
        return replace(
            self,
            ntk_mode=ntk_mode if ntk_mode is not None else self.ntk_mode,
            lr_mode=lr_mode if lr_mode is not None else self.lr_mode,
        )

    def reference(self) -> "ProxyConfig":
        """Copy running both proxies on the pre-vectorization paths."""
        return self.with_modes(ntk_mode="reference", lr_mode="reference")


def resize_batch(images: np.ndarray, target_size: int) -> np.ndarray:
    """Nearest-neighbour resize of an NCHW batch to ``target_size``.

    Proxy networks use small inputs; dataset batches may come at the native
    resolution (e.g. 32×32 CIFAR), so we subsample/replicate as needed.
    """
    size = images.shape[-1]
    if size == target_size:
        return images
    idx = (np.arange(target_size) * size) // target_size
    return images[:, :, idx][:, :, :, idx]
