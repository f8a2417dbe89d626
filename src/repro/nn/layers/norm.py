"""Batch normalisation."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, functional as F
from repro.autograd.arrays import DEFAULT_EPS
from repro.autograd.precision import default_dtype
from repro.nn.module import Module, Parameter


class BatchNorm2d(Module):
    """Batch normalisation over NCHW tensors.

    In training mode normalisation uses batch statistics (and updates the
    running estimates); in eval mode it uses the running estimates.  Zero-cost
    proxies evaluate networks at initialisation in training mode, matching
    the reference TE-NAS/NAS-Bench-201 setup.
    """

    def __init__(self, num_features: int, eps: float = DEFAULT_EPS, momentum: float = 0.1,
                 affine: bool = True) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.affine = affine
        #: Eval-mode fast path for the frozen-BN NTK: when set, the next
        #: forward computes this batch's statistics out-of-tape, stores them
        #: as the running estimates and normalises with them as constants —
        #: equivalent to a momentum-1.0 training pass followed by an eval
        #: pass, in a single forward.
        self.freeze_stats_on_forward = False
        # Parameters AND buffers live in the active policy's compute
        # dtype: running statistics feed back into the tape (and the
        # batched NTK kernel's per-sample reconstruction), so float64
        # buffers under a float32 policy would silently upcast every
        # downstream product.
        dtype = default_dtype()
        if affine:
            self.weight = Parameter(np.ones(num_features, dtype=dtype),
                                    name="bn.weight")
            self.bias = Parameter(np.zeros(num_features, dtype=dtype),
                                  name="bn.bias")
        self.register_buffer("running_mean", np.zeros(num_features, dtype=dtype))
        self.register_buffer("running_var", np.ones(num_features, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got {x.shape}")
        if not self.training:
            if self.freeze_stats_on_forward:
                mean = x.data.mean(axis=(0, 2, 3), keepdims=True)
                centered = x.data - mean
                var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
                self.running_mean[...] = mean.reshape(-1)
                self.running_var[...] = var.reshape(-1)
            # Statistics are constants here: the whole normalisation is
            # one tape node.
            return F.batch_norm_eval(
                x, self.running_mean, self.running_var, self.eps,
                self.weight if self.affine else None,
                self.bias if self.affine else None,
            )
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
        inv_std = (var + self.eps) ** -0.5
        normalised = centered * inv_std
        batch_mean = mean.data.reshape(-1)
        batch_var = var.data.reshape(-1)
        self.running_mean += self.momentum * (batch_mean - self.running_mean)
        self.running_var += self.momentum * (batch_var - self.running_var)
        if not self.affine:
            return normalised
        scale = F.reshape(self.weight, (1, self.num_features, 1, 1))
        shift = F.reshape(self.bias, (1, self.num_features, 1, 1))
        return normalised * scale + shift

    def extra_repr(self) -> str:
        return f"{self.num_features}, eps={self.eps}, affine={self.affine}"
