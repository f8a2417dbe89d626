"""Weight initialisers.

NTK-based proxies are evaluated at initialisation, so the initialisation
scheme is part of the proxy definition: we follow TE-NAS and use Kaiming
normal (fan-in, ReLU gain) for convolutions and linear layers.

Every initialiser accepts a ``dtype`` (default: the active precision
policy's compute dtype, float64 unless scoped otherwise).  Random draws
always happen in float64 and are *then* cast: a float32 network therefore
sees the rounded values of the exact same RNG stream its float64 twin
uses, which is what makes cross-precision rank-agreement tests meaningful
(same weights up to rounding, not different random networks).

The initialisers draw numpy arrays and build no module, so the compiled
proxy plans (:mod:`repro.engine.plan`) draw their weight banks with them
without importing :mod:`repro.nn`; :mod:`repro.nn.init` re-exports them.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.autograd.precision import default_dtype
from repro.utils.rng import SeedLike, new_rng


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 2:  # Linear: (out, in)
        fan_out, fan_in = shape
        return fan_in, fan_out
    if len(shape) == 4:  # Conv: (out, in, kh, kw)
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    raise ValueError(f"unsupported weight shape {shape}")


def _cast(array: np.ndarray, dtype: Optional[np.dtype]) -> np.ndarray:
    return array.astype(dtype or default_dtype(), copy=False)


def kaiming_normal(
    shape: Tuple[int, ...], rng: SeedLike = None, gain: float = math.sqrt(2.0),
    dtype: Optional[np.dtype] = None,
) -> np.ndarray:
    """He-normal initialisation (fan-in mode, ReLU gain by default)."""
    fan_in, _ = _fan_in_out(shape)
    std = gain / math.sqrt(fan_in)
    return _cast(new_rng(rng).normal(0.0, std, size=shape), dtype)


def kaiming_uniform(
    shape: Tuple[int, ...], rng: SeedLike = None, gain: float = math.sqrt(2.0),
    dtype: Optional[np.dtype] = None,
) -> np.ndarray:
    """He-uniform initialisation (fan-in mode)."""
    fan_in, _ = _fan_in_out(shape)
    bound = gain * math.sqrt(3.0 / fan_in)
    return _cast(new_rng(rng).uniform(-bound, bound, size=shape), dtype)


def xavier_normal(shape: Tuple[int, ...], rng: SeedLike = None,
                  dtype: Optional[np.dtype] = None) -> np.ndarray:
    """Glorot-normal initialisation."""
    fan_in, fan_out = _fan_in_out(shape)
    std = math.sqrt(2.0 / (fan_in + fan_out))
    return _cast(new_rng(rng).normal(0.0, std, size=shape), dtype)


def zeros(shape: Tuple[int, ...],
          dtype: Optional[np.dtype] = None) -> np.ndarray:
    return np.zeros(shape, dtype=dtype or default_dtype())


def ones(shape: Tuple[int, ...],
         dtype: Optional[np.dtype] = None) -> np.ndarray:
    return np.ones(shape, dtype=dtype or default_dtype())
